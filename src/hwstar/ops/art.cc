#include "hwstar/ops/art.h"

#include <type_traits>

#include "hwstar/common/macros.h"
#include "hwstar/ops/probe_kernels.h"
#include "hwstar/sync/epoch.h"
#include "hwstar/sync/optlock.h"

namespace hwstar::ops {

namespace {

/// Big-endian byte i of the key (byte 0 is most significant), so that
/// lexicographic trie order equals numeric key order.
inline uint8_t KeyByte(uint64_t key, uint32_t depth) {
  return static_cast<uint8_t>(key >> (56 - 8 * depth));
}

constexpr uint32_t kMaxDepth = 8;
constexpr uint32_t kMaxPrefix = 8;  // a uint64 key has at most 8 bytes

}  // namespace

/// Node layout notes. Each kind is its own allocation sized for its own
/// layout (Leis et al.'s point: a leaf costs a key and a value, not the
/// widest inner node). They share this header at offset 0, so a reader
/// samples the lock and reads the immutable `kind` before it casts to
/// the concrete layout and touches any of its fields.
///
/// Concurrent read path: every field a latch-free reader can observe
/// while the writer mutates it in place is a std::atomic accessed with
/// relaxed loads -- consistency comes from OptLock version validation
/// (sample, read, re-check), the atomics only rule out torn words and
/// data races. Fields that are written once before the node is published
/// through a release store (kind, leaf key) stay plain. Child pointers
/// use acquire/release so a reader that follows a freshly published
/// pointer sees the child fully constructed. Every kind is
/// value-initialized (C++20 zeroes default-constructed atomics), so an
/// empty slot or N48 index entry reads as zero.
struct AdaptiveRadixTree::Node {
  enum Kind : uint8_t { kLeaf, kN4, kN16, kN48, kN256 };

  explicit Node(Kind k) : kind(k) {}

  sync::OptLock lock;
  const Kind kind;  // never changes; growth replaces nodes
};

namespace {

using Node = AdaptiveRadixTree::Node;

/// 32 bytes. The key is immutable after publication; the value is
/// overwritten in place (a single atomic store, so readers need no lock
/// to see it untorn).
struct Leaf : Node {
  Leaf(uint64_t k, uint64_t v) : Node(kLeaf), key(k), value(v) {}

  const uint64_t key;
  std::atomic<uint64_t> value;
};

/// The fields every inner kind shares, packed into the header's tail
/// padding: the compressed path below the parent edge and the number of
/// children in use.
struct Inner : Node {
  using Node::Node;

  std::atomic<uint8_t> prefix_len{0};
  std::atomic<uint8_t> prefix[kMaxPrefix];
  std::atomic<uint16_t> count{0};
};

/// N4 (56 bytes) and N16 (168 bytes): up to W children whose key bytes
/// are kept sorted, so ForEach runs in key order. Reader-side lookups
/// are safe against a racing writer: stale count/key reads stay in
/// bounds and the caller validates the version before trusting them.
template <Node::Kind K, uint16_t W>
struct SortedNode : Inner {
  SortedNode() : Inner(K) {}

  int Pos(uint8_t b) const {
    const uint16_t cnt = count.load(std::memory_order_relaxed);
    for (uint16_t i = 0; i < cnt; ++i) {
      if (keys[i].load(std::memory_order_relaxed) == b) return i;
    }
    return -1;
  }
  Node* Find(uint8_t b) const {
    const int i = Pos(b);
    return i < 0 ? nullptr : children[i].load(std::memory_order_acquire);
  }
  std::atomic<Node*>* Slot(uint8_t b) {
    const int i = Pos(b);
    return i < 0 ? nullptr : &children[i];
  }
  bool Full() const { return count.load(std::memory_order_relaxed) == W; }

  void Add(uint8_t b, Node* c) {
    const uint16_t cnt = count.load(std::memory_order_relaxed);
    uint16_t pos = 0;
    while (pos < cnt && keys[pos].load(std::memory_order_relaxed) < b) ++pos;
    for (uint16_t i = cnt; i > pos; --i) {
      keys[i].store(keys[i - 1].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      children[i].store(children[i - 1].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    keys[pos].store(b, std::memory_order_relaxed);
    children[pos].store(c, std::memory_order_release);
    count.store(static_cast<uint16_t>(cnt + 1), std::memory_order_relaxed);
  }
  void Remove(uint8_t b) {
    const uint16_t cnt = count.load(std::memory_order_relaxed);
    const int pos = Pos(b);
    HWSTAR_DCHECK(pos >= 0);
    for (int i = pos; i + 1 < cnt; ++i) {
      keys[i].store(keys[i + 1].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      children[i].store(children[i + 1].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    count.store(static_cast<uint16_t>(cnt - 1), std::memory_order_relaxed);
  }
  template <typename F>
  void ForEach(F&& f) const {
    const uint16_t cnt = count.load(std::memory_order_relaxed);
    for (uint16_t i = 0; i < cnt; ++i) {
      f(keys[i].load(std::memory_order_relaxed),
        children[i].load(std::memory_order_relaxed));
    }
  }

  std::atomic<uint8_t> keys[W];
  std::atomic<Node*> children[W];
};

using N4 = SortedNode<Node::kN4, 4>;
using N16 = SortedNode<Node::kN16, 16>;

/// 664 bytes: a 256-entry byte index into 48 dense child slots.
struct N48 : Inner {
  N48() : Inner(kN48) {}

  Node* Find(uint8_t b) const {
    const uint8_t idx = child_index[b].load(std::memory_order_relaxed);
    return idx == 0 ? nullptr
                    : children[idx - 1].load(std::memory_order_acquire);
  }
  std::atomic<Node*>* Slot(uint8_t b) {
    const uint8_t idx = child_index[b].load(std::memory_order_relaxed);
    return idx == 0 ? nullptr : &children[idx - 1];
  }
  bool Full() const { return count.load(std::memory_order_relaxed) == 48; }

  void Add(uint8_t b, Node* c) {
    const uint16_t cnt = count.load(std::memory_order_relaxed);
    children[cnt].store(c, std::memory_order_release);
    child_index[b].store(static_cast<uint8_t>(cnt + 1),
                         std::memory_order_release);
    count.store(static_cast<uint16_t>(cnt + 1), std::memory_order_relaxed);
  }
  void Remove(uint8_t b) {
    const uint8_t slot = child_index[b].load(std::memory_order_relaxed);
    HWSTAR_DCHECK(slot != 0);
    child_index[b].store(0, std::memory_order_relaxed);
    // Keep the slot array dense: move the last occupied slot into the
    // hole and repoint whichever byte indexed it.
    const uint16_t last = count.load(std::memory_order_relaxed) - 1;
    if (slot - 1 != last) {
      children[slot - 1].store(children[last].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
      for (uint32_t byte = 0; byte < 256; ++byte) {
        if (child_index[byte].load(std::memory_order_relaxed) == last + 1) {
          child_index[byte].store(slot, std::memory_order_relaxed);
          break;
        }
      }
    }
    children[last].store(nullptr, std::memory_order_relaxed);
    count.store(last, std::memory_order_relaxed);
  }
  template <typename F>
  void ForEach(F&& f) const {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint8_t idx = child_index[b].load(std::memory_order_relaxed);
      if (idx != 0) {
        f(static_cast<uint8_t>(b),
          children[idx - 1].load(std::memory_order_relaxed));
      }
    }
  }

  std::atomic<uint8_t> child_index[256];  // 0 = empty, else child slot + 1
  std::atomic<Node*> children[48];
};

/// 2072 bytes: one child slot per byte value, inline, so descending an
/// N256 is a single dependent load.
struct N256 : Inner {
  N256() : Inner(kN256) {}

  Node* Find(uint8_t b) const {
    return children[b].load(std::memory_order_acquire);
  }
  std::atomic<Node*>* Slot(uint8_t b) { return &children[b]; }
  bool Full() const { return false; }

  void Add(uint8_t b, Node* c) {
    HWSTAR_DCHECK(children[b].load(std::memory_order_relaxed) == nullptr);
    children[b].store(c, std::memory_order_release);
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  }
  void Remove(uint8_t b) {
    HWSTAR_DCHECK(children[b].load(std::memory_order_relaxed) != nullptr);
    children[b].store(nullptr, std::memory_order_relaxed);
    count.store(count.load(std::memory_order_relaxed) - 1,
                std::memory_order_relaxed);
  }
  template <typename F>
  void ForEach(F&& f) const {
    for (uint32_t b = 0; b < 256; ++b) {
      Node* c = children[b].load(std::memory_order_relaxed);
      if (c != nullptr) f(static_cast<uint8_t>(b), c);
    }
  }

  std::atomic<Node*> children[256];
};

static_assert(sizeof(Leaf) == 32 && sizeof(N4) == 56 && sizeof(N16) == 168 &&
              sizeof(N48) == 664 && sizeof(N256) == 2072);

/// `p` cast to T, keeping its constness.
template <typename T, typename P>
auto* As(P* p) {
  if constexpr (std::is_const_v<P>) {
    return static_cast<const T*>(p);
  } else {
    return static_cast<T*>(p);
  }
}

/// Calls f with inner node `n` cast to its concrete kind.
template <typename P, typename F>
decltype(auto) Visit(P* n, F&& f) {
  HWSTAR_DCHECK(n->kind != Node::kLeaf);
  switch (n->kind) {
    case Node::kN4:
      return f(As<N4>(n));
    case Node::kN16:
      return f(As<N16>(n));
    case Node::kN48:
      return f(As<N48>(n));
    default:
      return f(As<N256>(n));
  }
}

/// Frees `n` as its own type (never through the header type).
void DeleteNode(Node* n) {
  if (n->kind == Node::kLeaf) {
    delete static_cast<Leaf*>(n);
  } else {
    Visit(n, [](auto* x) { delete x; });
  }
}

size_t NodeBytes(const Node* n) {
  if (n->kind == Node::kLeaf) return sizeof(Leaf);
  return Visit(n, [](auto* x) { return sizeof(*x); });
}

/// Finds the child for byte b, or nullptr. Safe for latch-free readers:
/// the result must be validated against the node version before being
/// dereferenced.
Node* FindChild(const Node* n, uint8_t b) {
  return Visit(n, [b](auto* x) { return x->Find(b); });
}

/// The slot holding the child for byte b (writer-side; the child must
/// exist). Stable until the writer itself mutates this node.
std::atomic<Node*>* ChildSlot(Node* n, uint8_t b) {
  std::atomic<Node*>* slot = Visit(n, [b](auto* x) { return x->Slot(b); });
  HWSTAR_CHECK(slot != nullptr);
  return slot;
}

bool HasRoom(const Node* n) {
  return !Visit(n, [](auto* x) { return x->Full(); });
}

/// Adds child b -> c into a node with room. The caller either holds the
/// node's write lock (so concurrent readers restart instead of observing
/// the N4/N16 shift mid-flight) or owns the node privately (not yet
/// published).
void AddChildInPlace(Node* n, uint8_t b, Node* c) {
  Visit(n, [b, c](auto* x) { x->Add(b, c); });
}

/// Removes the child slot for byte `b` (which must exist) without freeing
/// the child node. Caller holds the node's write lock.
void RemoveChildInPlace(Node* n, uint8_t b) {
  Visit(n, [b](auto* x) { x->Remove(b); });
}

/// Calls f(byte, child) for every child of inner node `n` in byte order.
/// Requires writer exclusion (or a private node).
template <typename F>
void ForEachChild(const Node* n, F&& f) {
  Visit(n, [&f](auto* x) { x->ForEach(f); });
}

/// A private copy of inner node `n` in layout T (its own kind or the
/// next bigger one), holding `n`'s active children and prefix. The copy
/// is published by the caller; `n` stays untouched for in-flight readers.
template <typename T>
Node* CopyInto(const Inner* n) {
  T* copy = new T();
  ForEachChild(n, [copy](uint8_t b, Node* c) { copy->Add(b, c); });
  copy->prefix_len.store(n->prefix_len.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  for (uint32_t i = 0; i < kMaxPrefix; ++i) {
    copy->prefix[i].store(n->prefix[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  return copy;
}

/// Adaptive growth: N4 -> N16 -> N48 -> N256.
Node* GrowCopy(const Node* n) {
  const Inner* in = static_cast<const Inner*>(n);
  switch (n->kind) {
    case Node::kN4:
      return CopyInto<N16>(in);
    case Node::kN16:
      return CopyInto<N48>(in);
    case Node::kN48:
      return CopyInto<N256>(in);
    default:
      HWSTAR_CHECK(false);
      return nullptr;
  }
}

/// A private same-kind copy of inner node `n` whose compressed path is
/// prefix[0, len). A published node's prefix never changes in place: a
/// reader that loaded the node's pointer before the change and its
/// version after it would check the new prefix at the old depth and
/// report a validated miss. The caller publishes the copy and retires `n`.
Node* CopyWithPrefix(const Node* n, const uint8_t* prefix, uint32_t len) {
  Inner* copy = static_cast<Inner*>(Visit(n, [](auto* x) {
    return CopyInto<std::remove_cv_t<std::remove_pointer_t<decltype(x)>>>(x);
  }));
  copy->prefix_len.store(static_cast<uint8_t>(len), std::memory_order_relaxed);
  for (uint32_t i = 0; i < len; ++i) {
    copy->prefix[i].store(prefix[i], std::memory_order_relaxed);
  }
  return copy;
}

/// The (byte, child) of the only child of a count==1 inner node.
void OnlyChild(const Node* n, uint8_t* byte, Node** child) {
  *child = nullptr;
  ForEachChild(n, [&](uint8_t b, Node* c) {
    *byte = b;
    *child = c;
  });
  HWSTAR_CHECK(*child != nullptr);
}

/// Longest common prefix of two keys starting at `depth`; at most
/// kMaxDepth - depth bytes.
uint32_t CommonPrefixLen(uint64_t a, uint64_t b, uint32_t depth) {
  uint32_t len = 0;
  while (depth + len < kMaxDepth &&
         KeyByte(a, depth + len) == KeyByte(b, depth + len)) {
    ++len;
  }
  return len;
}

/// Number of leading prefix bytes of `n` matching `key` at `depth`.
/// Reader-safe: every read is bounded regardless of staleness, and the
/// caller validates the node version before trusting the result.
uint32_t PrefixMatchLen(const Inner* n, uint64_t key, uint32_t depth) {
  const uint32_t pl = n->prefix_len.load(std::memory_order_relaxed);
  uint32_t len = 0;
  while (len < pl && len < kMaxPrefix && depth + len < kMaxDepth &&
         n->prefix[len].load(std::memory_order_relaxed) ==
             KeyByte(key, depth + len)) {
    ++len;
  }
  return len;
}

void FreeRec(Node* n) {
  if (n == nullptr) return;
  if (n->kind != Node::kLeaf) {
    ForEachChild(n, [](uint8_t, Node* c) { FreeRec(c); });
  }
  DeleteNode(n);
}

void RetireNode(sync::EpochManager* epoch, Node* n) {
  if (epoch == nullptr) {
    DeleteNode(n);
    return;
  }
  epoch->Retire(
      n, [](void* p) { DeleteNode(static_cast<Node*>(p)); }, NodeBytes(n));
}

/// In-order traversal calling emit(key, value) for every key in [lo, hi].
/// `partial` holds the key bytes fixed so far (above `depth` bytes are
/// decided), so whole subtrees outside the range are pruned; leaves carry
/// their full key, so `partial` exists only to prune. Requires writer
/// exclusion (the relaxed loads are for coexistence with latch-free point
/// readers, not with a racing writer).
template <typename Emit>
void ScanRec(const Node* n, uint32_t depth, uint64_t partial, uint64_t lo,
             uint64_t hi, Emit& emit) {
  if (n == nullptr) return;
  if (n->kind == Node::kLeaf) {
    const Leaf* leaf = static_cast<const Leaf*>(n);
    if (leaf->key >= lo && leaf->key <= hi) {
      emit(leaf->key, leaf->value.load(std::memory_order_relaxed));
    }
    return;
  }
  // Fold the compressed path into the partial key.
  const Inner* in = static_cast<const Inner*>(n);
  const uint32_t pl = in->prefix_len.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < pl; ++i) {
    partial |= static_cast<uint64_t>(
                   in->prefix[i].load(std::memory_order_relaxed))
               << (56 - 8 * (depth + i));
  }
  depth += pl;
  // Subtree bounds: bytes below `depth` range over [0x00.., 0xFF..].
  const uint32_t free_bits = 64 - 8 * depth;
  const uint64_t subtree_min = partial;
  const uint64_t subtree_max =
      free_bits >= 64
          ? ~uint64_t{0}
          : partial |
                ((free_bits == 0) ? 0 : ((uint64_t{1} << free_bits) - 1));
  if (subtree_max < lo || subtree_min > hi) return;

  ForEachChild(n, [&](uint8_t b, const Node* child) {
    const uint64_t child_partial =
        partial | (static_cast<uint64_t>(b) << (56 - 8 * depth));
    ScanRec(child, depth + 1, child_partial, lo, hi, emit);
  });
}

void CensusRec(const Node* n, AdaptiveRadixTree::NodeCounts* counts) {
  if (n == nullptr) return;
  switch (n->kind) {
    case Node::kLeaf:
      ++counts->leaves;
      return;
    case Node::kN4:
      ++counts->node4;
      break;
    case Node::kN16:
      ++counts->node16;
      break;
    case Node::kN48:
      ++counts->node48;
      break;
    case Node::kN256:
      ++counts->node256;
      break;
  }
  ForEachChild(n, [counts](uint8_t, const Node* c) { CensusRec(c, counts); });
}

}  // namespace

AdaptiveRadixTree::~AdaptiveRadixTree() {
  FreeRec(root_.load(std::memory_order_relaxed));
}

AdaptiveRadixTree::AdaptiveRadixTree(AdaptiveRadixTree&& other) noexcept
    : root_(other.root_.load(std::memory_order_relaxed)),
      size_(other.size_),
      epoch_(other.epoch_) {
  other.root_.store(nullptr, std::memory_order_relaxed);
  other.size_ = 0;
}

AdaptiveRadixTree& AdaptiveRadixTree::operator=(
    AdaptiveRadixTree&& other) noexcept {
  if (this != &other) {
    FreeRec(root_.load(std::memory_order_relaxed));
    root_.store(other.root_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    size_ = other.size_;
    epoch_ = other.epoch_;
    other.root_.store(nullptr, std::memory_order_relaxed);
    other.size_ = 0;
  }
  return *this;
}

/// The writer algorithms are iterative (the recursive versions patched
/// parent slots on unwind, after freeing replaced nodes -- the epoch
/// discipline needs the reverse: patch the slot first, then retire). Each
/// mutation follows one of two shapes:
///  - in place: write-lock the node, mutate, write-unlock (version bump
///    makes interleaved readers restart). Only child sets and leaf values
///    change in place; a prefix change always goes by replacement;
///  - by replacement: build the replacement privately, write-lock the old
///    node, publish the replacement into the parent slot with a release
///    store, mark the old node obsolete, retire it. Readers that still
///    hold the old pointer fail validation and restart; pinned readers
///    can still dereference it safely until the epoch frees it.
void AdaptiveRadixTree::Insert(uint64_t key, uint64_t value) {
  Node* n = root_.load(std::memory_order_relaxed);
  if (n == nullptr) {
    root_.store(new Leaf(key, value), std::memory_order_release);
    ++size_;
    return;
  }
  std::atomic<Node*>* slot = &root_;  // the slot `n` was loaded from
  uint32_t depth = 0;
  for (;;) {
    if (n->kind == Node::kLeaf) {
      Leaf* leaf = static_cast<Leaf*>(n);
      if (leaf->key == key) {
        leaf->value.store(value, std::memory_order_relaxed);  // overwrite
        return;
      }
      // Lazy expansion: split into an inner node holding the common
      // prefix. Both the old leaf and the tree above are unchanged, so
      // publishing the new inner into the parent slot is the only store
      // shared readers can see -- no locks needed.
      const uint32_t lcp = CommonPrefixLen(leaf->key, key, depth);
      N4* inner = new N4();
      inner->prefix_len.store(static_cast<uint8_t>(lcp),
                              std::memory_order_relaxed);
      for (uint32_t i = 0; i < lcp; ++i) {
        inner->prefix[i].store(KeyByte(key, depth + i),
                               std::memory_order_relaxed);
      }
      inner->Add(KeyByte(leaf->key, depth + lcp), leaf);
      inner->Add(KeyByte(key, depth + lcp), new Leaf(key, value));
      slot->store(inner, std::memory_order_release);
      ++size_;
      return;
    }

    // Inner node: check the compressed path.
    Inner* in = static_cast<Inner*>(n);
    const uint32_t pl = in->prefix_len.load(std::memory_order_relaxed);
    const uint32_t match = PrefixMatchLen(in, key, depth);
    if (match < pl) {
      // Path splits inside the prefix: new N4 with the matching part,
      // over a copy of `n` that keeps the tail of the prefix after the
      // split byte (see CopyWithPrefix); `n` itself dies obsolete.
      N4* inner = new N4();
      inner->prefix_len.store(static_cast<uint8_t>(match),
                              std::memory_order_relaxed);
      for (uint32_t i = 0; i < match; ++i) {
        inner->prefix[i].store(in->prefix[i].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
      }
      uint8_t tail[kMaxPrefix];
      const uint32_t tail_len = pl - match - 1;
      for (uint32_t i = 0; i < tail_len; ++i) {
        tail[i] = in->prefix[match + 1 + i].load(std::memory_order_relaxed);
      }
      inner->Add(in->prefix[match].load(std::memory_order_relaxed),
                 CopyWithPrefix(n, tail, tail_len));
      inner->Add(KeyByte(key, depth + match), new Leaf(key, value));
      n->lock.WriteLock();
      slot->store(inner, std::memory_order_release);
      n->lock.WriteUnlockObsolete();
      RetireNode(epoch_, n);
      ++size_;
      return;
    }

    depth += pl;
    const uint8_t b = KeyByte(key, depth);
    Node* child = FindChild(n, b);
    if (child == nullptr) {
      Node* leaf = new Leaf(key, value);
      if (HasRoom(n)) {
        n->lock.WriteLock();
        AddChildInPlace(n, b, leaf);
        n->lock.WriteUnlock();
      } else {
        // Adaptive growth by replacement.
        Node* big = GrowCopy(n);
        AddChildInPlace(big, b, leaf);
        n->lock.WriteLock();
        slot->store(big, std::memory_order_release);
        n->lock.WriteUnlockObsolete();
        RetireNode(epoch_, n);
      }
      ++size_;
      return;
    }
    slot = ChildSlot(n, b);
    n = child;
    ++depth;
  }
}

bool AdaptiveRadixTree::Find(uint64_t key, uint64_t* value) const {
  for (;;) {
    bool restart = false;
    const Node* n = root_.load(std::memory_order_acquire);
    if (n == nullptr) return false;
    uint64_t v = n->lock.ReadLockOrRestart(&restart);
    if (restart) continue;
    uint32_t depth = 0;
    bool hit = false;
    uint64_t val = 0;
    for (;;) {
      if (n->kind == Node::kLeaf) {
        const Leaf* leaf = static_cast<const Leaf*>(n);
        const uint64_t leaf_key = leaf->key;  // immutable after publication
        val = leaf->value.load(std::memory_order_relaxed);
        n->lock.CheckOrRestart(v, &restart);
        if (restart) break;
        hit = (leaf_key == key);
        break;
      }
      const Inner* in = static_cast<const Inner*>(n);
      const uint32_t pl = in->prefix_len.load(std::memory_order_relaxed);
      const uint32_t match = PrefixMatchLen(in, key, depth);
      if (match < pl) {
        n->lock.CheckOrRestart(v, &restart);
        break;  // miss if validated, restart otherwise
      }
      const uint32_t d = depth + pl;
      if (d >= kMaxDepth) {
        // Inner nodes sit above depth 8 in any consistent tree; a deeper
        // apparent position means the fields were torn by a writer.
        restart = true;
        break;
      }
      const Node* child = FindChild(n, KeyByte(key, d));
      // Validate before trusting (or dereferencing) the child pointer:
      // this is the "lock coupling" step done with versions.
      n->lock.CheckOrRestart(v, &restart);
      if (restart) break;
      if (child == nullptr) break;  // validated miss
      const uint64_t cv = child->lock.ReadLockOrRestart(&restart);
      if (restart) break;
      n = child;
      v = cv;
      depth = d + 1;
    }
    if (restart) continue;
    if (hit && value != nullptr) *value = val;
    return hit;
  }
}

size_t AdaptiveRadixTree::FindBatch(const uint64_t* keys, size_t n,
                                    uint64_t* values, bool* found,
                                    uint32_t group_size) const {
  size_t hits = 0;
  WithProbeGroup(group_size, [&](auto g) {
    constexpr uint32_t G = decltype(g)::value;
    for (size_t base = 0; base < n; base += G) {
      const uint32_t m = static_cast<uint32_t>(n - base < G ? n - base : G);
      if (m < G) {
        // Ragged tail: scalar descents (each with its own restart loop).
        for (uint32_t j = 0; j < m; ++j) {
          uint64_t value = 0;
          const bool hit = Find(keys[base + j], &value);
          values[base + j] = hit ? value : 0;
          if (found != nullptr) found[base + j] = hit;
          hits += hit;
        }
        break;
      }
      // Interleaved descent: each round advances every live lane one
      // node and prefetches its next node, so the G dependent-load
      // chains overlap. A lane retires (leaf reached, prefix mismatch,
      // or missing child) by publishing its result and going inactive.
      //
      // Concurrency: one restart loop wraps the whole group descent. Any
      // lane's version validation failure restarts every lane from the
      // root -- keeping lanes level-interleaved is the point of the
      // kernel, and a restart is rare enough (one writer, localized
      // locks) that redoing G descents costs less than managing ragged
      // per-lane restarts inside the rounds. Output slots are rewritten
      // on restart; hits commit only after a clean pass.
      for (;;) {
        bool restart = false;
        const Node* root = root_.load(std::memory_order_acquire);
        if (root == nullptr) {
          for (uint32_t j = 0; j < m; ++j) {
            values[base + j] = 0;
            if (found != nullptr) found[base + j] = false;
          }
          break;
        }
        const uint64_t rv = root->lock.ReadLockOrRestart(&restart);
        if (restart) continue;
        const Node* cur[G];
        uint64_t ver[G];
        uint32_t depth[G];
        bool live[G];
        uint32_t active = m;
        size_t group_hits = 0;
        for (uint32_t j = 0; j < m; ++j) {
          cur[j] = root;
          ver[j] = rv;
          depth[j] = 0;
          live[j] = true;
        }
        HWSTAR_PREFETCH(root);
        auto retire = [&](uint32_t j, uint64_t value, bool hit) {
          values[base + j] = value;
          if (found != nullptr) found[base + j] = hit;
          group_hits += hit;
          live[j] = false;
          --active;
        };
        while (active > 0 && !restart) {
          for (uint32_t j = 0; j < m && !restart; ++j) {
            if (!live[j]) continue;
            const Node* node = cur[j];
            const uint64_t key = keys[base + j];
            if (node->kind == Node::kLeaf) {
              const Leaf* leaf = static_cast<const Leaf*>(node);
              const uint64_t leaf_key = leaf->key;
              const uint64_t val =
                  leaf->value.load(std::memory_order_relaxed);
              node->lock.CheckOrRestart(ver[j], &restart);
              if (restart) break;
              if (leaf_key == key) {
                retire(j, val, true);
              } else {
                retire(j, 0, false);
              }
              continue;
            }
            const Inner* in = static_cast<const Inner*>(node);
            const uint32_t pl = in->prefix_len.load(std::memory_order_relaxed);
            if (PrefixMatchLen(in, key, depth[j]) < pl) {
              node->lock.CheckOrRestart(ver[j], &restart);
              if (restart) break;
              retire(j, 0, false);
              continue;
            }
            const uint32_t d = depth[j] + pl;
            if (d >= kMaxDepth) {
              restart = true;
              break;
            }
            const Node* child = FindChild(node, KeyByte(key, d));
            node->lock.CheckOrRestart(ver[j], &restart);
            if (restart) break;
            if (child == nullptr) {
              retire(j, 0, false);
              continue;
            }
            const uint64_t cv = child->lock.ReadLockOrRestart(&restart);
            if (restart) break;
            // The child is the next round's dependent load; put its first
            // two lines in flight now. They hold a whole leaf or N4 and
            // the header and key bytes of an N16.
            HWSTAR_PREFETCH(child);
            HWSTAR_PREFETCH(reinterpret_cast<const char*>(child) + 64);
            cur[j] = child;
            ver[j] = cv;
            depth[j] = d + 1;
          }
        }
        if (!restart) {
          hits += group_hits;
          break;
        }
      }
    }
  });
  return hits;
}

bool AdaptiveRadixTree::Erase(uint64_t key) {
  Node* n = root_.load(std::memory_order_relaxed);
  if (n == nullptr) return false;

  if (n->kind == Node::kLeaf) {
    if (static_cast<Leaf*>(n)->key != key) return false;
    n->lock.WriteLock();
    root_.store(nullptr, std::memory_order_release);
    n->lock.WriteUnlockObsolete();
    RetireNode(epoch_, n);
    --size_;
    return true;
  }

  // Descend to the parent of the leaf holding `key`, remembering the slot
  // the current inner node was loaded from (needed if it collapses).
  std::atomic<Node*>* nslot = &root_;
  uint32_t depth = 0;
  for (;;) {
    Inner* in = static_cast<Inner*>(n);
    const uint32_t pl = in->prefix_len.load(std::memory_order_relaxed);
    if (PrefixMatchLen(in, key, depth) < pl) return false;
    depth += pl;
    const uint8_t b = KeyByte(key, depth);
    Node* child = FindChild(n, b);
    if (child == nullptr) return false;

    if (child->kind != Node::kLeaf) {
      nslot = ChildSlot(n, b);
      n = child;
      ++depth;
      continue;
    }
    if (static_cast<Leaf*>(child)->key != key) return false;

    // Unlink the leaf from `n`; collapse `n` if one child remains.
    n->lock.WriteLock();
    RemoveChildInPlace(n, b);
    const uint16_t cnt = in->count.load(std::memory_order_relaxed);
    HWSTAR_DCHECK(cnt >= 1);  // inner nodes always carried >= 2 children
    if (cnt >= 2) {
      n->lock.WriteUnlock();
    } else {
      // Path compression in reverse: fold this node's prefix and the edge
      // byte into the lone surviving child, then splice it into this
      // node's slot. A leaf carries its full key, so it absorbs the
      // collapse with no prefix surgery; an inner child is replaced by a
      // copy carrying the merged prefix (see CopyWithPrefix). `n` and the
      // replaced child die obsolete.
      uint8_t edge = 0;
      Node* only = nullptr;
      OnlyChild(n, &edge, &only);
      if (only->kind != Node::kLeaf) {
        Inner* o = static_cast<Inner*>(only);
        const uint32_t n_pl = in->prefix_len.load(std::memory_order_relaxed);
        const uint32_t o_pl = o->prefix_len.load(std::memory_order_relaxed);
        HWSTAR_CHECK(n_pl + 1 + o_pl <= kMaxPrefix);
        uint8_t merged[kMaxPrefix];
        for (uint32_t i = 0; i < n_pl; ++i) {
          merged[i] = in->prefix[i].load(std::memory_order_relaxed);
        }
        merged[n_pl] = edge;
        for (uint32_t i = 0; i < o_pl; ++i) {
          merged[n_pl + 1 + i] = o->prefix[i].load(std::memory_order_relaxed);
        }
        Node* merged_node = CopyWithPrefix(only, merged, n_pl + 1 + o_pl);
        only->lock.WriteLock();
        nslot->store(merged_node, std::memory_order_release);
        n->lock.WriteUnlockObsolete();
        only->lock.WriteUnlockObsolete();
        RetireNode(epoch_, only);
      } else {
        nslot->store(only, std::memory_order_release);
        n->lock.WriteUnlockObsolete();
      }
      RetireNode(epoch_, n);
    }
    // The leaf is unlinked; obsolete it so validating readers re-descend,
    // then retire. Pinned readers may still dereference it until the
    // epoch frees it.
    child->lock.WriteLock();
    child->lock.WriteUnlockObsolete();
    RetireNode(epoch_, child);
    --size_;
    return true;
  }
}

uint64_t AdaptiveRadixTree::RangeScan(uint64_t lo, uint64_t hi,
                                      std::vector<uint64_t>* out) const {
  uint64_t count = 0;
  auto emit = [&](uint64_t, uint64_t value) {
    out->push_back(value);
    ++count;
  };
  ScanRec(root_.load(std::memory_order_acquire), 0, 0, lo, hi, emit);
  return count;
}

uint64_t AdaptiveRadixTree::RangeScanEntries(
    uint64_t lo, uint64_t hi,
    std::vector<std::pair<uint64_t, uint64_t>>* out) const {
  uint64_t count = 0;
  auto emit = [&](uint64_t key, uint64_t value) {
    out->emplace_back(key, value);
    ++count;
  };
  ScanRec(root_.load(std::memory_order_acquire), 0, 0, lo, hi, emit);
  return count;
}

AdaptiveRadixTree::NodeCounts AdaptiveRadixTree::CountNodes() const {
  NodeCounts counts;
  CensusRec(root_.load(std::memory_order_acquire), &counts);
  return counts;
}

uint64_t AdaptiveRadixTree::MemoryBytes() const {
  const NodeCounts c = CountNodes();
  return c.leaves * sizeof(Leaf) + c.node4 * sizeof(N4) +
         c.node16 * sizeof(N16) + c.node48 * sizeof(N48) +
         c.node256 * sizeof(N256);
}

}  // namespace hwstar::ops
