#include "hwstar/svc/batcher.h"

#include <algorithm>
#include <iterator>
#include <map>

#include "hwstar/common/bits.h"
#include "hwstar/common/macros.h"

namespace hwstar::svc {

Batcher::Batcher(BatcherOptions options) : options_(options) {
  HWSTAR_CHECK(bits::IsPowerOfTwo(options_.kv_shards));
  shard_shift_ = 64 - bits::Log2Floor(options_.kv_shards);
}

namespace {

/// The batch type a request groups under: deletes share the write batch
/// (a put and a delete on the same key are an ordered pair exactly like
/// two puts, so they must flow through the same stable sort and
/// never-split rule).
RequestType BatchKind(RequestType type) {
  return type == RequestType::kDelete ? RequestType::kPut : type;
}

/// Scans, joins and transactions stay singletons: already coarse-grained
/// work, and a transaction serializes itself via validation, not batch
/// placement.
bool Batchable(RequestType kind) {
  return kind == RequestType::kPointGet || kind == RequestType::kPut ||
         kind == RequestType::kAggregate;
}

/// The key a point-get or write operates on.
uint64_t KeyOf(const Request& r) {
  switch (r.type) {
    case RequestType::kPointGet:
      return r.get.key;
    case RequestType::kDelete:
      return r.del.key;
    default:
      return r.put.key;
  }
}

/// Which batch of its kind a request may join: its kv shard, or for an
/// aggregate its target store.
uintptr_t BatchId(const Batcher& batcher, const Request& r) {
  return r.type == RequestType::kAggregate
             ? reinterpret_cast<uintptr_t>(r.agg.store)
             : batcher.ShardOf(KeyOf(r));
}

}  // namespace

std::vector<Batch> Batcher::Group(std::vector<TicketPtr> tickets) const {
  std::vector<Batch> batches;
  std::map<std::pair<RequestType, uintptr_t>, std::vector<TicketPtr>> groups;
  for (auto& t : tickets) {
    const RequestType kind = BatchKind(t->request.type);
    if (Batchable(kind)) {
      groups[{kind, BatchId(*this, t->request)}].push_back(std::move(t));
    } else {
      batches.emplace_back().type = kind;
      batches.back().tickets.push_back(std::move(t));
    }
  }

  for (auto& [id, group] : groups) {
    const RequestType kind = id.first;
    if (kind != RequestType::kAggregate) {
      // Ascending key order inside the shard: a MultiGet run walks the
      // index with monotone keys (locality in trie/tree nodes), a write
      // run takes one WAL shard mutex. STABLE: two writes to the same key
      // — put/put, put/delete, any mix — must apply in submission order,
      // or batching would change which state wins.
      std::stable_sort(group.begin(), group.end(),
                       [](const TicketPtr& a, const TicketPtr& b) {
                         return KeyOf(a->request) < KeyOf(b->request);
                       });
    }
    for (size_t begin = 0; begin < group.size();) {
      size_t end = std::min(group.size(), begin + options_.max_batch);
      // Never split a run of equal keys across write batches: batches for
      // the same shard may execute concurrently on different svc workers,
      // so a split run could apply the later-submitted write first —
      // exactly the reordering the stable sort exists to prevent. A
      // put+delete pair split across batches could resurrect a deleted
      // key.
      while (kind == RequestType::kPut && end < group.size() &&
             KeyOf(group[end]->request) == KeyOf(group[end - 1]->request)) {
        ++end;
      }
      Batch& b = batches.emplace_back();
      b.type = kind;
      if (kind != RequestType::kAggregate) {
        b.shard = static_cast<uint32_t>(id.second);
      }
      b.tickets.assign(std::make_move_iterator(group.begin() + begin),
                       std::make_move_iterator(group.begin() + end));
      begin = end;
    }
  }
  return batches;
}

void GroupSelector::Reset() {
  size_ = 0;
  write_keys_.clear();
}

bool GroupSelector::Take(const Ticket& ticket) {
  const Request& r = ticket.request;
  if (size_ == 0) {
    kind_ = BatchKind(r.type);
    id_ = BatchId(*batcher_, r);
  } else if (!Claims(ticket) &&
             (!Room() || BatchKind(r.type) != kind_ ||
              BatchId(*batcher_, r) != id_)) {
    return false;
  }
  if (kind_ == RequestType::kPut) write_keys_.push_back(KeyOf(r));
  ++size_;
  return true;
}

bool GroupSelector::Open() const {
  // A full write group still takes its keys' later writes.
  return Room() || kind_ == RequestType::kPut;
}

bool GroupSelector::Room() const {
  return size_ == 0 ||
         (Batchable(kind_) && size_ < batcher_->options().max_batch);
}

bool GroupSelector::Claims(const Ticket& ticket) const {
  const Request& r = ticket.request;
  return size_ > 0 && kind_ == RequestType::kPut &&
         BatchKind(r.type) == RequestType::kPut &&
         std::find(write_keys_.begin(), write_keys_.end(), KeyOf(r)) !=
             write_keys_.end();
}

}  // namespace hwstar::svc
