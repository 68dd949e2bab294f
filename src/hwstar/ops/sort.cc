#include "hwstar/ops/sort.h"

namespace hwstar::ops {

void RadixSortRelation(Relation* rel) {
  const size_t n = rel->keys.size();
  if (n <= 1) return;
  Relation tmp;
  tmp.keys.resize(n);
  tmp.payloads.resize(n);
  uint64_t* src_keys = rel->keys.data();
  uint64_t* src_payloads = rel->payloads.data();
  uint64_t* dst_keys = tmp.keys.data();
  uint64_t* dst_payloads = tmp.payloads.data();
  const bool odd = sort_internal::RadixPasses(
      n, [&](size_t i) { return src_keys[i]; },
      [&](size_t i, size_t o) {
        dst_keys[o] = src_keys[i];
        dst_payloads[o] = src_payloads[i];
      },
      [&] {
        std::swap(src_keys, dst_keys);
        std::swap(src_payloads, dst_payloads);
      });
  if (odd) std::swap(*rel, tmp);
}

}  // namespace hwstar::ops
