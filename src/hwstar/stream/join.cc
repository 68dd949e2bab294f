#include "hwstar/stream/join.h"

#include "hwstar/common/macros.h"

namespace hwstar::stream {

namespace {
/// Rows bloom-filtered and compacted per step; bounds the stack buffers.
constexpr size_t kProbeChunk = 1024;
}  // namespace

StreamTableJoin::StreamTableJoin(const uint64_t* build_keys,
                                 const int64_t* build_payloads, size_t n,
                                 const StreamJoinOptions& options)
    : options_(options), table_(n == 0 ? 1 : n, options.load_factor) {
  for (size_t i = 0; i < n; ++i) {
    table_.Insert(build_keys[i], static_cast<uint64_t>(build_payloads[i]));
  }
  if (options.bloom_prefilter) {
    bloom_ = std::make_unique<ops::BlockedBloomFilter>(n == 0 ? 1 : n);
    for (size_t i = 0; i < n; ++i) bloom_->Add(build_keys[i]);
  }
}

void StreamTableJoin::Bind(uint32_t partitions) {
  HWSTAR_CHECK(partitions > 0);
  scratch_ = std::vector<Scratch>(partitions);
}

int64_t StreamTableJoin::Combine(int64_t stream_value, int64_t payload) const {
  switch (options_.combine) {
    case JoinCombine::kBuildValue:
      return payload;
    case JoinCombine::kSum:
      return stream_value + payload;
    case JoinCombine::kProduct:
      return stream_value * payload;
  }
  return payload;
}

void StreamTableJoin::Apply(uint32_t partition, StreamBatch* batch) {
  HWSTAR_CHECK(partition < scratch_.size());
  const StreamBatch& in = *batch;
  StreamBatch& out = scratch_[partition].out;
  out.Clear();
  out.Reserve(in.size());

  const size_t n = in.size();
  const uint64_t* keys = in.keys.data();
  auto emit = [&](size_t row, uint64_t payload) {
    out.Append(in.keys[row], Combine(in.values[row],
                                     static_cast<int64_t>(payload)),
               in.event_ts[row]);
  };

  if (!options_.use_batched_kernels) {
    // Scalar baseline: one dependent-miss chain at a time.
    for (size_t i = 0; i < n; ++i) {
      table_.Probe(keys[i], [&](uint64_t payload) { emit(i, payload); });
    }
  } else if (bloom_ != nullptr) {
    // Bloom-prefilter a chunk at a time, compact the survivors (keeping
    // their original row ids), then batch-probe them — join_nop's probe
    // discipline applied to a stream batch.
    bool may[kProbeChunk];
    uint64_t pass_keys[kProbeChunk];
    size_t pass_rows[kProbeChunk];
    for (size_t base = 0; base < n; base += kProbeChunk) {
      const size_t m = n - base < kProbeChunk ? n - base : kProbeChunk;
      bloom_->MayContainBatch(keys + base, m, may);
      size_t live = 0;
      for (size_t j = 0; j < m; ++j) {
        if (!may[j]) continue;
        pass_keys[live] = keys[base + j];
        pass_rows[live] = base + j;
        ++live;
      }
      if (live == 0) continue;
      table_.ProbeBatch(
          pass_keys, live,
          [&](size_t j, uint64_t payload) { emit(pass_rows[j], payload); });
    }
  } else {
    table_.ProbeBatch(keys, n,
                      [&](size_t i, uint64_t payload) { emit(i, payload); });
  }

  batch->AdoptRows(&out);
}

}  // namespace hwstar::stream
