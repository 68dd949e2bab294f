#include <gtest/gtest.h>

#include <cstring>

#include "hwstar/hw/machine_model.h"
#include "hwstar/mem/aligned.h"
#include "hwstar/mem/numa_allocator.h"

namespace hwstar::mem {
namespace {

TEST(AlignedTest, RespectsAlignment) {
  for (size_t align : {16, 64, 256, 4096}) {
    void* p = AlignedAlloc(100, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u);
    AlignedFree(p);
  }
}

TEST(AlignedTest, ZeroBytesStillValid) {
  void* p = AlignedAlloc(0);
  EXPECT_NE(p, nullptr);
  AlignedFree(p);
}

TEST(AlignedTest, BufferIsWritable) {
  AlignedBuffer buf = MakeAlignedBuffer(4096);
  ASSERT_NE(buf, nullptr);
  std::memset(buf.get(), 0xAB, 4096);
  EXPECT_EQ(buf[0], 0xAB);
  EXPECT_EQ(buf[4095], 0xAB);
}

TEST(NumaAllocatorTest, RegistersPlacementWithModel) {
  hw::MachineModel m = hw::MachineModel::Server2013();
  sim::NumaModel model(m);
  NumaAllocator alloc(&model);
  void* p = alloc.Allocate(1 << 16, NumaAllocator::Policy::kFirstTouch, 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(model.HomeNode(reinterpret_cast<uint64_t>(p)), 1u);
  alloc.Free(p, 1 << 16);
  EXPECT_EQ(model.HomeNode(reinterpret_cast<uint64_t>(p)), 0u);
}

TEST(NumaAllocatorTest, InterleavePlacesAcrossNodes) {
  hw::MachineModel m = hw::MachineModel::Server2013();
  sim::NumaModel model(m);
  NumaAllocator alloc(&model);
  auto* arr = alloc.AllocateArray<uint64_t>(
      (64 * 4096) / sizeof(uint64_t), NumaAllocator::Policy::kInterleave);
  ASSERT_NE(arr, nullptr);
  const uint64_t base = reinterpret_cast<uint64_t>(arr);
  uint32_t node0 = 0, node1 = 0;
  for (uint64_t page = 0; page < 64; ++page) {
    (model.HomeNode(base + page * 4096) == 0 ? node0 : node1)++;
  }
  EXPECT_EQ(node0, 32u);
  EXPECT_EQ(node1, 32u);
  alloc.Free(arr, 64 * 4096);
}

}  // namespace
}  // namespace hwstar::mem
