#include <gtest/gtest.h>

#include <cstring>

#include "hwstar/mem/aligned.h"

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

}  // namespace
}  // namespace hwstar::mem
