#include <gtest/gtest.h>

#include <set>

#include "hwstar/common/bits.h"
#include "hwstar/common/hash.h"
#include "hwstar/common/logging.h"
#include "hwstar/common/random.h"
#include "hwstar/common/status.h"
#include "hwstar/common/timer.h"

namespace hwstar {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailingStep() { return Status::Internal("boom"); }

Status UsesReturnIfError() {
  HWSTAR_RETURN_IF_ERROR(FailingStep());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MovesValueOut) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(BitsTest, IsPowerOfTwo) {
  EXPECT_FALSE(bits::IsPowerOfTwo(0));
  EXPECT_TRUE(bits::IsPowerOfTwo(1));
  EXPECT_TRUE(bits::IsPowerOfTwo(2));
  EXPECT_FALSE(bits::IsPowerOfTwo(3));
  EXPECT_TRUE(bits::IsPowerOfTwo(uint64_t{1} << 63));
}

TEST(BitsTest, NextPowerOfTwo) {
  EXPECT_EQ(bits::NextPowerOfTwo(0), 1u);
  EXPECT_EQ(bits::NextPowerOfTwo(1), 1u);
  EXPECT_EQ(bits::NextPowerOfTwo(2), 2u);
  EXPECT_EQ(bits::NextPowerOfTwo(3), 4u);
  EXPECT_EQ(bits::NextPowerOfTwo(1000), 1024u);
  EXPECT_EQ(bits::NextPowerOfTwo(1024), 1024u);
  // Above 2^63 no power of two fits: the result saturates at 2^63.
  constexpr uint64_t kTop = uint64_t{1} << 63;
  EXPECT_EQ(bits::NextPowerOfTwo(kTop), kTop);
  EXPECT_EQ(bits::NextPowerOfTwo(kTop + 1), kTop);
  EXPECT_EQ(bits::NextPowerOfTwo(~uint64_t{0}), kTop);
}

TEST(BitsTest, Log2) {
  EXPECT_EQ(bits::Log2Floor(1), 0u);
  EXPECT_EQ(bits::Log2Floor(2), 1u);
  EXPECT_EQ(bits::Log2Floor(3), 1u);
  EXPECT_EQ(bits::Log2Floor(1024), 10u);
  EXPECT_EQ(bits::Log2Ceil(1), 0u);
  EXPECT_EQ(bits::Log2Ceil(3), 2u);
  EXPECT_EQ(bits::Log2Ceil(1024), 10u);
  EXPECT_EQ(bits::Log2Ceil(1025), 11u);
}

TEST(BitsTest, Align) {
  EXPECT_EQ(bits::AlignUp(0, 64), 0u);
  EXPECT_EQ(bits::AlignUp(1, 64), 64u);
  EXPECT_EQ(bits::AlignUp(64, 64), 64u);
  EXPECT_EQ(bits::AlignDown(63, 64), 0u);
  EXPECT_EQ(bits::AlignDown(65, 64), 64u);
}

TEST(BitsTest, ExtractBits) {
  EXPECT_EQ(bits::ExtractBits(0xFF00, 8, 8), 0xFFu);
  EXPECT_EQ(bits::ExtractBits(0b101100, 2, 3), 0b011u);
  EXPECT_EQ(bits::ExtractBits(~uint64_t{0}, 0, 64), ~uint64_t{0});
  EXPECT_EQ(bits::ExtractBits(123, 0, 0), 0u);
}

TEST(HashTest, Mix64Avalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  const uint64_t h0 = Mix64(0x123456789abcdef0ULL);
  const uint64_t h1 = Mix64(0x123456789abcdef1ULL);
  const uint32_t flipped = bits::PopCount(h0 ^ h1);
  EXPECT_GT(flipped, 16u);
  EXPECT_LT(flipped, 48u);
}

TEST(HashTest, Mix64Deterministic) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
}

TEST(HashTest, HashBytesDistinguishesContent) {
  EXPECT_NE(HashString("hello"), HashString("world"));
  EXPECT_EQ(HashString("hello"), HashString("hello"));
  EXPECT_NE(HashBytes("ab", 2), HashBytes("ba", 2));
}

TEST(HashTest, Crc32KnownVector) {
  // CRC32 of "123456789" with the standard polynomial is 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(HashTest, Crc32Seeded) {
  // Chained CRC over split input equals CRC over whole input.
  uint32_t part = Crc32("12345", 5);
  // Note: simple seeding is not chaining; just check determinism and
  // difference.
  EXPECT_NE(Crc32("6789", 4, part), Crc32("6789", 4));
}

TEST(RandomTest, Deterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Xoshiro256 a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(RandomTest, BoundedStaysInBounds) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RandomTest, BoundedCoversRange) {
  Xoshiro256 rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, DoubleInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, RangeInclusive) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<uint64_t>(i);
  EXPECT_GT(t.ElapsedNanos(), 0u);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

TEST(LoggingTest, LevelFilters) {
  LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Emitting below the level must not crash (output suppressed).
  HWSTAR_LOG(Info) << "suppressed";
  HWSTAR_LOG(Error) << "visible during tests";
  SetLogLevel(prev);
}

}  // namespace
}  // namespace hwstar
