#include "qdcbir/core/crc32c.h"

#include <algorithm>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "qdcbir/core/rng.h"

namespace qdcbir {
namespace {

std::string RandomBytes(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.UniformInt(std::uint64_t{256}));
  }
  return bytes;
}

TEST(Crc32cTest, IncrementalExtendMatchesOneShot) {
  const std::string bytes = RandomBytes(99, 1000);
  const std::uint32_t whole = Crc32c::Compute(bytes);
  for (const std::size_t split : {0u, 1u, 7u, 8u, 9u, 500u, 999u, 1000u}) {
    const std::uint32_t crc =
        Crc32c::Extend(Crc32c::Compute(bytes.data(), split),
                       bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

/// Each case runs on one implementation: `portable` (slicing-by-8) or
/// `sse42` (the `crc32` instruction), which skips on a CPU without SSE4.2.
class Crc32cPathTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    extend_ = GetParam() == "portable" ? &internal::Crc32cPortableExtend
                                       : internal::Crc32cSse42Extend();
    if (extend_ == nullptr) GTEST_SKIP() << "this CPU lacks SSE4.2";
  }
  std::uint32_t Compute(const void* data, std::size_t n) const {
    return extend_(0, data, n);
  }
  std::uint32_t Compute(const std::string& bytes) const {
    return Compute(bytes.data(), bytes.size());
  }

  internal::Crc32cExtendFn extend_ = nullptr;
};

TEST_P(Crc32cPathTest, KnownVectors) {
  // RFC 3720 (iSCSI) CRC32C check value.
  EXPECT_EQ(Compute("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Compute("", 0), 0u);
  // RFC 3720 appendix B.4 test patterns: 32 bytes of zeros, of 0xFF, of
  // ascending 0x00..0x1F and of descending 0x1F..0x00.
  EXPECT_EQ(Compute(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Compute(std::string(32, '\xff')), 0x62A8AB43u);
  std::string ascending(32, '\0'), descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(Compute(ascending), 0x46DD794Eu);
  EXPECT_EQ(Compute(descending), 0x113FDB5Cu);
}

TEST_P(Crc32cPathTest, UnalignedStartsAgree) {
  // Both loops have an alignment prologue; starting the same message at
  // every offset within a word must not change the result.
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  char buffer[64 + 8];
  for (int shift = 0; shift < 8; ++shift) {
    std::memcpy(buffer + shift, msg.data(), msg.size());
    EXPECT_EQ(Compute(buffer + shift, msg.size()), Compute(msg))
        << "shift " << shift;
  }
}

TEST_P(Crc32cPathTest, DetectsEverySingleBitFlip) {
  const std::string bytes = RandomBytes(7, 257);
  const std::uint32_t clean = Compute(bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(static_cast<unsigned char>(flipped[i]) ^
                                     (1u << bit));
      EXPECT_NE(Compute(flipped), clean)
          << "undetected flip at byte " << i << " bit " << bit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, Crc32cPathTest,
                         ::testing::Values("portable", "sse42"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

class Crc32cParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hardware_ = internal::Crc32cSse42Extend();
    if (hardware_ == nullptr) GTEST_SKIP() << "this CPU lacks SSE4.2";
  }

  internal::Crc32cExtendFn hardware_ = nullptr;
};

TEST_F(Crc32cParityTest, EveryShortLengthAtEveryStartOffset) {
  // Lengths 0..300 from each start offset within a word cover every mix of
  // alignment prologue, word loop and byte tail, from a nonzero prior CRC
  // as well as from zero.
  const std::string bytes = RandomBytes(11, 300 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 300; ++n) {
      const char* start = bytes.data() + offset;
      ASSERT_EQ(hardware_(0, start, n),
                internal::Crc32cPortableExtend(0, start, n))
          << "offset " << offset << " length " << n;
      ASSERT_EQ(hardware_(0xDEADBEEFu, start, n),
                internal::Crc32cPortableExtend(0xDEADBEEFu, start, n))
          << "offset " << offset << " length " << n << " from a prior CRC";
    }
  }
}

TEST_F(Crc32cParityTest, RandomSplitsOfAMebibyte) {
  // Chained over random pieces, as ByteReader extends over its windows,
  // the hardware path must reach the portable one-shot CRC.
  const std::string bytes = RandomBytes(13, std::size_t{1} << 20);
  const std::uint32_t whole =
      internal::Crc32cPortableExtend(0, bytes.data(), bytes.size());
  EXPECT_EQ(Crc32c::Compute(bytes), whole);
  Rng rng(17);
  for (int trial = 0; trial < 32; ++trial) {
    std::uint32_t crc = 0;
    std::size_t at = 0;
    while (at < bytes.size()) {
      const std::uint64_t max_piece = trial % 2 == 0 ? 64 : 70000;
      const std::size_t piece = std::min<std::size_t>(
          bytes.size() - at, rng.UniformInt(max_piece));
      crc = hardware_(crc, bytes.data() + at, piece);
      at += piece;
    }
    EXPECT_EQ(crc, whole) << "trial " << trial;
  }
}

}  // namespace
}  // namespace qdcbir
