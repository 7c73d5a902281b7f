#include "common/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace insightnotes {
namespace {

// Byte-at-a-time CRC-32 (IEEE, reflected 0xEDB88320) computed bit by bit:
// the reference the table-driven Crc32 must equal.
uint32_t ReferenceCrc32(const unsigned char* p, size_t len, uint32_t crc = 0) {
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(Random* rng, size_t n) {
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng->Uniform(256));
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string_view("")), 0u);
}

// Every length up to 9000 (more than two pages) at every start alignment
// 0-7, so the eight-byte loop runs from misaligned addresses and every
// tail length 0-7 is finished byte-wise.
TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Random rng(7);
  const std::vector<unsigned char> buffer = RandomBytes(&rng, 9000 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* base = buffer.data() + offset;
    uint32_t reference = 0;  // Of the first `len` bytes, extended a byte a step.
    for (size_t len = 0; len <= 9000; ++len) {
      if (len > 0) reference = ReferenceCrc32(base + len - 1, 1, reference);
      ASSERT_EQ(Crc32(base, len), reference) << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32Test, IncrementalChainingEqualsOneShot) {
  Random rng(11);
  const std::vector<unsigned char> bytes = RandomBytes(&rng, 5000);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  ASSERT_EQ(whole, ReferenceCrc32(bytes.data(), bytes.size()));
  for (int round = 0; round < 200; ++round) {
    // Split at two random points into three chained calls.
    size_t a = rng.Uniform(bytes.size() + 1);
    size_t b = rng.Uniform(bytes.size() + 1);
    if (a > b) std::swap(a, b);
    uint32_t crc = Crc32(bytes.data(), a);
    crc = Crc32(bytes.data() + a, b - a, crc);
    crc = Crc32(bytes.data() + b, bytes.size() - b, crc);
    ASSERT_EQ(crc, whole) << "split at " << a << " and " << b;
    ASSERT_EQ(Crc32(bytes.data() + a, b - a, ReferenceCrc32(bytes.data(), a)),
              ReferenceCrc32(bytes.data(), b));
  }
}

}  // namespace
}  // namespace insightnotes
