// Hashing helpers: FNV-1a for strings/bytes and boost-style hash combining.

#ifndef INSIGHTNOTES_COMMON_HASH_H_
#define INSIGHTNOTES_COMMON_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string_view>

namespace insightnotes {

/// 64-bit FNV-1a over arbitrary bytes.
inline uint64_t Fnv1a64(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t Fnv1a64(std::string_view s) { return Fnv1a64(s.data(), s.size()); }

namespace internal_hash {

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320) lookup tables for
/// slicing-by-8, built at compile time: entries[0] is the classic
/// byte-at-a-time table, entries[k][b] is the CRC of byte b followed by k
/// zero bytes.
struct Crc32Tables {
  uint32_t entries[8][256];
  constexpr Crc32Tables() : entries{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xFFu];
      }
    }
  }
};

inline constexpr Crc32Tables kCrc32Tables{};

}  // namespace internal_hash

/// CRC-32 (IEEE 802.3) over arbitrary bytes. Pass a previous result as
/// `crc` to checksum data incrementally. Eight bytes per step
/// (slicing-by-8) on little-endian hosts, the same values as the
/// byte-at-a-time loop that finishes the tail.
inline uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0) {
  const auto& t = internal_hash::kCrc32Tables.entries;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  if constexpr (std::endian::native == std::endian::little) {
    for (; len >= 8; p += 8, len -= 8) {
      uint32_t lo;
      uint32_t hi;
      std::memcpy(&lo, p, sizeof(lo));
      std::memcpy(&hi, p + 4, sizeof(hi));
      lo ^= crc;
      crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

inline uint32_t Crc32(std::string_view s) { return Crc32(s.data(), s.size()); }

/// Combines `value`'s hash into `seed` (boost::hash_combine recipe, 64-bit).
template <typename T>
inline void HashCombine(uint64_t* seed, const T& value) {
  *seed ^= std::hash<T>{}(value) + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

}  // namespace insightnotes

#endif  // INSIGHTNOTES_COMMON_HASH_H_
