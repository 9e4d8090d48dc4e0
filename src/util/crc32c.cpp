#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#define FASTPR_CRC_X86 1
#endif

namespace fastpr {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  // 8 slicing tables: table[0] is the classic byte table; table[j]
  // advances a byte processed j bytes ago.
  std::array<std::array<uint32_t, 256>, 8> t;

  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (int j = 1; j < 8; ++j) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFF];
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

#ifdef FASTPR_CRC_X86
// The instruction computes the same reflected Castagnoli CRC as the
// tables: one 8-byte step per crc32 (3-cycle latency, so one stream
// runs near 8 bytes per 3 cycles).
__attribute__((target("sse4.2"))) uint32_t crc32c_sse42(const uint8_t* p,
                                                        size_t len,
                                                        uint32_t crc) {
  uint64_t c = ~crc;
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    len -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (len-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}

bool has_sse42() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}
#endif

}  // namespace

uint32_t crc32c_portable(std::span<const uint8_t> data, uint32_t crc) {
  const auto& t = tables().t;
  crc = ~crc;
  const uint8_t* p = data.data();
  size_t len = data.size();

  // 8-byte slices.
  while (len >= 8) {
    const uint32_t low = crc ^ (static_cast<uint32_t>(p[0]) |
                                (static_cast<uint32_t>(p[1]) << 8) |
                                (static_cast<uint32_t>(p[2]) << 16) |
                                (static_cast<uint32_t>(p[3]) << 24));
    crc = t[7][low & 0xFF] ^ t[6][(low >> 8) & 0xFF] ^
          t[5][(low >> 16) & 0xFF] ^ t[4][low >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

uint32_t crc32c(std::span<const uint8_t> data, uint32_t crc) {
#ifdef FASTPR_CRC_X86
  if (has_sse42()) return crc32c_sse42(data.data(), data.size(), crc);
#endif
  return crc32c_portable(data, crc);
}

const char* crc32c_path() {
#ifdef FASTPR_CRC_X86
  if (has_sse42()) return "sse4.2";
#endif
  return "portable";
}

}  // namespace fastpr
