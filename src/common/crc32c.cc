#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace neptune {
namespace crc32c {

namespace {

// Table-driven software CRC32C (polynomial 0x1EDC6F41, reflected
// 0x82F63B78), one table, byte at a time. The fallback on CPUs without
// the SSE4.2 crc32 instruction.
std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same CRC32C, 8 bytes per
// step. memcpy loads keep unaligned input well defined.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(
    uint32_t init_crc, std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*p));
  }
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, std::string_view data) {
  const auto& table = Table();
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  for (unsigned char c : data) {
    crc = table[(crc ^ c) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool UsesSse42() {
#if defined(__x86_64__)
  static const bool supported = __builtin_cpu_supports("sse4.2");
  return supported;
#else
  return false;
#endif
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, std::string_view data) {
#if defined(__x86_64__)
  if (internal::UsesSse42()) return ExtendSse42(init_crc, data);
#endif
  return internal::ExtendPortable(init_crc, data);
}

}  // namespace crc32c
}  // namespace neptune
