// CRC32C (Castagnoli) checksums, used to frame WAL records, snapshot
// sections, and RPC wire messages so that torn writes and corrupt
// tails are detected rather than replayed.

#ifndef NEPTUNE_COMMON_CRC32C_H_
#define NEPTUNE_COMMON_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace neptune {
namespace crc32c {

// Returns the CRC32C of data, seeded by `init_crc` (pass 0 for a fresh
// checksum; pass a previous return value to extend it). Uses the SSE4.2
// crc32 instruction when the CPU has it, a byte-at-a-time table
// otherwise; both give identical values.
uint32_t Extend(uint32_t init_crc, std::string_view data);

inline uint32_t Value(std::string_view data) { return Extend(0, data); }

// Masked CRCs are stored on disk/wire so that a CRC of data that
// happens to contain embedded CRCs stays well distributed (same
// masking scheme as LevelDB).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8ul;
  return (rot >> 17) | (rot << 15);
}

// For tests, which cross-check the two implementations.
namespace internal {
// The table-driven routine Extend falls back to without SSE4.2.
uint32_t ExtendPortable(uint32_t init_crc, std::string_view data);
// True when Extend runs on the SSE4.2 crc32 instruction.
bool UsesSse42();
}  // namespace internal

}  // namespace crc32c
}  // namespace neptune

#endif  // NEPTUNE_COMMON_CRC32C_H_
