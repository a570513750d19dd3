#include "delta/byte_delta.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/coding.h"

namespace neptune {
namespace delta {

namespace {

constexpr size_t kBlockSize = 16;
constexpr uint8_t kOpAdd = 0x00;
constexpr uint8_t kOpCopy = 0x01;
// Cap on candidate offsets tried per hash bucket; bounds worst-case
// encode time on highly repetitive inputs.
constexpr size_t kMaxChainLength = 8;
constexpr uint32_t kNoBlock = UINT32_MAX;

uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Only bucket choice depends on this hash; it is never stored.
uint64_t HashBlock(const char* p) {
  static_assert(kBlockSize == 16, "HashBlock reads two words");
  const uint64_t h = Load64(p) * 0x9E3779B97F4A7C15ull;
  return (h ^ (h >> 29) ^ Load64(p + 8)) * 0xC2B2AE3D27D4EB4Full;
}

// Length of the common prefix of a[0, n) and b[0, n).
size_t MatchForward(const char* a, const char* b, size_t n) {
  size_t len = 0;
  while (len + 8 <= n && Load64(a + len) == Load64(b + len)) len += 8;
  while (len < n && a[len] == b[len]) ++len;
  return len;
}

// Length of the common suffix of a[-n, 0) and b[-n, 0).
size_t MatchBackward(const char* a_end, const char* b_end, size_t n) {
  size_t len = 0;
  while (len < n && *(a_end - len - 1) == *(b_end - len - 1)) ++len;
  return len;
}

void EmitAdd(std::string* out, std::string_view literal) {
  if (literal.empty()) return;
  out->push_back(static_cast<char>(kOpAdd));
  PutLengthPrefixed(out, literal);
}

void EmitCopy(std::string* out, uint64_t offset, uint64_t length) {
  out->push_back(static_cast<char>(kOpCopy));
  PutVarint64(out, offset);
  PutVarint64(out, length);
}

// A COPY pays for itself when its encoding is shorter than the bytes
// it replaces as literal.
bool CopyIsShorter(uint64_t offset, uint64_t length) {
  return static_cast<uint64_t>(1 + VarintLength(offset) +
                               VarintLength(length)) < length;
}

// Base blocks at kBlockSize stride, chained per hash bucket in
// ascending offset order (flat head/next arrays, no per-bucket
// allocation).
class BlockIndex {
 public:
  explicit BlockIndex(std::string_view base) {
    const size_t blocks = base.size() / kBlockSize;
    size_t buckets = 16;
    while (buckets < 2 * blocks) buckets *= 2;
    shift_ = 64 - static_cast<int>(std::countr_zero(buckets));
    head_.assign(buckets, kNoBlock);
    next_.resize(blocks);
    // Inserting from the back leaves each chain in ascending offset
    // order, so the walk tries the earliest blocks first.
    for (size_t b = blocks; b-- > 0;) {
      uint32_t& head = head_[Bucket(base.data() + b * kBlockSize)];
      next_[b] = head;
      head = static_cast<uint32_t>(b);
    }
  }

  size_t Bucket(const char* p) const { return HashBlock(p) >> shift_; }
  uint32_t head(size_t bucket) const { return head_[bucket]; }
  uint32_t next(uint32_t block) const { return next_[block]; }

 private:
  int shift_ = 0;
  std::vector<uint32_t> head_;
  std::vector<uint32_t> next_;
};

}  // namespace

std::string EncodeDelta(std::string_view base, std::string_view target) {
  std::string out;
  PutVarint64(&out, target.size());
  if (target.empty()) return out;

  // The common prefix and suffix become one COPY each; only the middle
  // is block-matched, against the whole base. Too short to pay for a
  // COPY, they stay literal.
  size_t prefix = MatchForward(base.data(), target.data(),
                               std::min(base.size(), target.size()));
  if (!CopyIsShorter(0, prefix)) prefix = 0;
  size_t suffix = MatchBackward(
      base.data() + base.size(), target.data() + target.size(),
      std::min(base.size(), target.size()) - prefix);
  if (!CopyIsShorter(base.size() - suffix, suffix)) suffix = 0;
  const size_t mid_end = target.size() - suffix;

  if (prefix > 0) EmitCopy(&out, 0, prefix);
  size_t lit_start = prefix;  // Start of the pending literal run.
  if (base.size() >= kBlockSize && mid_end - prefix >= kBlockSize) {
    const BlockIndex index(base);
    size_t i = prefix;
    while (i + kBlockSize <= mid_end) {
      size_t best_len = 0;
      size_t best_off = 0;
      uint32_t b = index.head(index.Bucket(target.data() + i));
      for (size_t tried = 0; tried < kMaxChainLength && b != kNoBlock;
           ++tried, b = index.next(b)) {
        // Verify and extend the match forward.
        const size_t cand = static_cast<size_t>(b) * kBlockSize;
        const size_t len =
            MatchForward(base.data() + cand, target.data() + i,
                         std::min(base.size() - cand, mid_end - i));
        if (len >= kBlockSize && len > best_len) {
          best_len = len;
          best_off = cand;
        }
      }
      if (best_len >= kBlockSize) {
        // Extend backward into the pending literal.
        const size_t back =
            MatchBackward(base.data() + best_off, target.data() + i,
                          std::min(best_off, i - lit_start));
        EmitAdd(&out, target.substr(lit_start, i - back - lit_start));
        EmitCopy(&out, best_off - back, best_len + back);
        i += best_len;
        lit_start = i;
      } else {
        ++i;
      }
    }
  }
  EmitAdd(&out, target.substr(lit_start, mid_end - lit_start));
  if (suffix > 0) EmitCopy(&out, base.size() - suffix, suffix);
  return out;
}

Result<std::string> ApplyDelta(std::string_view base,
                               std::string_view script) {
  uint64_t target_len = 0;
  if (!GetVarint64(&script, &target_len)) {
    return Status::Corruption("delta: missing target length");
  }
  std::string out;
  out.reserve(target_len);
  while (!script.empty()) {
    const uint8_t op = static_cast<uint8_t>(script.front());
    script.remove_prefix(1);
    if (op == kOpAdd) {
      std::string_view literal;
      if (!GetLengthPrefixed(&script, &literal)) {
        return Status::Corruption("delta: truncated ADD");
      }
      out.append(literal);
    } else if (op == kOpCopy) {
      uint64_t offset = 0;
      uint64_t length = 0;
      if (!GetVarint64(&script, &offset) || !GetVarint64(&script, &length)) {
        return Status::Corruption("delta: truncated COPY");
      }
      if (offset > base.size() || length > base.size() - offset) {
        return Status::Corruption("delta: COPY out of base bounds");
      }
      out.append(base.substr(offset, length));
    } else {
      return Status::Corruption("delta: unknown opcode");
    }
  }
  if (out.size() != target_len) {
    return Status::Corruption("delta: reconstructed length mismatch");
  }
  return out;
}

}  // namespace delta
}  // namespace neptune
