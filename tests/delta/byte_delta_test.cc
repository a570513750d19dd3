#include "delta/byte_delta.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/coding.h"
#include "common/random.h"

namespace neptune {
namespace delta {
namespace {

void ExpectRoundTrip(std::string_view base, std::string_view target) {
  std::string script = EncodeDelta(base, target);
  auto result = ApplyDelta(base, script);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, target);
}

// The encoder version chains were written with before prefix/suffix
// trimming: block matching over the whole target, an unordered_map of
// FNV-1a block hashes, at most 8 offsets per hash. Kept as a reference
// for script compatibility and size.
std::string LegacyEncodeDelta(std::string_view base, std::string_view target) {
  constexpr size_t kBlock = 16;
  auto hash_block = [](const char* p) {
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < kBlock; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 1099511628211ull;
    }
    return h;
  };
  auto emit_add = [](std::string* out, std::string_view literal) {
    if (literal.empty()) return;
    out->push_back('\x00');
    PutLengthPrefixed(out, literal);
  };
  std::string out;
  PutVarint64(&out, target.size());
  if (target.empty()) return out;
  if (base.size() < kBlock) {
    emit_add(&out, target);
    return out;
  }
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;
  for (size_t off = 0; off + kBlock <= base.size(); off += kBlock) {
    auto& chain = index[hash_block(base.data() + off)];
    if (chain.size() < 8) chain.push_back(static_cast<uint32_t>(off));
  }
  size_t lit_start = 0;
  size_t i = 0;
  while (i + kBlock <= target.size()) {
    auto it = index.find(hash_block(target.data() + i));
    size_t best_len = 0;
    size_t best_off = 0;
    if (it != index.end()) {
      for (uint32_t cand : it->second) {
        size_t len = 0;
        const size_t max_len = std::min(base.size() - cand, target.size() - i);
        while (len < max_len && base[cand + len] == target[i + len]) ++len;
        if (len >= kBlock && len > best_len) {
          best_len = len;
          best_off = cand;
        }
      }
    }
    if (best_len >= kBlock) {
      size_t back = 0;
      while (best_off > back && i > lit_start + back &&
             base[best_off - back - 1] == target[i - back - 1]) {
        ++back;
      }
      emit_add(&out, target.substr(lit_start, i - back - lit_start));
      out.push_back('\x01');
      PutVarint64(&out, best_off - back);
      PutVarint64(&out, best_len + back);
      i += best_len;
      lit_start = i;
    } else {
      ++i;
    }
  }
  emit_add(&out, target.substr(lit_start));
  return out;
}

// `lines` lines of 40 random lowercase characters, newline-terminated:
// the shape of document node contents.
std::string RandomText(Random* rng, size_t lines) {
  std::string text;
  for (size_t l = 0; l < lines; ++l) {
    for (int c = 0; c < 40; ++c) {
      text.push_back(static_cast<char>('a' + rng->Uniform(26)));
    }
    text.push_back('\n');
  }
  return text;
}

TEST(ByteDeltaTest, EmptyToEmpty) { ExpectRoundTrip("", ""); }

TEST(ByteDeltaTest, EmptyBase) { ExpectRoundTrip("", "brand new contents"); }

TEST(ByteDeltaTest, EmptyTarget) { ExpectRoundTrip("old stuff here", ""); }

TEST(ByteDeltaTest, IdenticalContents) {
  std::string text(5000, 'x');
  for (size_t i = 0; i < text.size(); ++i) text[i] = char('A' + i % 53);
  std::string script = EncodeDelta(text, text);
  // Identical contents must compress to (almost) nothing.
  EXPECT_LT(script.size(), 64u);
  auto result = ApplyDelta(text, script);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, text);
}

TEST(ByteDeltaTest, SmallEditOnLargeBaseIsCompact) {
  Random rng(42);
  std::string base = rng.NextBytes(64 * 1024);
  std::string target = base;
  target.insert(1000, "INSERTED TEXT");
  target.erase(30000, 50);
  std::string script = EncodeDelta(base, target);
  // The delta should be a tiny fraction of the contents size (the
  // whole point of backward deltas).
  EXPECT_LT(script.size(), base.size() / 100);
  auto result = ApplyDelta(base, script);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, target);
}

TEST(ByteDeltaTest, CompletelyDifferentContents) {
  Random rng(1);
  ExpectRoundTrip(rng.NextBytes(4096), rng.NextBytes(4096));
}

TEST(ByteDeltaTest, BaseShorterThanBlock) {
  ExpectRoundTrip("short", "also short but different");
}

TEST(ByteDeltaTest, BaseShorterThanBlockSharingPrefixAndSuffix) {
  ExpectRoundTrip("0123456789", "0123456789abc");
  ExpectRoundTrip("0123456789", "abc0123456789");
  ExpectRoundTrip("0123456789", "01234xyz56789");
  ExpectRoundTrip("0123456789", "0129");
  ExpectRoundTrip("x", "xx");
}

// The prefix and suffix are measured against the shorter input, so on
// self-similar contents they can overlap; neither may claim a byte the
// other already covers.
TEST(ByteDeltaTest, PrefixAndSuffixOverlap) {
  ExpectRoundTrip("aaaa", "aaaaa");
  ExpectRoundTrip("aaaaa", "aaaa");
  ExpectRoundTrip("abcabc", "abc");
  ExpectRoundTrip("abc", "abcabc");
  ExpectRoundTrip(std::string(100, 'a'), std::string(101, 'a'));
  ExpectRoundTrip(std::string(101, 'a'), std::string(100, 'a'));
  std::string abab;
  for (int i = 0; i < 40; ++i) abab += "ab";
  ExpectRoundTrip(abab, abab.substr(2));
  ExpectRoundTrip(abab.substr(2), abab);
}

TEST(ByteDeltaTest, PureAppendPrependAndTruncate) {
  Random rng(7);
  const std::string base = RandomText(&rng, 100);
  const std::string extra = "a new line added by this version\n";
  for (const std::string& target :
       {base + extra, extra + base, base.substr(0, base.size() / 2),
        base.substr(base.size() / 2)}) {
    ExpectRoundTrip(base, target);
    EXPECT_LT(EncodeDelta(base, target).size(), 16 + extra.size());
  }
}

// Trimming the prefix must not hide the prefix's blocks from the
// middle: a block copied out of the prefix is still matched.
TEST(ByteDeltaTest, MovedBlockInsideTrimmedPrefix) {
  Random rng(11);
  const std::string prefix = rng.NextBytes(256);
  const std::string suffix = rng.NextBytes(256);
  const std::string base = prefix + rng.NextBytes(256) + suffix;
  const std::string target = prefix + prefix.substr(64, 64) + suffix;
  const std::string script = EncodeDelta(base, target);
  auto result = ApplyDelta(base, script);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, target);
  // Three COPYs (prefix, moved block, suffix) and no literal.
  EXPECT_LT(script.size(), 20u);
}

// A one-line edit of a 100-line (~4 KB) text costs about the line.
TEST(ByteDeltaTest, OneLineEditIsSmallAnywhere) {
  Random rng(5);
  const std::string base = RandomText(&rng, 100);
  for (size_t line : {0, 50, 99}) {
    std::string target = base;
    target.replace(line * 41, 40, "this line was edited in the new version");
    const std::string script = EncodeDelta(base, target);
    EXPECT_LT(script.size(), 64u) << "line " << line;
    auto result = ApplyDelta(base, script);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, target);
  }
}

TEST(ByteDeltaTest, BinaryDataWithEmbeddedNulsAndHighBytes) {
  std::string base("\x00\x01\xff\xfe", 4);
  base += std::string(100, '\0');
  std::string target = base + std::string("\xff\x00tail", 6);
  ExpectRoundTrip(base, target);
}

TEST(ByteDeltaTest, RepetitiveContentTerminates) {
  // Highly repetitive input stresses the hash-chain cap.
  std::string base(100000, 'a');
  std::string target(100001, 'a');
  target[50000] = 'b';
  ExpectRoundTrip(base, target);
}

TEST(ByteDeltaApplyTest, RejectsTruncatedScript) {
  std::string script = EncodeDelta("base contents 1234567890", "target 1234");
  for (size_t cut = 0; cut < script.size(); ++cut) {
    auto result =
        ApplyDelta("base contents 1234567890", script.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut=" << cut;
  }
}

TEST(ByteDeltaApplyTest, RejectsCopyOutOfBounds) {
  // Build a valid script against a big base, then replay it against a
  // smaller base: COPYs must be bounds-checked.
  std::string big(1000, 'r');
  for (size_t i = 0; i < big.size(); ++i) big[i] = char('a' + i % 26);
  std::string script = EncodeDelta(big, big);
  auto result = ApplyDelta("tiny", script);
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(ByteDeltaApplyTest, RejectsUnknownOpcode) {
  std::string script;
  script.push_back('\x05');  // target_len = 5 (varint)
  script.push_back('\x07');  // bogus opcode
  auto result = ApplyDelta("base", script);
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(ByteDeltaApplyTest, RejectsLengthMismatch) {
  // Header says 100 bytes; script produces 3.
  std::string script;
  script.push_back('\x64');  // varint 100
  script.push_back('\x00');  // ADD
  script.push_back('\x03');  // len 3
  script += "abc";
  auto result = ApplyDelta("", script);
  EXPECT_TRUE(result.status().IsCorruption());
}

// Property sweep: random bases with random edit scripts of varying
// aggressiveness always round-trip.
class ByteDeltaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ByteDeltaPropertyTest, RandomEditsRoundTrip) {
  Random rng(1000 + GetParam());
  std::string base = rng.NextBytes(rng.Uniform(20000));
  std::string target = base;
  const int edits = 1 + static_cast<int>(rng.Uniform(10));
  for (int e = 0; e < edits; ++e) {
    switch (rng.Uniform(3)) {
      case 0: {  // insert
        size_t pos = target.empty() ? 0 : rng.Uniform(target.size());
        target.insert(pos, rng.NextBytes(rng.Uniform(500)));
        break;
      }
      case 1: {  // delete
        if (target.empty()) break;
        size_t pos = rng.Uniform(target.size());
        size_t len = std::min<size_t>(rng.Uniform(500), target.size() - pos);
        target.erase(pos, len);
        break;
      }
      default: {  // overwrite
        if (target.empty()) break;
        size_t pos = rng.Uniform(target.size());
        size_t len = std::min<size_t>(rng.Uniform(100), target.size() - pos);
        for (size_t i = 0; i < len; ++i) {
          target[pos + i] = static_cast<char>(rng.Uniform(256));
        }
        break;
      }
    }
  }
  std::string script = EncodeDelta(base, target);
  auto result = ApplyDelta(base, script);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, target);
}

// One contiguous edit (insert, delete or replace) at a random place:
// the new encoder's script is never larger than the legacy encoder's,
// and the legacy scripts still apply.
TEST_P(ByteDeltaPropertyTest, SingleEditNoLargerThanLegacy) {
  Random rng(5000 + GetParam());
  const std::string base = GetParam() % 2 == 0
                               ? RandomText(&rng, 1 + rng.Uniform(120))
                               : rng.NextBytes(1 + rng.Uniform(6000));
  std::string target = base;
  const size_t pos = rng.Uniform(base.size() + 1);
  const size_t erase = std::min<size_t>(rng.Uniform(200), base.size() - pos);
  target.replace(pos, erase, rng.NextBytes(rng.Uniform(200)));

  const std::string script = EncodeDelta(base, target);
  const std::string legacy = LegacyEncodeDelta(base, target);
  EXPECT_LE(script.size(), legacy.size());
  for (const std::string* s : {&script, &legacy}) {
    auto result = ApplyDelta(base, *s);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, target);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteDeltaPropertyTest,
                         ::testing::Range(0, 200));

}  // namespace
}  // namespace delta
}  // namespace neptune
