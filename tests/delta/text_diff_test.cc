#include "delta/text_diff.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace neptune {
namespace delta {
namespace {

// Replays a difference list against the old lines; the result must
// equal the new lines. This is the key invariant DiffLines must hold.
std::vector<std::string> ApplyDifferences(
    const std::vector<std::string>& old_lines,
    const std::vector<Difference>& diffs) {
  std::vector<std::string> out;
  size_t old_pos = 0;
  for (const Difference& d : diffs) {
    while (old_pos < d.old_begin) out.push_back(old_lines[old_pos++]);
    old_pos = d.old_end;  // skip deleted/replaced lines
    for (const auto& line : d.new_lines) out.push_back(line);
  }
  while (old_pos < old_lines.size()) out.push_back(old_lines[old_pos++]);
  return out;
}

TEST(SplitLinesTest, BasicAndTrailingNewline) {
  EXPECT_EQ(SplitLines(""), std::vector<std::string>{});
  EXPECT_EQ(SplitLines("a"), std::vector<std::string>{"a"});
  EXPECT_EQ(SplitLines("a\n"), std::vector<std::string>{"a"});
  EXPECT_EQ(SplitLines("a\nb"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitLines("a\n\nb\n"), (std::vector<std::string>{"a", "", "b"}));
}

TEST(DiffLinesTest, IdenticalTextsHaveNoDifferences) {
  EXPECT_TRUE(DiffLines("a\nb\nc\n", "a\nb\nc\n").empty());
  EXPECT_TRUE(DiffLines("", "").empty());
}

TEST(DiffLinesTest, PureInsertion) {
  auto diffs = DiffLines("a\nc\n", "a\nb\nc\n");
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].kind, DifferenceKind::kInsertion);
  EXPECT_EQ(diffs[0].new_lines, std::vector<std::string>{"b"});
  EXPECT_EQ(diffs[0].old_begin, diffs[0].old_end);
}

TEST(DiffLinesTest, PureDeletion) {
  auto diffs = DiffLines("a\nb\nc\n", "a\nc\n");
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].kind, DifferenceKind::kDeletion);
  EXPECT_EQ(diffs[0].old_lines, std::vector<std::string>{"b"});
  EXPECT_EQ(diffs[0].new_begin, diffs[0].new_end);
}

TEST(DiffLinesTest, Replacement) {
  auto diffs = DiffLines("a\nOLD\nc\n", "a\nNEW\nc\n");
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].kind, DifferenceKind::kReplacement);
  EXPECT_EQ(diffs[0].old_lines, std::vector<std::string>{"OLD"});
  EXPECT_EQ(diffs[0].new_lines, std::vector<std::string>{"NEW"});
}

TEST(DiffLinesTest, EverythingChanged) {
  auto diffs = DiffLines("x\ny\n", "p\nq\nr\n");
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].kind, DifferenceKind::kReplacement);
}

TEST(DiffLinesTest, FromEmptyIsOneInsertion) {
  auto diffs = DiffLines("", "a\nb\n");
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].kind, DifferenceKind::kInsertion);
  EXPECT_EQ(diffs[0].new_lines.size(), 2u);
}

TEST(DiffLinesTest, ToEmptyIsOneDeletion) {
  auto diffs = DiffLines("a\nb\n", "");
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].kind, DifferenceKind::kDeletion);
}

TEST(DiffLinesTest, MultipleHunks) {
  auto diffs = DiffLines("1\n2\n3\n4\n5\n6\n", "1\nTWO\n3\n4\n6\nSEVEN\n");
  // 2->TWO (replacement), 5 deleted, SEVEN appended.
  ASSERT_GE(diffs.size(), 2u);
  auto applied = ApplyDifferences(SplitLines("1\n2\n3\n4\n5\n6\n"), diffs);
  EXPECT_EQ(applied, SplitLines("1\nTWO\n3\n4\n6\nSEVEN\n"));
}

TEST(DiffLinesTest, RepeatedLinesStillReplayCorrectly) {
  const std::string old_text = "a\na\na\nb\na\n";
  const std::string new_text = "a\nb\na\na\nb\n";
  auto diffs = DiffLines(old_text, new_text);
  auto applied = ApplyDifferences(SplitLines(old_text), diffs);
  EXPECT_EQ(applied, SplitLines(new_text));
}

TEST(FormatDifferencesTest, ClassicDiffShape) {
  auto diffs = DiffLines("a\nOLD\nc\n", "a\nNEW\nc\n");
  std::string text = FormatDifferences(diffs);
  EXPECT_NE(text.find("< OLD"), std::string::npos);
  EXPECT_NE(text.find("> NEW"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  EXPECT_NE(text.find('c'), std::string::npos);
}

TEST(DiffLinesTest, MinimalityOnSingleChange) {
  // A one-line change in a 200-line file must produce exactly one
  // single-line hunk, not resynchronize the whole file.
  std::string old_text;
  std::string new_text;
  for (int i = 0; i < 200; ++i) {
    std::string line = "line " + std::to_string(i) + "\n";
    old_text += line;
    new_text += (i == 100) ? "CHANGED\n" : line;
  }
  auto diffs = DiffLines(old_text, new_text);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].old_lines.size(), 1u);
  EXPECT_EQ(diffs[0].new_lines.size(), 1u);
  EXPECT_EQ(diffs[0].old_begin, 100u);
}

// Property sweep: random line edits always replay.
class TextDiffPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TextDiffPropertyTest, RandomEditsReplay) {
  Random rng(777 + GetParam());
  std::vector<std::string> old_lines;
  const int n = 1 + static_cast<int>(rng.Uniform(120));
  for (int i = 0; i < n; ++i) {
    // Small alphabet of line values forces repeated lines — the hard
    // case for LCS-based diffs.
    old_lines.push_back("line-" + std::to_string(rng.Uniform(10)));
  }
  std::vector<std::string> new_lines = old_lines;
  const int edits = static_cast<int>(rng.Uniform(20));
  for (int e = 0; e < edits; ++e) {
    switch (rng.Uniform(3)) {
      case 0:
        new_lines.insert(
            new_lines.begin() +
                (new_lines.empty() ? 0 : rng.Uniform(new_lines.size() + 1)),
            "new-" + std::to_string(rng.Uniform(10)));
        break;
      case 1:
        if (!new_lines.empty()) {
          new_lines.erase(new_lines.begin() + rng.Uniform(new_lines.size()));
        }
        break;
      default:
        if (!new_lines.empty()) {
          new_lines[rng.Uniform(new_lines.size())] =
              "mod-" + std::to_string(rng.Uniform(10));
        }
        break;
    }
  }
  auto join = [](const std::vector<std::string>& lines) {
    std::string out;
    for (const auto& l : lines) {
      out += l;
      out += '\n';
    }
    return out;
  };
  auto diffs = DiffLines(join(old_lines), join(new_lines));
  EXPECT_EQ(ApplyDifferences(old_lines, diffs), new_lines);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextDiffPropertyTest, ::testing::Range(0, 40));

// Longest common subsequence length by the textbook O(nm) table.
size_t BruteForceLcs(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  std::vector<std::vector<size_t>> t(a.size() + 1,
                                     std::vector<size_t>(b.size() + 1, 0));
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      t[i][j] = a[i - 1] == b[j - 1] ? t[i - 1][j - 1] + 1
                                     : std::max(t[i - 1][j], t[i][j - 1]);
    }
  }
  return t[a.size()][b.size()];
}

// DiffLines is minimal: it changes exactly the lines outside a longest
// common subsequence, however much prefix and suffix the texts share.
class TextDiffMinimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(TextDiffMinimalityTest, ChangedLinesMatchBruteForceLcs) {
  Random rng(4242 + GetParam());
  auto random_lines = [&](size_t count) {
    std::vector<std::string> lines;
    for (size_t i = 0; i < count; ++i) {
      lines.push_back("l" + std::to_string(rng.Uniform(6)));
    }
    return lines;
  };
  const std::vector<std::string> head = random_lines(rng.Uniform(30));
  const std::vector<std::string> tail = random_lines(rng.Uniform(30));
  std::vector<std::string> old_lines = head;
  std::vector<std::string> new_lines = head;
  for (const std::string& line : random_lines(rng.Uniform(40))) {
    old_lines.push_back(line);
  }
  for (const std::string& line : random_lines(rng.Uniform(40))) {
    new_lines.push_back(line);
  }
  old_lines.insert(old_lines.end(), tail.begin(), tail.end());
  new_lines.insert(new_lines.end(), tail.begin(), tail.end());

  auto join = [](const std::vector<std::string>& lines) {
    std::string out;
    for (const auto& l : lines) out += l + "\n";
    return out;
  };
  auto diffs = DiffLines(join(old_lines), join(new_lines));
  size_t changed = 0;
  for (const Difference& d : diffs) {
    changed += d.old_lines.size() + d.new_lines.size();
  }
  EXPECT_EQ(changed, old_lines.size() + new_lines.size() -
                         2 * BruteForceLcs(old_lines, new_lines));
  EXPECT_EQ(ApplyDifferences(old_lines, diffs), new_lines);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextDiffMinimalityTest,
                         ::testing::Range(0, 100));

}  // namespace
}  // namespace delta
}  // namespace neptune
