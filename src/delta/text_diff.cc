#include "delta/text_diff.h"

#include <algorithm>
#include <unordered_map>

namespace neptune {
namespace delta {

namespace {

// SplitLines without copying: views into `text`.
std::vector<std::string_view> SplitLineViews(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// Interns lines[begin, end) to small integers so Myers compares ints,
// not strings.
std::vector<int> InternLines(const std::vector<std::string_view>& lines,
                             size_t begin, size_t end,
                             std::unordered_map<std::string_view, int>* ids) {
  std::vector<int> out;
  out.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    auto [it, inserted] =
        ids->emplace(lines[i], static_cast<int>(ids->size()));
    out.push_back(it->second);
  }
  return out;
}

// Myers O(ND) with a full trace for backtracking. Returns, for each
// line of a and b, whether it is part of the common subsequence.
void MyersMatch(const std::vector<int>& a, const std::vector<int>& b,
                std::vector<bool>* a_matched, std::vector<bool>* b_matched) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  a_matched->assign(a.size(), false);
  b_matched->assign(b.size(), false);
  if (n == 0 || m == 0) return;

  const int max_d = n + m;
  const int offset = max_d;
  std::vector<int> v(2 * max_d + 1, 0);
  std::vector<std::vector<int>> trace;

  int final_d = -1;
  for (int d = 0; d <= max_d && final_d < 0; ++d) {
    trace.push_back(v);
    for (int k = -d; k <= d; k += 2) {
      int x;
      if (k == -d || (k != d && v[offset + k - 1] < v[offset + k + 1])) {
        x = v[offset + k + 1];  // Down: insertion from b.
      } else {
        x = v[offset + k - 1] + 1;  // Right: deletion from a.
      }
      int y = x - k;
      while (x < n && y < m && a[x] == b[y]) {
        ++x;
        ++y;
      }
      v[offset + k] = x;
      if (x >= n && y >= m) {
        final_d = d;
        break;
      }
    }
  }

  // Backtrack, marking the diagonal (matched) lines.
  int x = n;
  int y = m;
  for (int d = final_d; d > 0 && (x > 0 || y > 0); --d) {
    const std::vector<int>& pv = trace[d];
    const int k = x - y;
    int prev_k;
    if (k == -d || (k != d && pv[offset + k - 1] < pv[offset + k + 1])) {
      prev_k = k + 1;
    } else {
      prev_k = k - 1;
    }
    const int prev_x = pv[offset + prev_k];
    const int prev_y = prev_x - prev_k;
    // Snake (diagonal) portion of this step.
    while (x > prev_x && y > prev_y) {
      --x;
      --y;
      (*a_matched)[x] = true;
      (*b_matched)[y] = true;
    }
    if (d > 0) {
      if (x == prev_x) {
        --y;  // Insertion.
      } else {
        --x;  // Deletion.
      }
    }
  }
  // d == 0 leading snake.
  while (x > 0 && y > 0) {
    --x;
    --y;
    (*a_matched)[x] = true;
    (*b_matched)[y] = true;
  }
}

}  // namespace

std::vector<std::string> SplitLines(std::string_view text) {
  const std::vector<std::string_view> views = SplitLineViews(text);
  return {views.begin(), views.end()};
}

std::vector<Difference> DiffLines(std::string_view old_text,
                                  std::string_view new_text) {
  const std::vector<std::string_view> old_lines = SplitLineViews(old_text);
  const std::vector<std::string_view> new_lines = SplitLineViews(new_text);
  const size_t n = old_lines.size();
  const size_t m = new_lines.size();

  // Lines shared at both ends are matched outright; Myers runs on the
  // middle only.
  size_t prefix = 0;
  while (prefix < n && prefix < m && old_lines[prefix] == new_lines[prefix]) {
    ++prefix;
  }
  size_t suffix = 0;
  while (suffix < n - prefix && suffix < m - prefix &&
         old_lines[n - 1 - suffix] == new_lines[m - 1 - suffix]) {
    ++suffix;
  }

  std::unordered_map<std::string_view, int> ids;
  const std::vector<int> a = InternLines(old_lines, prefix, n - suffix, &ids);
  const std::vector<int> b = InternLines(new_lines, prefix, m - suffix, &ids);
  std::vector<bool> a_mid;
  std::vector<bool> b_mid;
  MyersMatch(a, b, &a_mid, &b_mid);

  std::vector<bool> a_matched(n, true);
  std::vector<bool> b_matched(m, true);
  std::copy(a_mid.begin(), a_mid.end(), a_matched.begin() + prefix);
  std::copy(b_mid.begin(), b_mid.end(), b_matched.begin() + prefix);

  std::vector<Difference> diffs;
  size_t i = 0;
  size_t j = 0;
  while (i < n || j < m) {
    if (i < n && j < m && a_matched[i] && b_matched[j]) {
      ++i;
      ++j;
      continue;
    }
    // Gather a maximal run of unmatched lines on both sides.
    Difference d;
    d.old_begin = i;
    d.new_begin = j;
    while (i < n && !a_matched[i]) {
      d.old_lines.emplace_back(old_lines[i]);
      ++i;
    }
    while (j < m && !b_matched[j]) {
      d.new_lines.emplace_back(new_lines[j]);
      ++j;
    }
    d.old_end = i;
    d.new_end = j;
    if (d.old_lines.empty() && d.new_lines.empty()) continue;
    if (d.old_lines.empty()) {
      d.kind = DifferenceKind::kInsertion;
    } else if (d.new_lines.empty()) {
      d.kind = DifferenceKind::kDeletion;
    } else {
      d.kind = DifferenceKind::kReplacement;
    }
    diffs.push_back(std::move(d));
  }
  return diffs;
}

std::string FormatDifferences(const std::vector<Difference>& diffs) {
  std::string out;
  auto range = [](size_t begin, size_t end) {
    // 1-based inclusive, classic diff style.
    if (end == begin) return std::to_string(begin);  // position only
    if (end - begin == 1) return std::to_string(begin + 1);
    return std::to_string(begin + 1) + "," + std::to_string(end);
  };
  for (const Difference& d : diffs) {
    char op = d.kind == DifferenceKind::kInsertion   ? 'a'
              : d.kind == DifferenceKind::kDeletion ? 'd'
                                                    : 'c';
    out += range(d.old_begin, d.old_end);
    out += op;
    out += range(d.new_begin, d.new_end);
    out += '\n';
    for (const auto& line : d.old_lines) {
      out += "< " + line + "\n";
    }
    if (d.kind == DifferenceKind::kReplacement) out += "---\n";
    for (const auto& line : d.new_lines) {
      out += "> " + line + "\n";
    }
  }
  return out;
}

}  // namespace delta
}  // namespace neptune
