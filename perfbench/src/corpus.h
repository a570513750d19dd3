// Corpus: the seeded, CASE-style document graph a workload runs on, and
// the expected answers every reply is checked against.
//
// Documents are trees of `isPartOf` links (heap layout, `fanout`
// children per node, child c attached at offset c) plus `references`
// cross-links between documents. Node contents are line-structured
// text; every version after the first replaces `edit_lines` lines, so
// the engine's deltas and getNodeDifferences are real line diffs.
// Nodes carry contentType / status / owner / document attributes.

#ifndef NEPTUNE_PERFBENCH_CORPUS_H_
#define NEPTUNE_PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "ham/ham.h"

namespace perfbench {

namespace ham = neptune::ham;

struct Shape {
  int docs = 8;
  int nodes_per_doc = 64;
  int fanout = 4;
  int lines = 24;        // lines per node
  int line_chars = 40;   // characters per line, before the newline
  int versions = 1;      // versions built for a versioned node
  int history_every = 8; // every k-th node is versioned (1 = all)
  int edit_lines = 3;    // lines one version replaces
  int cross_links = 1;   // references per node, to other documents
};

// The attribute vocabulary (CASE-style node kinds and states).
extern const char* const kContentTypes[6];
extern const char* const kStatuses[4];
extern const char* const kOwners[8];

struct NodeSpec {
  int doc = 0;
  int parent = -1;            // corpus index of the isPartOf parent
  std::vector<int> children;  // in attachment-offset order
  int content_type = 0;       // index into kContentTypes
  int status = 0;             // index into kStatuses
  int owner = 0;              // index into kOwners
  int versions = 1;           // versions built at setup
  std::vector<std::string> base_lines;
  // edits[k-1] turns version k-1 into version k: (line, new text).
  std::vector<std::vector<std::pair<int, std::string>>> edits;

  // Expected answers, oldest version first.
  std::vector<uint64_t> digests;
  // Filled from the built store.
  ham::NodeIndex index = 0;
  std::vector<ham::Time> times;
};

// Picks a version in [0, n) favouring the newest `recent` ones: 80%
// of draws fall among them, the rest are uniform over all versions.
int PickVersion(neptune::Random* rng, int n, int recent);

// One getNodeDifferences probe with its expected reply digest.
struct DiffCase {
  int node = 0;
  int from = 0;  // version numbers, from < to
  int to = 0;
  uint64_t digest = 0;
};

// Attribute indices interned in a built store.
struct AttrIds {
  ham::AttributeIndex content_type = 0;
  ham::AttributeIndex status = 0;
  ham::AttributeIndex owner = 0;
  ham::AttributeIndex document = 0;
  ham::AttributeIndex type = 0;  // link type
};

class Corpus {
 public:
  Corpus(const Shape& shape, uint64_t seed);

  const Shape& shape() const { return shape_; }
  const std::vector<NodeSpec>& nodes() const { return nodes_; }

  // Text of `node` at version `version` (0-based).
  std::string Text(int node, int version) const;
  static std::string JoinLines(const std::vector<std::string>& lines);

  // Computes per-version digests and a pool of `diff_cases` diff probes
  // (drawn favouring recent versions) with their expected digests.
  void ComputeExpectations(int diff_cases, neptune::Random* rng);
  const std::vector<DiffCase>& diff_cases() const { return diff_cases_; }

  // Builds the corpus into the open graph `ctx` through the public API
  // in batched transactions (`sync` commits as the engine is
  // configured), then records node indices and version times.
  neptune::Status Build(ham::HamInterface* ham, ham::Context ctx,
                        AttrIds* attrs);
  // Re-reads node indices' version times from a (re)opened store.
  neptune::Status LoadVersionTimes(ham::HamInterface* ham, ham::Context ctx);

  // Expected answers for queries and traversals.
  // Query q is `document = docD & contentType = X` ("the design nodes
  // of document 17"), D = q / 6, X = q % 6; the answer is the sorted
  // node indices.
  int query_count() const { return shape_.docs * 6; }
  static std::string QueryText(int q);
  std::vector<ham::NodeIndex> QueryAnswer(int q) const;
  // linearizeGraph from `node` along isPartOf: preorder node indices.
  std::vector<ham::NodeIndex> SubtreeOrder(int node) const;
  // Nodes whose subtree is traversed: the children of document roots.
  const std::vector<int>& traverse_roots() const { return traverse_roots_; }
  // Nodes built with more than one version.
  const std::vector<int>& versioned() const { return versioned_; }

  // Bytes of user data written at setup: every version's contents plus
  // attribute values.
  uint64_t user_bytes() const { return user_bytes_; }

  // Digest of a getNodeDifferences reply (canonical text form).
  static uint64_t DiffDigest(
      const std::vector<neptune::delta::Difference>& diffs);

  // Deliberately wrong expectations (self-test of the reply checks).
  void Corrupt();

 private:
  std::string RandomLine(neptune::Random* rng, int node, int version) const;

  Shape shape_;
  std::vector<NodeSpec> nodes_;
  std::vector<int> traverse_roots_;
  std::vector<int> versioned_;
  std::vector<std::pair<int, int>> cross_links_;
  std::vector<DiffCase> diff_cases_;
  uint64_t user_bytes_ = 0;
  bool corrupt_ = false;
};

}  // namespace perfbench

#endif  // NEPTUNE_PERFBENCH_CORPUS_H_
