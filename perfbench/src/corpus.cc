#include "corpus.h"

#include <algorithm>
#include <functional>

#include "delta/text_diff.h"
#include "measure.h"

namespace perfbench {

using neptune::Random;
using neptune::Status;

const char* const kContentTypes[6] = {"requirement", "design", "code",
                                      "test",        "manual", "note"};
const char* const kStatuses[4] = {"draft", "review", "approved", "released"};
const char* const kOwners[8] = {"ann", "bob", "cho", "dev",
                                "eli", "fay", "gus", "hal"};

namespace {

constexpr const char* kWords[16] = {
    "module", "interface", "signal", "clock",  "buffer", "adder",
    "latch",  "register",  "timing", "bus",    "port",   "gate",
    "cell",   "netlist",   "layout", "verify"};

// Operations per build transaction: large enough that setup is
// CPU-bound rather than fsync-bound.
constexpr int kBatchOps = 2000;

}  // namespace

int PickVersion(Random* rng, int n, int recent) {
  recent = std::min(recent, n);
  if (rng->Uniform(5) != 0) {
    return n - 1 - static_cast<int>(rng->Uniform(recent));
  }
  return static_cast<int>(rng->Uniform(n));
}

std::string Corpus::RandomLine(Random* rng, int node, int version) const {
  std::string line = "n" + std::to_string(node) + "v" +
                     std::to_string(version) + ":";
  while (static_cast<int>(line.size()) < shape_.line_chars) {
    line += ' ';
    line += kWords[rng->Uniform(16)];
  }
  line.resize(shape_.line_chars);
  return line;
}

Corpus::Corpus(const Shape& shape, uint64_t seed) : shape_(shape) {
  Random rng(seed);
  const int per_doc = shape.nodes_per_doc;
  nodes_.resize(static_cast<size_t>(shape.docs) * per_doc);
  for (int d = 0; d < shape.docs; ++d) {
    for (int i = 0; i < per_doc; ++i) {
      const int id = d * per_doc + i;
      NodeSpec& node = nodes_[id];
      node.doc = d;
      if (i > 0) {
        node.parent = d * per_doc + (i - 1) / shape.fanout;
        nodes_[node.parent].children.push_back(id);
      }
      if (i >= 1 && i <= shape.fanout) traverse_roots_.push_back(id);
      node.content_type = static_cast<int>(rng.Uniform(6));
      node.status = static_cast<int>(rng.Uniform(4));
      node.owner = static_cast<int>(rng.Uniform(8));
      node.versions = id % shape.history_every == 0 ? shape.versions : 1;
      if (node.versions > 1) versioned_.push_back(id);
      for (int l = 0; l < shape.lines; ++l) {
        node.base_lines.push_back(RandomLine(&rng, id, 0));
      }
      for (int v = 1; v < node.versions; ++v) {
        std::vector<std::pair<int, std::string>> edit;
        for (int e = 0; e < shape.edit_lines; ++e) {
          edit.emplace_back(static_cast<int>(rng.Uniform(shape.lines)),
                            RandomLine(&rng, id, v));
        }
        node.edits.push_back(std::move(edit));
      }
    }
  }
  for (int id = 0; id < static_cast<int>(nodes_.size()); ++id) {
    for (int j = 0; j < shape.cross_links && shape.docs > 1; ++j) {
      int doc = static_cast<int>(rng.Uniform(shape.docs - 1));
      if (doc >= nodes_[id].doc) ++doc;
      cross_links_.emplace_back(
          id, doc * per_doc + static_cast<int>(rng.Uniform(per_doc)));
    }
  }
}

std::string Corpus::JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string Corpus::Text(int node, int version) const {
  const NodeSpec& spec = nodes_[node];
  std::vector<std::string> lines = spec.base_lines;
  for (int v = 1; v <= version; ++v) {
    for (const auto& [line, text] : spec.edits[v - 1]) lines[line] = text;
  }
  return JoinLines(lines);
}

uint64_t Corpus::DiffDigest(
    const std::vector<neptune::delta::Difference>& diffs) {
  return Digest(neptune::delta::FormatDifferences(diffs));
}

void Corpus::ComputeExpectations(int diff_cases, Random* rng) {
  user_bytes_ = 0;
  for (NodeSpec& node : nodes_) {
    node.digests.clear();
    std::vector<std::string> lines = node.base_lines;
    for (int v = 0; v < node.versions; ++v) {
      if (v > 0) {
        for (const auto& [line, text] : node.edits[v - 1]) lines[line] = text;
      }
      const std::string text = JoinLines(lines);
      node.digests.push_back(Digest(text));
      user_bytes_ += text.size();
    }
    user_bytes_ += std::string(kContentTypes[node.content_type]).size() +
                   std::string(kStatuses[node.status]).size() +
                   std::string(kOwners[node.owner]).size() +
                   ("doc" + std::to_string(node.doc)).size();
    if (node.parent >= 0) user_bytes_ += std::string("isPartOf").size();
  }
  user_bytes_ += cross_links_.size() * std::string("references").size();

  diff_cases_.clear();
  if (versioned_.empty()) return;
  for (int i = 0; i < diff_cases; ++i) {
    DiffCase c;
    c.node = versioned_[rng->Uniform(versioned_.size())];
    const int n = nodes_[c.node].versions;
    c.to = std::max(1, PickVersion(rng, n, 4));
    c.from = std::max(0, c.to - 1 - static_cast<int>(rng->Uniform(3)));
    c.digest = DiffDigest(neptune::delta::DiffLines(Text(c.node, c.from),
                                                    Text(c.node, c.to)));
    diff_cases_.push_back(c);
  }
}

Status Corpus::Build(ham::HamInterface* ham, ham::Context ctx,
                     AttrIds* attrs) {
  auto intern = [&](const char* name, ham::AttributeIndex* out) -> Status {
    auto index = ham->GetAttributeIndex(ctx, name);
    if (!index.ok()) return index.status();
    *out = *index;
    return Status::OK();
  };
  NEPTUNE_RETURN_IF_ERROR(intern("contentType", &attrs->content_type));
  NEPTUNE_RETURN_IF_ERROR(intern("status", &attrs->status));
  NEPTUNE_RETURN_IF_ERROR(intern("owner", &attrs->owner));
  NEPTUNE_RETURN_IF_ERROR(intern("document", &attrs->document));
  NEPTUNE_RETURN_IF_ERROR(intern("type", &attrs->type));

  int ops = 0;
  NEPTUNE_RETURN_IF_ERROR(ham->BeginTransaction(ctx));
  // Counts one operation; rolls the batch transaction when full.
  auto step = [&](const Status& s) -> Status {
    NEPTUNE_RETURN_IF_ERROR(s);
    if (++ops % kBatchOps == 0) {
      NEPTUNE_RETURN_IF_ERROR(ham->CommitTransaction(ctx));
      NEPTUNE_RETURN_IF_ERROR(ham->BeginTransaction(ctx));
    }
    return Status::OK();
  };

  // Nodes with their first version and attributes.
  for (size_t id = 0; id < nodes_.size(); ++id) {
    NodeSpec& node = nodes_[id];
    auto added = ham->AddNode(ctx, /*keep_history=*/true);
    if (!added.ok()) return added.status();
    node.index = added->node;
    NEPTUNE_RETURN_IF_ERROR(step(Status::OK()));
    NEPTUNE_RETURN_IF_ERROR(step(ham->SetNodeAttributeValue(
        ctx, node.index, attrs->content_type,
        kContentTypes[node.content_type])));
    NEPTUNE_RETURN_IF_ERROR(step(ham->SetNodeAttributeValue(
        ctx, node.index, attrs->status, kStatuses[node.status])));
    NEPTUNE_RETURN_IF_ERROR(step(ham->SetNodeAttributeValue(
        ctx, node.index, attrs->owner, kOwners[node.owner])));
    NEPTUNE_RETURN_IF_ERROR(step(ham->SetNodeAttributeValue(
        ctx, node.index, attrs->document, "doc" + std::to_string(node.doc))));
    // After the attributes, so every version's time sees them.
    NEPTUNE_RETURN_IF_ERROR(step(ham->ModifyNode(
        ctx, node.index, added->creation_time, JoinLines(node.base_lines), {},
        "v0")));
  }

  // Later versions, round by round so each transaction spans many nodes
  // (done before linking, so modifyNode needs no attachments).
  std::vector<std::vector<std::string>> work(nodes_.size());
  for (int id : versioned_) work[id] = nodes_[id].base_lines;
  for (int v = 1; v < shape_.versions; ++v) {
    for (int id : versioned_) {
      NodeSpec& node = nodes_[id];
      for (const auto& [line, text] : node.edits[v - 1]) work[id][line] = text;
      auto stamp = ham->GetNodeTimeStamp(ctx, node.index);
      if (!stamp.ok()) return stamp.status();
      NEPTUNE_RETURN_IF_ERROR(step(ham->ModifyNode(
          ctx, node.index, *stamp, JoinLines(work[id]), {},
          "v" + std::to_string(v))));
    }
  }

  // isPartOf trees (child c at offset c of its parent), then
  // cross-document references after the children's offsets.
  auto link = [&](int from, uint64_t position, int to,
                  const char* type) -> Status {
    ham::LinkPt a{nodes_[from].index, position, 0, true};
    ham::LinkPt b{nodes_[to].index, 0, 0, true};
    auto added = ham->AddLink(ctx, a, b);
    if (!added.ok()) return added.status();
    NEPTUNE_RETURN_IF_ERROR(step(Status::OK()));
    return step(
        ham->SetLinkAttributeValue(ctx, added->link, attrs->type, type));
  };
  for (size_t id = 0; id < nodes_.size(); ++id) {
    const std::vector<int>& kids = nodes_[id].children;
    for (size_t c = 0; c < kids.size(); ++c) {
      NEPTUNE_RETURN_IF_ERROR(
          link(static_cast<int>(id), c, kids[c], "isPartOf"));
    }
  }
  for (size_t j = 0; j < cross_links_.size(); ++j) {
    const auto& [from, to] = cross_links_[j];
    NEPTUNE_RETURN_IF_ERROR(link(from, 1000 + j, to, "references"));
  }
  return ham->CommitTransaction(ctx);
}

Status Corpus::LoadVersionTimes(ham::HamInterface* ham, ham::Context ctx) {
  for (NodeSpec& node : nodes_) {
    auto versions = ham->GetNodeVersions(ctx, node.index);
    if (!versions.ok()) return versions.status();
    const auto& major = versions->major;
    if (major.size() < static_cast<size_t>(node.versions)) {
      return Status::Corruption("node " + std::to_string(node.index) +
                                " has too few versions");
    }
    node.times.clear();
    for (size_t i = major.size() - node.versions; i < major.size(); ++i) {
      node.times.push_back(major[i].time);
    }
  }
  return Status::OK();
}

std::string Corpus::QueryText(int q) {
  return "document = doc" + std::to_string(q / 6) +
         " & contentType = " + kContentTypes[q % 6];
}

std::vector<ham::NodeIndex> Corpus::QueryAnswer(int q) const {
  std::vector<ham::NodeIndex> out;
  for (const NodeSpec& node : nodes_) {
    if (node.doc == q / 6 && node.content_type == q % 6) {
      out.push_back(node.index);
    }
  }
  std::sort(out.begin(), out.end());
  if (corrupt_) out.push_back(0);
  return out;
}

std::vector<ham::NodeIndex> Corpus::SubtreeOrder(int node) const {
  std::vector<ham::NodeIndex> out;
  std::function<void(int)> visit = [&](int id) {
    out.push_back(nodes_[id].index);
    for (int child : nodes_[id].children) visit(child);
  };
  visit(node);
  if (corrupt_) std::reverse(out.begin(), out.end());
  return out;
}

void Corpus::Corrupt() {
  corrupt_ = true;
  for (NodeSpec& node : nodes_) {
    for (uint64_t& d : node.digests) d ^= 1;
  }
  for (DiffCase& c : diff_cases_) c.digest ^= 1;
}

}  // namespace perfbench
