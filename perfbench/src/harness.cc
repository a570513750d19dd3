#include "harness.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "storage/env.h"

namespace perfbench {

using neptune::Status;

const char* const kClassNames[kNumClasses] = {"open", "query", "traverse",
                                              "diff", "commit"};

namespace {

// Root span names, one per op class (span names must outlive the run).
const char* const kRootSpans[kNumClasses] = {"op.open", "op.query",
                                             "op.traverse", "op.diff",
                                             "op.checkin"};
constexpr size_t kMaxLoggedErrors = 5;

}  // namespace

// ------------------------------------------------------ VersionTable

VersionTable::VersionTable(const Corpus& corpus)
    : entries_(std::make_unique<Entry[]>(corpus.nodes().size())) {
  for (size_t i = 0; i < corpus.nodes().size(); ++i) {
    entries_[i].digests.push_back(corpus.nodes()[i].digests.back());
  }
}

void VersionTable::Add(int node, uint64_t digest) {
  std::lock_guard<std::mutex> lock(entries_[node].mu);
  entries_[node].digests.push_back(digest);
}

bool VersionTable::Changed(int node) const {
  std::lock_guard<std::mutex> lock(entries_[node].mu);
  return entries_[node].digests.size() > 1;
}

bool VersionTable::Contains(int node, uint64_t digest) const {
  std::lock_guard<std::mutex> lock(entries_[node].mu);
  const auto& d = entries_[node].digests;
  return std::find(d.begin(), d.end(), digest) != d.end();
}

// ------------------------------------------------------------ Client

Client::Client(Shared* shared, int id, Role role, uint64_t seed)
    : shared_(shared), id_(id), role_(role), rng_(seed) {}

Status Client::Connect(bool routed) {
  rpc::RemoteHam::Options options;
  if (routed) {
    options.follower_host = "localhost";
    options.follower_port = shared_->follower_port;
    options.follower_remap_from = shared_->primary_dir;
    options.follower_remap_to = shared_->follower_dir;
  }
  auto remote = rpc::RemoteHam::Connect("localhost", shared_->port, options);
  if (!remote.ok()) return remote.status();
  remote_ = std::move(*remote);
  auto ctx = remote_->OpenGraph(shared_->project, "localhost",
                                shared_->primary_dir);
  if (!ctx.ok()) return ctx.status();
  ctx_ = *ctx;
  target_ = remote_.get();
  trace_ = shared_->tracer.NewBuffer();
  return Status::OK();
}

Status Client::ConnectLocal(ham::HamInterface* engine) {
  auto ctx = engine->OpenGraph(shared_->project, "local", shared_->primary_dir);
  if (!ctx.ok()) return ctx.status();
  ctx_ = *ctx;
  target_ = engine;
  layer_ = "ham";
  trace_ = shared_->tracer.NewBuffer();
  return Status::OK();
}

void Client::Fail(const std::string& what) {
  last_failed_ = true;
  if (stats_.errors.size() < kMaxLoggedErrors) {
    stats_.errors.push_back("client " + std::to_string(id_) + ": " + what);
  }
}

OpClass Client::PickReaderOp() {
  if (only_ >= 0) return static_cast<OpClass>(only_);
  const int* w = shared_->spec->weight;
  int total = 0;
  for (int c = 0; c < kCommit; ++c) total += w[c];
  int pick = static_cast<int>(rng_.Uniform(total));
  for (int c = 0; c < kCommit; ++c) {
    if (pick < w[c]) return static_cast<OpClass>(c);
    pick -= w[c];
  }
  return kOpen;
}

bool Client::RunOp(OpClass op, double* us) {
  last_failed_ = false;
  ScopedSpan root(&shared_->tracer, trace_, kRootSpans[op], "bench");
  switch (op) {
    case kOpen: return Open(us);
    case kQuery: return Query(us);
    case kTraverse: return Traverse(us);
    case kDiff: return Diff(us);
    default: return Checkin(us);
  }
}

void Client::Ping() {
  if (remote_ == nullptr) return;
  ScopedSpan root(&shared_->tracer, trace_, "op.ping", "bench");
  ScopedSpan span(&shared_->tracer, trace_, "ping", "rpc");
  Status s = remote_->Ping();
  if (!s.ok()) Fail("ping: " + s.ToString());
}

void Client::Run(Window* window) {
  bool in_window = false;
  uint64_t cpu_start = 0;
  uint64_t n = 0;
  while (!window->stop.load(std::memory_order_relaxed)) {
    const uint64_t start = NowNs();
    if (!in_window && start >= window->start_ns.load()) {
      in_window = true;
      cpu_start = ThreadCpuNs();
    }
    if (in_window && stats_.cpu_ns == 0 && start > window->end_ns.load()) {
      stats_.cpu_ns = ThreadCpuNs() - cpu_start;
    }
    const bool ping = shared_->ping_every > 0 && ++n % shared_->ping_every == 0;
    const OpClass op = role_ == Role::kWriter ? kCommit : PickReaderOp();
    double us = 0;
    bool ok = true;
    if (ping) {
      last_failed_ = false;
      Ping();
      ok = !last_failed_;
    } else {
      ok = RunOp(op, &us);
    }
    const uint64_t end = NowNs();
    const bool measured =
        start >= window->start_ns.load() && end <= window->end_ns.load();
    if (!ok) ++stats_.failed;  // any failure fails the run, measured or not
    if (!ping) ++stats_.attempted;
    if (!measured || ping) continue;
    ++stats_.ops;
    window->completed.fetch_add(1, std::memory_order_relaxed);
    if (!ok) continue;
    stats_.latency[op].Add(us);
    if (op == kCommit) window->checkins.fetch_add(1, std::memory_order_relaxed);
  }
  if (in_window && stats_.cpu_ns == 0) {
    stats_.cpu_ns = ThreadCpuNs() - cpu_start;
  }
}

void Client::Probe(OpClass op, int count) {
  for (int i = 0; i < count; ++i) {
    double us = 0;
    const bool ok = RunOp(op, &us);
    ++stats_.attempted;
    ++stats_.ops;
    if (ok) {
      stats_.latency[op].Add(us);
    } else {
      ++stats_.failed;
    }
  }
}

namespace {

double ElapsedUs(uint64_t start_ns) { return (NowNs() - start_ns) / 1000.0; }

}  // namespace

bool Client::Open(double* us) {
  const Corpus& corpus = *shared_->corpus;
  int node = 0;
  int version = -1;  // -1: current
  if (!shared_->changing_nodes.empty()) {
    const auto& nodes = shared_->changing_nodes;
    node = nodes[rng_.Uniform(nodes.size())];
  } else if (shared_->spec->historical) {
    node = corpus.versioned()[rng_.Uniform(corpus.versioned().size())];
    version = PickVersion(&rng_, corpus.nodes()[node].versions - 1, 4);
  } else {
    node = static_cast<int>(rng_.Uniform(corpus.nodes().size()));
  }
  const NodeSpec& spec = corpus.nodes()[node];
  const ham::Time time = version < 0 ? 0 : spec.times[version];
  const AttrIds& a = shared_->attrs;
  const uint64_t start = NowNs();
  auto opened = [&] {
    ScopedSpan span(&shared_->tracer, trace_, "openNode", layer_);
    return target_->OpenNode(ctx_, spec.index, time,
                             {a.content_type, a.status, a.owner});
  }();
  *us = ElapsedUs(start);
  if (!opened.ok()) {
    Fail("openNode: " + opened.status().ToString());
    return false;
  }
  // Current reads may see any version a writer checked in (the table
  // starts with the setup's last version); historical reads are exact.
  const uint64_t digest = Digest(opened->contents);
  const bool contents_ok = version < 0
                               ? shared_->versions->Contains(node, digest)
                               : digest == spec.digests[version];
  if (!contents_ok) {
    Fail("openNode " + std::to_string(spec.index) + " returned contents "
         "of no expected version");
    return false;
  }
  const auto& values = opened->attribute_values;
  const bool rewritten = version < 0 && shared_->versions->Changed(node);
  const bool status_ok =
      values.size() == 3 && values[1].has_value() &&
      (rewritten ? std::any_of(std::begin(kStatuses), std::end(kStatuses),
                               [&](const char* s) { return *values[1] == s; })
                 : *values[1] == kStatuses[spec.status]);
  if (!status_ok || !values[0] ||
      *values[0] != kContentTypes[spec.content_type] || !values[2] ||
      *values[2] != kOwners[spec.owner]) {
    Fail("openNode " + std::to_string(spec.index) + " attribute mismatch");
    return false;
  }
  return true;
}

bool Client::Query(double* us) {
  const int q = static_cast<int>(rng_.Uniform(shared_->query_answers.size()));
  const std::string text = Corpus::QueryText(q);
  const uint64_t start = NowNs();
  auto result = [&] {
    ScopedSpan span(&shared_->tracer, trace_, "getGraphQuery", layer_);
    return target_->GetGraphQuery(ctx_, 0, text, "false", {}, {});
  }();
  *us = ElapsedUs(start);
  if (!result.ok()) {
    Fail("getGraphQuery: " + result.status().ToString());
    return false;
  }
  std::vector<ham::NodeIndex> got;
  for (const auto& n : result->nodes) got.push_back(n.node);
  std::sort(got.begin(), got.end());
  if (got != shared_->query_answers[q]) {
    Fail("getGraphQuery '" + text + "' returned " +
         std::to_string(got.size()) + " nodes, not the brute-force answer");
    return false;
  }
  return true;
}

bool Client::Traverse(double* us) {
  const auto& roots = shared_->corpus->traverse_roots();
  const size_t k = rng_.Uniform(roots.size());
  const ham::NodeIndex start_node = shared_->corpus->nodes()[roots[k]].index;
  const uint64_t start = NowNs();
  auto result = [&] {
    ScopedSpan span(&shared_->tracer, trace_, "linearizeGraph", layer_);
    return target_->LinearizeGraph(ctx_, start_node, 0, "", "type = isPartOf",
                                   {}, {});
  }();
  *us = ElapsedUs(start);
  if (!result.ok()) {
    Fail("linearizeGraph: " + result.status().ToString());
    return false;
  }
  std::vector<ham::NodeIndex> got;
  for (const auto& n : result->nodes) got.push_back(n.node);
  if (got != shared_->traverse_answers[k]) {
    Fail("linearizeGraph from " + std::to_string(start_node) +
         " differs from the subtree's preorder");
    return false;
  }
  return true;
}

bool Client::Diff(double* us) {
  const auto& cases = shared_->corpus->diff_cases();
  const DiffCase& c = cases[rng_.Uniform(cases.size())];
  const NodeSpec& spec = shared_->corpus->nodes()[c.node];
  const uint64_t start = NowNs();
  auto result = [&] {
    ScopedSpan span(&shared_->tracer, trace_, "getNodeDifferences", layer_);
    return target_->GetNodeDifferences(ctx_, spec.index, spec.times[c.from],
                                       spec.times[c.to]);
  }();
  *us = ElapsedUs(start);
  if (!result.ok()) {
    Fail("getNodeDifferences: " + result.status().ToString());
    return false;
  }
  if (Corpus::DiffDigest(*result) != c.digest) {
    Fail("getNodeDifferences on " + std::to_string(spec.index) +
         " differs from the line diff of the generated versions");
    return false;
  }
  return true;
}

std::string Client::EditLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  const int width = shared_->corpus->shape().line_chars;
  for (int e = 0; e < 2 && !lines.empty(); ++e) {
    std::string line = "w" + std::to_string(id_) + "c" +
                       std::to_string(checkins_) + "e" + std::to_string(e) +
                       ": " + rng_.NextString(width);
    line.resize(width);
    lines[rng_.Uniform(lines.size())] = std::move(line);
  }
  return Corpus::JoinLines(lines);
}

bool Client::Checkin(double* us) {
  const std::vector<int>& partition = shared_->partitions[id_];
  const int node = partition[rng_.Uniform(partition.size())];
  const ham::NodeIndex index = shared_->corpus->nodes()[node].index;
  auto opened = [&] {
    ScopedSpan span(&shared_->tracer, trace_, "openNode", layer_);
    return target_->OpenNode(ctx_, index, 0, {});
  }();
  if (!opened.ok()) {
    Fail("check-in openNode: " + opened.status().ToString());
    return false;
  }
  ++checkins_;
  const std::string text = EditLines(opened->contents);
  const std::string status = kStatuses[checkins_ % 4];
  // Registered before the commit so a concurrent reader that sees the
  // new version finds it.
  shared_->versions->Add(node, Digest(text));
  std::vector<ham::AttachmentUpdate> attachments;
  for (const ham::Attachment& att : opened->attachments) {
    attachments.push_back({att.link, att.is_source_end, att.position});
  }
  Tracer* tracer = &shared_->tracer;
  const uint64_t start = NowNs();
  Status s;
  {
    ScopedSpan span(tracer, trace_, "beginTransaction", layer_);
    s = target_->BeginTransaction(ctx_);
  }
  if (s.ok()) {
    ScopedSpan span(tracer, trace_, "modifyNode", layer_);
    s = target_->ModifyNode(ctx_, index, opened->current_version_time, text,
                            attachments, "check-in");
  }
  if (s.ok()) {
    ScopedSpan span(tracer, trace_, "setNodeAttributeValue", layer_);
    s = target_->SetNodeAttributeValue(ctx_, index, shared_->attrs.status,
                                       status);
  }
  if (s.ok()) {
    ScopedSpan span(tracer, trace_, "commitTransaction", layer_);
    s = target_->CommitTransaction(ctx_);
  } else {
    target_->AbortTransaction(ctx_);
  }
  *us = ElapsedUs(start);
  if (!s.ok()) {
    Fail("check-in of " + std::to_string(index) + ": " + s.ToString());
    return false;
  }
  stats_.bytes_written += text.size() + status.size();
  return true;
}

// ------------------------------------------------------ FollowerNode

Status FollowerNode::Start(uint16_t primary_port,
                           const std::string& primary_dir,
                           const std::string& dir) {
  dir_ = dir;
  ham::HamOptions options;
  options.follower_mode = true;
  engine_ = std::make_unique<ham::Ham>(neptune::Env::Default(), options);
  server_ = std::make_unique<rpc::Server>(engine_.get());
  auto port = server_->Start(0);
  if (!port.ok()) return port.status();
  port_ = *port;
  auto upstream = rpc::RemoteHam::Connect("localhost", primary_port);
  if (!upstream.ok()) return upstream.status();
  upstream_ = std::move(*upstream);
  rpc::Replicator::Options repl;
  repl.primary_root = primary_dir;
  repl.local_root = dir;
  replicator_ = std::make_unique<rpc::Replicator>(engine_.get(),
                                                  upstream_.get(), repl);
  replicator_->Start();
  const uint64_t deadline = NowNs() + 120ull * 1000000000ull;
  while (!replicator_->AllCaughtUp()) {
    if (NowNs() > deadline) {
      return Status::Unavailable("follower did not catch up");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return Status::OK();
}

void FollowerNode::Stop() {
  if (replicator_) replicator_->Stop();
  replicator_.reset();
  upstream_.reset();
  if (server_) server_->Stop();
  server_.reset();
  engine_.reset();
}

}  // namespace perfbench
