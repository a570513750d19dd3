// neptune_perfbench: the repository's end-to-end benchmark.
//
//   neptune_perfbench --workload <browse|history|checkin>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     [--root <dir>] [--selftest] [--corrupt-expected]
//
// Builds the workload's store from the seed through the public API,
// serves it with the shipped rpc::Server + ham::Ham, and drives it
// through loopback rpc::RemoteHam clients in a closed loop, checking
// every reply. --trace 0 prints the end-to-end metrics; --trace 1 runs
// the traced variant and prints the per-layer metrics. The last line
// of stdout is the JSON result. See perfbench/README.md.

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "delta/recon_cache.h"
#include "delta/text_diff.h"
#include "delta/version_chain.h"
#include "harness.h"
#include "query/predicate.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace perfbench {
namespace {

using neptune::Env;
using neptune::HistogramSnapshot;
using neptune::MetricsRegistry;
using neptune::MetricsSnapshot;
using neptune::Random;
using neptune::Status;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".bench_build";
  bool selftest = false;
  bool corrupt = false;
};

// Sizes used by every run (and shrunk by --selftest).
struct Sizes {
  int setup_reps = 3;
  double warmup_s = 1.0;
  int probe_ops = 1100;   // p99 keeps >= 10 samples beyond it
  double probe_min_s = 4.0;
  int diff_cases = 2048;
  int replay_ops = 2000;
  double replay_s = 0.3;  // each side of the scaling replay
  double repl_replay_s = 1.0;
};

WorkloadSpec MakeSpec(const std::string& name, bool selftest, bool* ok) {
  WorkloadSpec spec;
  spec.name = name;
  *ok = true;
  if (name == "browse") {
    spec.shape = {128, 64, 4, 24, 40, 6, 4, 2, 1};
    spec.readers = 3;
    spec.weight[kOpen] = 6;
    spec.weight[kQuery] = 2;
    spec.weight[kTraverse] = 2;
  } else if (name == "history") {
    spec.shape = {4, 64, 4, 100, 40, 72, 1, 3, 1};
    spec.readers = 3;
    spec.historical = true;
    spec.weight[kOpen] = 3;
    spec.weight[kDiff] = 1;
  } else if (name == "checkin") {
    spec.shape = {64, 64, 4, 48, 40, 8, 2, 2, 1};
    spec.readers = 1;
    spec.writers = 2;
    spec.weight[kOpen] = 1;
    spec.weight[kQuery] = 1;
  } else {
    *ok = false;
  }
  spec.writer_nodes = 256;
  if (selftest) {
    spec.shape.docs = std::max(2, spec.shape.docs / 32);
    spec.shape.versions = std::min(spec.shape.versions, 8);
    spec.writer_nodes = 16;
  }
  return spec;
}

// Op classes the workload's own clients issue in the window; the rest
// are probed before and after it.
bool InMix(const WorkloadSpec& spec, OpClass op) {
  return op == kCommit ? spec.writers > 0 : spec.weight[op] > 0;
}

double Seconds(uint64_t start_ns) { return (NowNs() - start_ns) / 1e9; }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Length of the intervals a window's rates are taken over.
constexpr double kInterval = 0.5;

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// Removes the previous run's data and flushes the filesystem, so its
// deletes (and their discards) never land inside a timed window.
void ClearData(const std::string& dir) {
  Env::Default()->RemoveDirRecursive(dir);
  Env::Default()->CreateDir(dir);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

// --------------------------------------------------------------- setup

// The running system under test: engine + server.
struct Stack {
  std::string dir;
  ham::ProjectId project = 0;
  AttrIds attrs;
  std::unique_ptr<ham::Ham> engine;
  std::unique_ptr<rpc::Server> server;
  uint16_t port = 0;

  void Stop() {
    if (server) server->Stop();
    server.reset();
    engine.reset();
  }
};

struct SetupTimes {
  std::vector<double> setup_s, reopen_s;
};

ham::HamOptions EngineOptions() {
  ham::HamOptions options;  // shipped defaults
  options.trace_sample_n = 0;  // the program's own tracer stays off
  return options;
}

// Builds the store (batched transactions), checkpoints, reopens it in a
// fresh engine and starts the server, all inside the setup timer.
Status SetUp(Corpus* corpus, const std::string& dir, Stack* stack,
             SetupTimes* times) {
  const uint64_t start = NowNs();
  stack->dir = dir + "/primary";
  {
    ham::Ham builder(Env::Default(), EngineOptions());
    auto created = builder.CreateGraph(stack->dir, 0755);
    if (!created.ok()) return created.status();
    stack->project = created->project;
    auto ctx = builder.OpenGraph(stack->project, "local", stack->dir);
    if (!ctx.ok()) return ctx.status();
    NEPTUNE_RETURN_IF_ERROR(corpus->Build(&builder, *ctx, &stack->attrs));
    NEPTUNE_RETURN_IF_ERROR(builder.Checkpoint(*ctx));
    NEPTUNE_RETURN_IF_ERROR(builder.CloseGraph(*ctx));
  }
  const uint64_t reopen_start = NowNs();
  stack->engine = std::make_unique<ham::Ham>(Env::Default(), EngineOptions());
  auto ctx = stack->engine->OpenGraph(stack->project, "local", stack->dir);
  if (!ctx.ok()) return ctx.status();
  NEPTUNE_RETURN_IF_ERROR(stack->engine->CloseGraph(*ctx));
  times->reopen_s.push_back(Seconds(reopen_start));
  stack->server = std::make_unique<rpc::Server>(stack->engine.get());
  auto port = stack->server->Start(0);
  if (!port.ok()) return port.status();
  stack->port = *port;
  times->setup_s.push_back(Seconds(start));
  return Status::OK();
}

// ------------------------------------------------------------- windows

struct Mix {
  int readers = 0;
  int writers = 0;
  bool routed = false;  // readers go through the follower
};

struct WindowResult {
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t client_cpu_ns = 0;
  uint64_t bytes_written = 0;
  Samples latency[kNumClasses];
  // Per-interval throughput and CPU per op (timed windows only).
  Samples ops_rate, checkin_rate, cpu_us_per_op;
  Samples lag_bytes;  // follower lag, sampled during the window
  double rss_start_mb = 0;
  double peak_rss_mb = 0;
  MetricsSnapshot before, after;
  std::vector<std::string> errors;
};

void Absorb(ClientStats& s, WindowResult* out) {
  for (int c = 0; c < kNumClasses; ++c) out->latency[c].Append(s.latency[c]);
  out->attempted += s.attempted;
  out->failed += s.failed;
  out->bytes_written += s.bytes_written;
  out->errors.insert(out->errors.end(), s.errors.begin(), s.errors.end());
}

// Connects every client (each opens the graph), warms up, then measures
// a window of `seconds` with all clients in their closed loops. With a
// `foreground` task the window instead lasts as long as that task.
Status RunWindow(Shared* shared, const Mix& mix, FollowerNode* follower,
                 double warmup_s, double seconds, uint64_t seed,
                 WindowResult* out,
                 const std::function<Status()>& foreground = nullptr) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < mix.readers; ++i) {
    clients.push_back(std::make_unique<Client>(
        shared, i, Client::Role::kReader, seed * 131 + i));
    NEPTUNE_RETURN_IF_ERROR(clients.back()->Connect(mix.routed));
  }
  for (int i = 0; i < mix.writers; ++i) {
    clients.push_back(std::make_unique<Client>(
        shared, i, Client::Role::kWriter, seed * 131 + 64 + i));
    NEPTUNE_RETURN_IF_ERROR(clients.back()->Connect(false));
  }
  Window window;
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&window, c = client.get()] { c->Run(&window); });
  }
  // Follower lag, sampled through the window.
  std::thread sampler([&] {
    while (follower != nullptr && !window.stop.load()) {
      const uint64_t now = NowNs();
      if (now >= window.start_ns.load() && now <= window.end_ns.load()) {
        auto status = follower->engine()->ReplStatus(follower->dir());
        if (status.ok()) {
          out->lag_bytes.Add(static_cast<double>(status->lag_bytes));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  SleepSeconds(warmup_s);
  ResetPeakRss();
  out->rss_start_mb = PeakRssMb();  // just reset, so the current RSS
  out->before = MetricsRegistry::Instance().Snapshot();
  const uint64_t cpu_start = ProcessCpuNs();
  const uint64_t start = NowNs();
  window.start_ns.store(start);
  Status status;
  if (foreground) {
    status = foreground();
  } else {
    // Rates per interval, so a stall of part of the window (the host's,
    // not the program's) moves their median little.
    const int intervals =
        std::max(1, static_cast<int>(seconds / kInterval + 0.5));
    uint64_t ops = 0, checkins = 0, cpu = cpu_start, at = start;
    for (int i = 1; i <= intervals; ++i) {
      const uint64_t due =
          start + static_cast<uint64_t>(i * seconds / intervals * 1e9);
      const uint64_t now_ns = NowNs();
      if (due > now_ns) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns));
      }
      const uint64_t now = NowNs();
      const uint64_t now_ops = window.completed.load();
      const uint64_t now_checkins = window.checkins.load();
      const uint64_t now_cpu = ProcessCpuNs();
      const double span = (now - at) / 1e9;
      out->ops_rate.Add((now_ops - ops) / span);
      out->checkin_rate.Add((now_checkins - checkins) / span);
      out->cpu_us_per_op.Add(Ratio((now_cpu - cpu) / 1000.0, now_ops - ops));
      ops = now_ops;
      checkins = now_checkins;
      cpu = now_cpu;
      at = now;
    }
  }
  const uint64_t end = NowNs();
  window.end_ns.store(end);
  out->peak_rss_mb = PeakRssMb();
  out->after = MetricsRegistry::Instance().Snapshot();
  window.stop.store(true);
  for (auto& t : threads) t.join();
  sampler.join();
  out->seconds = (end - start) / 1e9;
  for (auto& client : clients) {
    ClientStats& s = client->stats();
    Absorb(s, out);
    out->ops += s.ops;
    out->client_cpu_ns += s.cpu_ns;
  }
  return status;
}

// ------------------------------------------------------------ counters

uint64_t Delta(const MetricsSnapshot& a, const MetricsSnapshot& b,
               const std::string& name) {
  return b.CounterValue(name) - a.CounterValue(name);
}

HistogramSnapshot HistDelta(const MetricsSnapshot& a, const MetricsSnapshot& b,
                            const std::string& name) {
  HistogramSnapshot out;
  auto bit = b.histograms.find(name);
  if (bit == b.histograms.end()) return out;
  out = bit->second;
  auto ait = a.histograms.find(name);
  if (ait == a.histograms.end()) return out;
  for (size_t i = 0; i < out.buckets.size() && i < ait->second.buckets.size();
       ++i) {
    out.buckets[i] -= ait->second.buckets[i];
  }
  out.count -= ait->second.count;
  out.sum -= ait->second.sum;
  return out;
}

// ------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void Put(std::vector<Metric>* out, const std::string& name, double value,
         const std::string& unit) {
  out->push_back({name, value, unit});
}

// ------------------------------------------------------------- the run

class Bench {
 public:
  Bench(const Options& options, const WorkloadSpec& spec, const Sizes& sizes)
      : opt_(options), spec_(spec), sizes_(sizes),
        corpus_(spec.shape, options.seed) {}

  int Run();

 private:
  Status Prepare();
  Status Probe(WindowResult* result, int phase);
  Status CompactedDiskBytes(uint64_t* bytes);
  void EndToEnd(const WindowResult& w, uint64_t disk_bytes,
                std::vector<Metric>* out);
  Status PerLayer(const WindowResult& untraced, const WindowResult& traced,
                  double untraced_rate, const MetricsSnapshot& after_probes,
                  std::vector<Metric>* out);
  Status LocalReplays(const WindowResult& untraced, std::vector<Metric>* out);
  Status ReplicationReplay(std::vector<Metric>* out);
  void Record(const WindowResult& w, const std::vector<Metric>& metrics);
  Mix WorkloadMix() const {
    return {spec_.readers, spec_.writers};
  }

  const Options opt_;
  const WorkloadSpec spec_;
  const Sizes sizes_;
  Corpus corpus_;
  Stack stack_;
  SetupTimes times_;
  Shared shared_;
  std::string data_dir_;
  Tracer::Buffer* main_trace_ = nullptr;
  uint64_t probe_failed_ = 0;
  uint64_t probe_attempted_ = 0;
  // Check-in contents and attribute values the probes wrote.
  uint64_t probe_bytes_written_ = 0;
  // The probing committer's completed check-ins and the time its
  // check-ins took, open and edit included.
  uint64_t probe_checkins_ = 0;
  uint64_t probe_checkin_ns_ = 0;
  std::vector<std::string> errors_;
};

Status Bench::Prepare() {
  data_dir_ = opt_.root + "/data";
  ClearData(data_dir_);
  Random rng(opt_.seed * 7919 + 17);
  corpus_.ComputeExpectations(sizes_.diff_cases, &rng);

  for (int rep = 0; rep < sizes_.setup_reps; ++rep) {
    if (rep > 0) stack_.Stop();
    NEPTUNE_RETURN_IF_ERROR(SetUp(
        &corpus_, data_dir_ + "/rep" + std::to_string(rep), &stack_, &times_));
  }
  {
    auto ctx = stack_.engine->OpenGraph(stack_.project, "local", stack_.dir);
    if (!ctx.ok()) return ctx.status();
    NEPTUNE_RETURN_IF_ERROR(
        corpus_.LoadVersionTimes(stack_.engine.get(), *ctx));
    NEPTUNE_RETURN_IF_ERROR(stack_.engine->CloseGraph(*ctx));
  }
  if (opt_.corrupt) corpus_.Corrupt();

  shared_.spec = &spec_;
  shared_.corpus = &corpus_;
  shared_.attrs = stack_.attrs;
  shared_.project = stack_.project;
  shared_.primary_dir = stack_.dir;
  shared_.port = stack_.port;
  for (int q = 0; q < corpus_.query_count(); ++q) {
    shared_.query_answers.push_back(corpus_.QueryAnswer(q));
  }
  for (int root : corpus_.traverse_roots()) {
    shared_.traverse_answers.push_back(corpus_.SubtreeOrder(root));
  }
  // Disjoint writer partitions from a seeded shuffle. Workloads without
  // writers still get one, for the check-in probes.
  std::vector<int> order(corpus_.nodes().size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  const int partitions = std::max(1, spec_.writers);
  const int size = spec_.writer_nodes;
  for (int w = 0; w < partitions; ++w) {
    shared_.partitions.emplace_back(order.begin() + w * size,
                                    order.begin() + (w + 1) * size);
    if (spec_.writers > 0) {
      shared_.changing_nodes.insert(shared_.changing_nodes.end(),
                                    shared_.partitions.back().begin(),
                                    shared_.partitions.back().end());
    }
  }
  shared_.versions = std::make_unique<VersionTable>(corpus_);
  main_trace_ = shared_.tracer.NewBuffer();
  // A fresh process starts with an empty reconstruction cache; drop
  // what the setup repetitions left in it.
  neptune::delta::ReconstructionCache::Instance().Clear();
  return Status::OK();
}

// Op classes the workload's clients do not issue are measured by one
// more client, half before the window (phase 0) and half after it
// (phase 1), cycling through them round robin so each class's samples
// spread over the probe window. The workload's mix runs beside it with
// one reader fewer: the probe takes that reader's place, so the client
// count stays the workload's.
Status Bench::Probe(WindowResult* result, int phase) {
  Client probe(&shared_, 0, Client::Role::kWriter,
               opt_.seed * 131 + 99 + phase);
  NEPTUNE_RETURN_IF_ERROR(probe.Connect(false));
  std::vector<OpClass> probed;
  for (int c = 0; c < kNumClasses; ++c) {
    if (!InMix(spec_, static_cast<OpClass>(c))) {
      probed.push_back(static_cast<OpClass>(c));
    }
  }
  auto run_probes = [&]() -> Status {
    const uint64_t start = NowNs();
    for (int round = 0; round < sizes_.probe_ops / 2 ||
                        Seconds(start) < sizes_.probe_min_s / 2;
         ++round) {
      for (OpClass op : probed) {
        const uint64_t op_start = NowNs();
        probe.Probe(op, 1);
        if (op == kCommit) probe_checkin_ns_ += NowNs() - op_start;
      }
    }
    return Status::OK();
  };
  Mix mix = WorkloadMix();
  mix.readers = std::max(0, mix.readers - 1);
  WindowResult background;
  if (!probed.empty()) {
    NEPTUNE_RETURN_IF_ERROR(RunWindow(&shared_, mix, nullptr,
                                      sizes_.warmup_s / 4, 0,
                                      opt_.seed + 2 + phase, &background,
                                      run_probes));
  }
  ClientStats& s = probe.stats();
  for (int c = 0; c < kNumClasses; ++c) result->latency[c].Append(s.latency[c]);
  probe_failed_ += s.failed + background.failed;
  probe_attempted_ += s.attempted + background.attempted;
  probe_bytes_written_ += s.bytes_written + background.bytes_written;
  probe_checkins_ += s.latency[kCommit].size();
  errors_.insert(errors_.end(), s.errors.begin(), s.errors.end());
  errors_.insert(errors_.end(), background.errors.begin(),
                 background.errors.end());
  return Status::OK();
}

// Store size after two checkpoints: the snapshot plus an empty WAL, and
// the one older generation the primary retains for followers, also
// empty. So the figure does not depend on where in its WAL cycle the
// window happened to end.
Status Bench::CompactedDiskBytes(uint64_t* bytes) {
  auto ctx = stack_.engine->OpenGraph(stack_.project, "local", stack_.dir);
  if (!ctx.ok()) return ctx.status();
  NEPTUNE_RETURN_IF_ERROR(stack_.engine->Checkpoint(*ctx));
  NEPTUNE_RETURN_IF_ERROR(stack_.engine->Checkpoint(*ctx));
  NEPTUNE_RETURN_IF_ERROR(stack_.engine->CloseGraph(*ctx));
  *bytes = DirBytes(stack_.dir);
  return Status::OK();
}

void Bench::EndToEnd(const WindowResult& w, uint64_t disk_bytes,
                     std::vector<Metric>* out) {
  Put(out, "setup_s", Median(times_.setup_s), "s");
  Put(out, "ops_per_s", w.ops_rate.Percentile(0.5), "1/s");
  Put(out, "open_p50_us", w.latency[kOpen].Percentile(0.5), "us");
  Put(out, "query_p50_us", w.latency[kQuery].Percentile(0.5), "us");
  Put(out, "traverse_p50_us", w.latency[kTraverse].Percentile(0.5), "us");
  Put(out, "diff_p50_us", w.latency[kDiff].Percentile(0.5), "us");
  Put(out, "commit_p50_us", w.latency[kCommit].Percentile(0.5), "us");
  // Probed check-ins come from one sequential committer: the check-ins
  // it completed per second of checking in.
  const double commits_per_s =
      spec_.writers > 0 ? w.checkin_rate.Percentile(0.5)
                        : Ratio(probe_checkins_, probe_checkin_ns_ / 1e9);
  Put(out, "commits_per_s", commits_per_s, "1/s");
  Put(out, "cpu_us_per_op", w.cpu_us_per_op.Percentile(0.5), "us");
  Put(out, "peak_rss_mb", w.peak_rss_mb, "MiB");
  Put(out, "disk_bytes_per_user_byte",
      Ratio(disk_bytes,
            corpus_.user_bytes() + w.bytes_written + probe_bytes_written_),
      "ratio");
}

Status Bench::LocalReplays(const WindowResult& untraced,
                           std::vector<Metric>* out) {
  // The same op inputs against the in-process engine.
  Client local(&shared_, 0, Client::Role::kWriter, opt_.seed * 131 + 77);
  NEPTUNE_RETURN_IF_ERROR(local.ConnectLocal(stack_.engine.get()));
  local.Probe(kOpen, sizes_.replay_ops);
  local.Probe(kQuery, sizes_.replay_ops);
  local.Probe(kTraverse, sizes_.replay_ops);
  ClientStats& ls = local.stats();
  probe_failed_ += ls.failed;
  probe_attempted_ += ls.attempted;
  errors_.insert(errors_.end(), ls.errors.begin(), ls.errors.end());
  const double ham_open = ls.latency[kOpen].Percentile(0.5);
  const double ham_query = ls.latency[kQuery].Percentile(0.5);
  Put(out, "ham.open_us", ham_open, "us");
  Put(out, "ham.query_us", ham_query, "us");
  Put(out, "ham.traverse_us", ls.latency[kTraverse].Percentile(0.5), "us");
  Put(out, "rpc.open_overhead_us",
      untraced.latency[kOpen].Percentile(0.5) - ham_open, "us");
  Put(out, "rpc.query_overhead_us",
      untraced.latency[kQuery].Percentile(0.5) - ham_query, "us");

  // Local openNode throughput with 3 threads over 1 thread.
  double rate[2] = {0, 0};
  const int threads_for[2] = {1, 3};
  for (int side = 0; side < 2; ++side) {
    std::vector<std::unique_ptr<Client>> clients;
    for (int i = 0; i < threads_for[side]; ++i) {
      clients.push_back(std::make_unique<Client>(
          &shared_, i, Client::Role::kReader, opt_.seed * 131 + 200 + i));
      clients.back()->set_only(kOpen);
      NEPTUNE_RETURN_IF_ERROR(
          clients.back()->ConnectLocal(stack_.engine.get()));
    }
    Window window;
    window.start_ns.store(NowNs());
    std::vector<std::thread> threads;
    for (auto& c : clients) {
      threads.emplace_back([&window, p = c.get()] { p->Run(&window); });
    }
    SleepSeconds(sizes_.replay_s);
    const uint64_t end = NowNs();
    window.end_ns.store(end);
    window.stop.store(true);
    for (auto& t : threads) t.join();
    uint64_t ops = 0;
    for (auto& c : clients) {
      ops += c->stats().ops;
      probe_failed_ += c->stats().failed;
      probe_attempted_ += c->stats().attempted;
    }
    rate[side] = ops / ((end - window.start_ns.load()) / 1e9);
  }
  Put(out, "ham.open_scaling_x", Ratio(rate[1], rate[0]), "x");

  // Predicate::Parse + CompiledPredicate::Compile, and the planner's
  // candidates per result node, on the workload's first 48 predicates.
  const int predicates = std::min(corpus_.query_count(), 48);
  Samples compile;
  {
    ScopedSpan span(&shared_.tracer, main_trace_, "compile", "query");
    for (int round = 0; round < 40; ++round) {
      for (int q = 0; q < predicates; ++q) {
        const std::string text = Corpus::QueryText(q);
        const uint64_t start = NowNs();
        auto pred = neptune::query::Predicate::Parse(text);
        if (!pred.ok()) return pred.status();
        auto program = neptune::query::CompiledPredicate::Compile(*pred);
        compile.Add((NowNs() - start) / 1000.0);
        (void)program;
      }
    }
  }
  Put(out, "query.compile_us", compile.Percentile(0.5), "us");
  {
    auto ctx = stack_.engine->OpenGraph(stack_.project, "local", stack_.dir);
    if (!ctx.ok()) return ctx.status();
    double candidates = 0, matched = 0;
    ScopedSpan span(&shared_.tracer, main_trace_, "getGraphQueryExplained",
                    "ham");
    for (int q = 0; q < predicates; ++q) {
      auto explained = stack_.engine->GetGraphQueryExplained(
          *ctx, 0, Corpus::QueryText(q), "false", {}, {}, {});
      if (!explained.ok()) return explained.status();
      candidates += explained->plan.candidates;
      matched += explained->plan.nodes_matched;
    }
    Put(out, "query.candidates_per_result", Ratio(candidates, matched),
        "ratio");
    NEPTUNE_RETURN_IF_ERROR(stack_.engine->CloseGraph(*ctx));
  }

  // Mirror version chains built from the workload's edits.
  Random rng(opt_.seed * 131 + 300);
  const auto& versioned = corpus_.versioned();
  const size_t chains = std::min<size_t>(versioned.size(), 32);
  std::vector<neptune::delta::VersionChain> mirror(chains);
  Samples append, get, diff;
  const uint32_t keyframes = EngineOptions().keyframe_interval;
  const int checkin_edits = spec_.writers > 0 ? 32 : 0;
  for (size_t i = 0; i < chains; ++i) {
    const int node = versioned[i];
    mirror[i].set_keyframe_interval(keyframes);
    const int versions = corpus_.nodes()[node].versions;
    std::string text;
    for (int v = 0; v < versions + checkin_edits; ++v) {
      if (v < versions) {
        text = corpus_.Text(node, v);
      } else {
        // A writer's check-in edit: two lines replaced.
        for (int e = 0; e < 2; ++e) {
          const size_t lines = static_cast<size_t>(corpus_.shape().lines);
          const size_t line = rng.Uniform(lines);
          const size_t width = corpus_.shape().line_chars + 1;
          text.replace(line * width, width - 1,
                       rng.NextString(width - 1));
        }
      }
      ScopedSpan span(&shared_.tracer, main_trace_, "VersionChain::Append",
                      "delta");
      const uint64_t start = NowNs();
      NEPTUNE_RETURN_IF_ERROR(mirror[i].Append(v + 1, text, "mirror"));
      // Check-in workloads time their check-in edits; the others the
      // corpus's own versions.
      if (checkin_edits == 0 || v >= versions) {
        append.Add((NowNs() - start) / 1000.0);
      }
    }
  }
  for (int i = 0; i < sizes_.replay_ops; ++i) {
    const size_t k = rng.Uniform(chains);
    const int n = static_cast<int>(mirror[k].version_count());
    // Historical workloads read recent-favoured old versions; the
    // others read the current one.
    const uint64_t time =
        spec_.historical ? PickVersion(&rng, n - 1, 4) + 1 : 0;
    ScopedSpan span(&shared_.tracer, main_trace_, "VersionChain::Get",
                    "delta");
    const uint64_t start = NowNs();
    auto got = mirror[k].Get(time);
    get.Add((NowNs() - start) / 1000.0);
    if (!got.ok()) return got.status();
  }
  const auto& cases = corpus_.diff_cases();
  for (size_t i = 0; i < cases.size() && i < 256; ++i) {
    const std::string a = corpus_.Text(cases[i].node, cases[i].from);
    const std::string b = corpus_.Text(cases[i].node, cases[i].to);
    ScopedSpan span(&shared_.tracer, main_trace_, "DiffLines", "delta");
    const uint64_t start = NowNs();
    auto d = neptune::delta::DiffLines(a, b);
    diff.Add((NowNs() - start) / 1000.0);
    (void)d;
  }
  Put(out, "delta.get_us", get.Percentile(0.5), "us");
  Put(out, "delta.diff_us", diff.Percentile(0.5), "us");
  Put(out, "delta.append_us", append.Percentile(0.5), "us");

  // A synced log append on the store's filesystem, at the run's mean
  // WAL record size.
  const uint64_t appends =
      Delta(untraced.before, untraced.after, "storage.wal.appends");
  const uint64_t record =
      appends == 0 ? 4096
                   : Delta(untraced.before, untraced.after,
                           "storage.wal.bytes") / appends;
  Samples raw;
  {
    auto file = Env::Default()->NewWritableFile(
        data_dir_ + "/raw_sync_append.log", true);
    if (!file.ok()) return file.status();
    neptune::LogWriter writer(std::move(*file));
    const std::string payload(record, 'r');
    for (int i = 0; i < 200; ++i) {
      ScopedSpan span(&shared_.tracer, main_trace_, "LogWriter::AddRecord",
                      "storage");
      const uint64_t start = NowNs();
      NEPTUNE_RETURN_IF_ERROR(writer.AddRecord(payload, true));
      raw.Add((NowNs() - start) / 1000.0);
    }
    NEPTUNE_RETURN_IF_ERROR(writer.Close());
  }
  Put(out, "storage.raw_sync_append_us", raw.Percentile(0.5), "us");
  return Status::OK();
}

// Replication is measured after the windows: a follower bootstraps from
// the workload's store, then one writer on the primary and one reader
// routed through the follower run a short closed loop.
Status Bench::ReplicationReplay(std::vector<Metric>* out) {
  FollowerNode follower;
  double bootstrap = 0;
  {
    ScopedSpan span(&shared_.tracer, main_trace_, "follower bootstrap",
                    "repl");
    const uint64_t start = NowNs();
    NEPTUNE_RETURN_IF_ERROR(
        follower.Start(stack_.port, stack_.dir, data_dir_ + "/follower"));
    bootstrap = Seconds(start);
  }
  shared_.follower_port = follower.port();
  shared_.follower_dir = follower.dir();
  shared_.changing_nodes = shared_.partitions[0];
  WindowResult w;
  NEPTUNE_RETURN_IF_ERROR(RunWindow(&shared_, {1, 1, true}, &follower, 0.1,
                                    sizes_.repl_replay_s, opt_.seed + 5, &w));
  probe_failed_ += w.failed;
  probe_attempted_ += w.attempted;
  errors_.insert(errors_.end(), w.errors.begin(), w.errors.end());
  const double commits = Delta(w.before, w.after, "ham.txn.committed");
  const double fetches = Delta(w.before, w.after, "repl.primary.fetches");
  Put(out, "repl.bootstrap_s", bootstrap, "s");
  Put(out, "repl.lag_bytes_p50", w.lag_bytes.Percentile(0.5), "B");
  Put(out, "repl.fetches_per_commit", Ratio(fetches, commits), "ratio");
  Put(out, "repl.empty_poll_share",
      Ratio(Delta(w.before, w.after, "repl.primary.empty_polls"), fetches),
      "ratio");
  Put(out, "repl.primary_fallbacks",
      Delta(w.before, w.after, "repl.client.stale_follower") +
          Delta(w.before, w.after, "repl.client.follower_open_failed"),
      "count");
  return Status::OK();
}

Status Bench::PerLayer(const WindowResult& untraced,
                       const WindowResult& traced, double untraced_rate,
                       const MetricsSnapshot& after_probes,
                       std::vector<Metric>* out) {
  const MetricsSnapshot& a = untraced.before;
  const MetricsSnapshot& b = untraced.after;
  const MetricsSnapshot& c = after_probes;  // window + traced + probes

  // p99s that did not repeat within a tenth across runs (README.md).
  for (OpClass op : {kOpen, kQuery, kCommit}) {
    Put(out, std::string(kClassNames[op]) + "_p99_us",
        untraced.latency[op].Percentile(0.99), "us");
  }
  const double ping = shared_.tracer.Durations("ping", "rpc").Percentile(0.5);
  Put(out, "rpc.ping_p50_us", ping, "us");
  Put(out, "rpc.bytes_per_op",
      Ratio(Delta(a, b, "rpc.bytes_in") + Delta(a, b, "rpc.bytes_out"),
            untraced.ops),
      "B");
  Put(out, "rpc.client_cpu_us_per_op",
      Ratio(untraced.client_cpu_ns / 1000.0, untraced.ops), "us");
  Put(out, "rpc.retries_and_sheds",
      Delta(a, c, "rpc.client.retries") +
          Delta(a, c, "rpc.client.shed_retries") + Delta(a, c, "server.shed"),
      "count");

  // Check-in child spans, minus one round trip each.
  auto span_p50 = [&](const char* name) {
    return shared_.tracer.Durations(name, "rpc").Percentile(0.5);
  };
  Put(out, "ham.begin_wait_us", span_p50("beginTransaction") - ping, "us");
  Put(out, "ham.checkin_ops_us",
      span_p50("modifyNode") + span_p50("setNodeAttributeValue") - 2 * ping,
      "us");
  Put(out, "ham.commit_call_us", span_p50("commitTransaction") - ping, "us");

  const double plans = Delta(a, c, "query.plan.index") +
                       Delta(a, c, "query.plan.intersect") +
                       Delta(a, c, "query.plan.scan");
  const double commits = Delta(a, c, "ham.txn.committed");
  Put(out, "query.index_plan_share",
      Ratio(Delta(a, c, "query.plan.index") +
                Delta(a, c, "query.plan.intersect"),
            plans),
      "ratio");
  Put(out, "query.index_rebuilds", Delta(a, c, "query.index.rebuilds"),
      "count");
  Put(out, "query.index_deltas_per_commit",
      Ratio(Delta(a, c, "query.index.applied_deltas"), commits), "ratio");

  const double hits = Delta(a, c, "delta.cache.hit");
  const double reads = hits + Delta(a, c, "delta.cache.miss");
  Put(out, "delta.deltas_per_read",
      Ratio(Delta(a, c, "delta.chain.deltas_applied"),
            Delta(a, c, "delta.chain.reconstructions")),
      "ratio");
  Put(out, "delta.cache_hit_ratio", Ratio(hits, reads), "ratio");
  Put(out, "delta.cache_evictions_per_read",
      Ratio(Delta(a, c, "delta.cache.evicted"), reads), "ratio");
  Put(out, "delta.stored_per_raw",
      Ratio(c.CounterValue("delta.bytes.stored"),
            c.CounterValue("delta.bytes.raw")),
      "ratio");

  const HistogramSnapshot fsync = HistDelta(a, c, "storage.wal.fsync");
  const HistogramSnapshot checkpoint = HistDelta(a, c, "storage.checkpoint");
  Put(out, "storage.fsync_p50_us",
      fsync.count == 0 ? 0 : fsync.QuantileMicros(0.5), "us");
  Put(out, "storage.fsyncs_per_commit", Ratio(fsync.count, commits), "ratio");
  Put(out, "storage.wal_bytes_per_commit",
      Ratio(Delta(a, c, "storage.wal.bytes"), commits), "B");
  Put(out, "storage.checkpoints", checkpoint.count, "count");
  Put(out, "storage.checkpoint_ms", checkpoint.MeanMicros() / 1000.0, "ms");
  Put(out, "storage.reopen_s", Median(times_.reopen_s), "s");

  const double traced_rate = traced.ops / traced.seconds;
  Put(out, "bench.trace_overhead_pct",
      100.0 * Ratio(untraced_rate - traced_rate, untraced_rate), "%");

  NEPTUNE_RETURN_IF_ERROR(LocalReplays(untraced, out));
  return ReplicationReplay(out);
}

void Bench::Record(const WindowResult& w, const std::vector<Metric>& metrics) {
  const ham::HamOptions ho = EngineOptions();
  const rpc::Server::Options so;
  JsonWriter r;
  r.Begin()
      .Key("workload").Str(spec_.name)
      .Key("seed").Int(opt_.seed)
      .Key("seconds").Num(opt_.seconds)
      .Key("trace").Bool(opt_.trace)
      .Key("selftest").Bool(opt_.selftest)
      .Key("build_type").Str(PERFBENCH_BUILD_TYPE)
      .Key("compiler").Str(PERFBENCH_COMPILER)
      .Key("clients").Begin()
      .Key("readers").Int(spec_.readers)
      .Key("writers").Int(spec_.writers)
      .Key("loop").Str("closed")
      .End()
      .Key("options").Begin()
      .Key("io_threads").Int(so.io_threads)
      .Key("worker_threads").Int(so.worker_threads)
      .Key("recon_cache_bytes").Int(ho.recon_cache_bytes)
      .Key("keyframe_interval").Int(ho.keyframe_interval)
      .Key("checkpoint_wal_bytes").Int(ho.checkpoint_wal_bytes)
      .Key("sync_commits").Bool(ho.sync_commits)
      .Key("trace_sample_n").Int(ho.trace_sample_n)
      .End()
      .Key("store").Begin()
      .Key("nodes").Int(corpus_.nodes().size())
      .Key("versioned_nodes").Int(corpus_.versioned().size())
      .Key("versions_per_versioned_node").Int(spec_.shape.versions)
      .Key("user_bytes").Int(corpus_.user_bytes())
      .End()
      .Key("setup_reps_s").Begin();
  for (size_t i = 0; i < times_.setup_s.size(); ++i) {
    r.Key("rep" + std::to_string(i)).Num(times_.setup_s[i]);
  }
  r.End().Key("samples").Begin();
  for (int c = 0; c < kNumClasses; ++c) {
    r.Key(kClassNames[c]).Int(w.latency[c].size());
  }
  r.End().Key("probed").Begin();
  for (int c = 0; c < kNumClasses; ++c) {
    r.Key(kClassNames[c]).Bool(!InMix(spec_, static_cast<OpClass>(c)));
  }
  r.End()
      .Key("window_ops").Int(w.ops)
      .Key("rate_intervals").Int(w.ops_rate.size())
      .Key("window_start_rss_mb").Num(w.rss_start_mb)
      .End();
  std::printf("record: %s\n", r.str().c_str());
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %14.3f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Bench::Run() {
  Status s = Prepare();
  if (!s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return 2;
  }
  std::vector<Metric> metrics;
  // The traced run measures untraced, traced, untraced windows (a third
  // of the time each), so the tracing overhead is not confounded with
  // the run warming up.
  WindowResult window, traced, untraced_again;
  uint64_t disk_bytes = 0;
  const double w_seconds = opt_.trace ? opt_.seconds / 3 : opt_.seconds;
  if (opt_.trace) shared_.ping_every = 8;
  // Probes run half before and half after the window, so a stall of the
  // host during one half does not carry their medians.
  WindowResult probes_before;
  s = Probe(&probes_before, 0);
  if (s.ok()) {
    s = RunWindow(&shared_, WorkloadMix(), nullptr,
                  sizes_.warmup_s, w_seconds, opt_.seed, &window);
  }
  for (int c = 0; c < kNumClasses; ++c) {
    window.latency[c].Append(probes_before.latency[c]);
  }
  if (s.ok() && opt_.trace) {
    shared_.tracer.set_enabled(true);
    s = RunWindow(&shared_, WorkloadMix(), nullptr,
                  sizes_.warmup_s / 4, w_seconds, opt_.seed + 1, &traced);
    shared_.tracer.set_enabled(false);
    if (s.ok()) {
      s = RunWindow(&shared_, WorkloadMix(), nullptr,
                    sizes_.warmup_s / 4, w_seconds, opt_.seed + 3,
                    &untraced_again);
    }
    shared_.tracer.set_enabled(true);
  }
  if (s.ok()) s = Probe(&window, 1);
  // After every write, so the store holds all the user bytes counted.
  if (s.ok() && !opt_.trace) s = CompactedDiskBytes(&disk_bytes);
  if (s.ok()) {
    if (opt_.trace) {
      const MetricsSnapshot after_probes =
          MetricsRegistry::Instance().Snapshot();
      const double untraced_rate =
          (window.ops / window.seconds +
           untraced_again.ops / untraced_again.seconds) / 2;
      s = PerLayer(window, traced, untraced_rate, after_probes, &metrics);
    } else {
      EndToEnd(window, disk_bytes, &metrics);
    }
  }
  if (!s.ok()) {
    std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
    stack_.Stop();
    return 2;
  }
  shared_.tracer.set_enabled(false);
  stack_.Stop();

  const uint64_t failed = window.failed + traced.failed +
                          untraced_again.failed + probe_failed_;
  const uint64_t attempted = window.attempted + traced.attempted +
                             untraced_again.attempted + probe_attempted_;
  errors_.insert(errors_.begin(), window.errors.begin(), window.errors.end());
  errors_.insert(errors_.end(), traced.errors.begin(), traced.errors.end());
  errors_.insert(errors_.end(), untraced_again.errors.begin(),
                 untraced_again.errors.end());
  for (const std::string& e : errors_) {
    std::fprintf(stderr, "FAIL %s\n", e.c_str());
  }

  if (opt_.trace) {
    const std::string dir = opt_.root + "/traces";
    Env::Default()->CreateDir(dir);
    const std::string path =
        dir + "/" + spec_.name + "-seed" + std::to_string(opt_.seed) + ".json";
    Status written =
        Env::Default()->WriteFileAtomic(path, shared_.tracer.ChromeTraceJson());
    std::printf("trace: %s (%s)\n", path.c_str(),
                written.ok() ? "Chrome trace JSON"
                             : written.ToString().c_str());
    double total = 0;
    const auto fold = shared_.tracer.SelfTimeByLayer();
    for (const auto& [layer, us] : fold) total += us;
    for (const auto& [layer, us] : fold) {
      std::printf("fold %-8s self %12.1f ms %6.2f%%\n", layer.c_str(),
                  us / 1000.0, 100.0 * Ratio(us, total));
    }
  }
  Record(window, metrics);

  JsonWriter result;
  result.Begin()
      .Key("correct").Bool(failed == 0)
      .Key("attempted").Int(attempted)
      .Key("failed").Int(failed)
      .Key("metrics").Begin();
  for (const Metric& m : metrics) {
    result.Key(m.name).Begin();
    result.Key("value").Num(m.value).Key("unit").Str(m.unit).End();
  }
  result.End().End();
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: neptune_perfbench --workload browse|history|checkin "
               "--seed N --seconds S --trace 0|1 [--root DIR] [--selftest] "
               "[--corrupt-expected]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--root" && has_value) {
      opt.root = argv[++i];
    } else if (arg == "--selftest") {
      opt.selftest = true;
    } else if (arg == "--corrupt-expected") {
      opt.corrupt = true;
    } else {
      return Usage();
    }
  }
  bool known = false;
  const WorkloadSpec spec = MakeSpec(opt.workload, opt.selftest, &known);
  if (!known || opt.seconds <= 0) return Usage();
  Sizes sizes;
  if (opt.selftest) {
    sizes.setup_reps = 1;
    sizes.warmup_s = 0.2;
    sizes.probe_ops = 40;
    sizes.probe_min_s = 0.2;
    sizes.diff_cases = 64;
    sizes.replay_ops = 100;
    sizes.replay_s = 0.1;
    sizes.repl_replay_s = 0.3;
  }
  Bench bench(opt, spec, sizes);
  return bench.Run();
}
