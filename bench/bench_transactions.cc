// Experiment B5 — "it is transaction-oriented and provides for
// complete recovery from any aborted transaction" (paper §2.2).
//
// Measures commit throughput (fsync on/off, varying ops per
// transaction), abort cost, and recovery time (snapshot load + WAL
// replay) as a function of log length.
//
// Expected shape: synced commits are dominated by fsync latency, so
// batching ops per transaction amortizes it near-linearly; abort is
// O(1); recovery time grows linearly with WAL length and drops to
// near-zero after a checkpoint. Concurrent committers on one graph
// share fsyncs (group commit), so fsyncs per commit falls below 1 once
// a writer's transaction overlaps another's fsync.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"

namespace neptune {
namespace {

// Args: {ops_per_txn}; capture: sync.
void BM_CommitThroughput(benchmark::State& state, bool sync) {
  const int ops = static_cast<int>(state.range(0));
  bench::ScratchGraph graph("b5_commit", sync);
  auto* ham = graph.ham();
  auto ctx = graph.ctx();
  for (auto _ : state) {
    ham->BeginTransaction(ctx);
    for (int i = 0; i < ops; ++i) {
      benchmark::DoNotOptimize(ham->AddNode(ctx, true));
    }
    ham->CommitTransaction(ctx);
  }
  state.SetItemsProcessed(state.iterations() * ops);
}

BENCHMARK_CAPTURE(BM_CommitThroughput, fsync, true)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CommitThroughput, nosync, false)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMicrosecond);

uint64_t FsyncCount() {
  const MetricsSnapshot snapshot = MetricsRegistry::Instance().Snapshot();
  auto it = snapshot.histograms.find("storage.wal.fsync");
  return it == snapshot.histograms.end() ? 0 : it->second.count;
}

// Args: {writers, shared}. `writers` threads each run explicit
// single-op transactions with fsync on, all on one graph (shared=1) or
// each on its own graph of the same engine (shared=0). One iteration is
// kCommitsPerWriter commits per writer.
void BM_CommitConcurrent(benchmark::State& state) {
  constexpr int kCommitsPerWriter = 16;
  const int writers = static_cast<int>(state.range(0));
  const bool shared = state.range(1) != 0;
  bench::ScratchGraph graph("b5_concurrent", /*sync_commits=*/true);
  ham::Ham* ham = graph.ham();
  std::vector<std::string> dirs(writers, graph.dir());
  std::vector<ham::Context> contexts;
  for (int w = 0; w < writers; ++w) {
    ham::ProjectId project = graph.project();
    if (!shared && w > 0) {
      dirs[w] = graph.dir() + "_w" + std::to_string(w);
      graph.env()->RemoveDirRecursive(dirs[w]);
      auto created = ham->CreateGraph(dirs[w], 0755);
      if (!created.ok()) {
        state.SkipWithError("createGraph failed");
        return;
      }
      project = created->project;
    }
    auto ctx = ham->OpenGraph(project, "local", dirs[w]);
    if (!ctx.ok()) {
      state.SkipWithError("openGraph failed");
      return;
    }
    contexts.push_back(*ctx);
  }
  const uint64_t fsyncs_before = FsyncCount();
  // Only commits that return OK count; any failure voids the run.
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> failed{0};
  for (auto _ : state) {
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        for (int i = 0; i < kCommitsPerWriter; ++i) {
          Status status = ham->BeginTransaction(contexts[w]);
          if (status.ok()) status = ham->AddNode(contexts[w], true).status();
          if (status.ok()) {
            status = ham->CommitTransaction(contexts[w]);
          } else {
            ham->AbortTransaction(contexts[w]);
          }
          ++(status.ok() ? committed : failed);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (failed.load() > 0) {
      state.SkipWithError("a concurrent commit failed");
      break;
    }
  }
  const double commits = static_cast<double>(committed.load());
  state.SetItemsProcessed(static_cast<int64_t>(commits));
  state.counters["commits_per_s"] =
      benchmark::Counter(commits, benchmark::Counter::kIsRate);
  state.counters["fsyncs_per_commit"] =
      commits == 0 ? 0 : static_cast<double>(FsyncCount() - fsyncs_before) /
                             commits;
  for (const ham::Context& ctx : contexts) ham->CloseGraph(ctx);
  if (!shared) {
    for (int w = 1; w < writers; ++w) graph.env()->RemoveDirRecursive(dirs[w]);
  }
}

BENCHMARK(BM_CommitConcurrent)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 0}})
    ->ArgNames({"writers", "shared"})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Abort cost vs staged-transaction size: "complete recovery from any
// aborted transaction" should be O(dropping the overlay).
void BM_AbortCost(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  bench::ScratchGraph graph("b5_abort");
  auto* ham = graph.ham();
  auto ctx = graph.ctx();
  for (auto _ : state) {
    state.PauseTiming();
    ham->BeginTransaction(ctx);
    for (int i = 0; i < ops; ++i) ham->AddNode(ctx, true);
    state.ResumeTiming();
    ham->AbortTransaction(ctx);
  }
}

BENCHMARK(BM_AbortCost)->Arg(1)->Arg(100)->Arg(1000)->Unit(
    benchmark::kMicrosecond);

// Recovery: reopen a graph whose WAL holds `txns` committed
// transactions on top of the snapshot.
void BM_RecoveryTime(benchmark::State& state) {
  const int txns = static_cast<int>(state.range(0));
  const bool checkpointed = state.range(1) != 0;
  bench::ScratchGraph graph("b5_recover_" + std::to_string(txns) +
                            (checkpointed ? "_cp" : ""));
  auto* ham = graph.ham();
  auto ctx = graph.ctx();
  for (int i = 0; i < txns; ++i) {
    auto added = ham->AddNode(ctx, true);
    ham->ModifyNode(ctx, added->node, added->creation_time,
                    "contents " + std::to_string(i), {}, "");
  }
  if (checkpointed) ham->Checkpoint(ctx);
  const auto project = graph.project();
  const auto dir = graph.dir();
  ham->CloseGraph(ctx);

  for (auto _ : state) {
    // A fresh engine must re-run recovery from disk.
    ham::HamOptions options;
    options.sync_commits = false;
    ham::Ham fresh(graph.env(), options);
    auto opened = fresh.OpenGraph(project, "local", dir);
    benchmark::DoNotOptimize(opened);
    fresh.CloseGraph(*opened);
  }
  state.counters["wal_txns"] = checkpointed ? 0 : txns;
}

BENCHMARK(BM_RecoveryTime)
    ->ArgsProduct({{100, 1000, 5000}, {0, 1}})
    ->ArgNames({"txns", "checkpointed"})
    ->Unit(benchmark::kMillisecond);

// Checkpoint cost vs graph size.
void BM_CheckpointCost(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  bench::ScratchGraph graph("b5_checkpoint");
  auto* ham = graph.ham();
  auto ctx = graph.ctx();
  for (int i = 0; i < nodes; ++i) {
    graph.MakeNode("node contents " + std::to_string(i));
  }
  for (auto _ : state) {
    ham->Checkpoint(ctx);
  }
  state.counters["nodes"] = nodes;
}

BENCHMARK(BM_CheckpointCost)->Arg(100)->Arg(1000)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace neptune

BENCHMARK_MAIN();
