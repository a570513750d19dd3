// Randomized crash-recovery harness: run a scripted transaction
// workload, cut the power at *every* fsync point of that workload (one
// run per cut point), recover, and check the durability contract:
//
//   - every transaction whose commit was acknowledged is fully there,
//   - explicitly aborted transactions never come back,
//   - the single commit in flight at the cut is allowed to be either
//     fully present or fully absent (the crash raced its fsync), but
//     never half-applied,
//   - nothing else exists.
//
// Extra torn-write randomness comes from the FaultInjectionEnv seed;
// set NEPTUNE_CRASH_SEEDS=7,1234 to sweep additional seeds. Set
// NEPTUNE_RECOVERY_LOG=/path to append one RecoveryReport line per
// crash point (the CI crash-soak job archives this).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "ham/ham.h"
#include "storage/durable_store.h"
#include "storage/fault_injection_env.h"

namespace neptune {
namespace {

constexpr int kSteps = 220;  // ~200 commits + 8 checkpoints => >200 syncs

struct Acked {
  ham::NodeIndex node;
  std::string payload;
};

// One scripted pass over the workload against `engine`. Every step is a
// transaction: most Begin/AddNode/ModifyNode/Commit a payload node,
// every 10th stages a node and aborts it, every 25th checkpoints.
// Returns as soon as the simulated machine dies. `acked` collects
// commits that were acknowledged; `in_flight` the one commit (if any)
// whose fate the crash left undecided.
void RunWorkload(ham::Ham* engine, ham::Context ctx,
                 std::vector<Acked>* acked, std::optional<Acked>* in_flight,
                 FaultInjectionEnv* env) {
  for (int i = 1; i <= kSteps && !env->down(); ++i) {
    if (!engine->BeginTransaction(ctx).ok()) continue;
    auto added = engine->AddNode(ctx, /*keep_history=*/true);
    if (!added.ok()) {
      engine->AbortTransaction(ctx);
      continue;
    }
    const std::string payload =
        (i % 10 == 0 ? "aborted-" : "payload-") + std::to_string(i);
    if (!engine
             ->ModifyNode(ctx, added->node, added->creation_time, payload, {},
                          "")
             .ok()) {
      engine->AbortTransaction(ctx);
      continue;
    }
    if (i % 10 == 0) {
      engine->AbortTransaction(ctx);
      continue;
    }
    const bool was_up = !env->down();
    if (engine->CommitTransaction(ctx).ok()) {
      acked->push_back({added->node, payload});
    } else if (was_up && env->down() && !in_flight->has_value()) {
      // The power died during *this* commit's fsync: its record bytes
      // hit the file but were never acknowledged. Recovery may keep or
      // drop it.
      *in_flight = Acked{added->node, payload};
    }
    if (i % 25 == 0) engine->Checkpoint(ctx);
  }
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("neptune_crash_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name())))
               .string();
    Env::Default()->RemoveDirRecursive(dir_);
  }
  void TearDown() override { Env::Default()->RemoveDirRecursive(dir_); }

  std::string dir_;
};

// Counts the fsyncs a clean (fault-free) pass performs after the graph
// exists — the space of crash points.
uint64_t CleanRunSyncPoints(const std::string& dir) {
  FaultInjectionEnv env(Env::Default());
  ham::HamOptions options;
  options.sync_commits = true;
  ham::Ham engine(&env, options);
  auto created = engine.CreateGraph(dir, 0755);
  EXPECT_TRUE(created.ok());
  const uint64_t create_syncs = env.syncs();
  auto ctx = engine.OpenGraph(created->project, "local", dir);
  EXPECT_TRUE(ctx.ok());
  std::vector<Acked> acked;
  std::optional<Acked> in_flight;
  RunWorkload(&engine, *ctx, &acked, &in_flight, &env);
  EXPECT_FALSE(in_flight.has_value());
  EXPECT_EQ(acked.size(), static_cast<size_t>(kSteps - kSteps / 10));
  return env.syncs() - create_syncs;
}

void CheckOneCrashPoint(const std::string& dir, uint64_t cut, uint64_t seed,
                        std::ofstream* recovery_log) {
  SCOPED_TRACE("cut=" + std::to_string(cut) + " seed=" + std::to_string(seed));
  Env::Default()->RemoveDirRecursive(dir);
  FaultInjectionEnv env(Env::Default(), seed);
  ham::HamOptions options;
  options.sync_commits = true;

  std::vector<Acked> acked;
  std::optional<Acked> in_flight;
  ham::ProjectId project;
  {
    ham::Ham engine(&env, options);
    auto created = engine.CreateGraph(dir, 0755);
    ASSERT_TRUE(created.ok());
    project = created->project;
    auto ctx = engine.OpenGraph(project, "local", dir);
    ASSERT_TRUE(ctx.ok());
    env.PowerCutAtSync(env.syncs() + cut);
    RunWorkload(&engine, *ctx, &acked, &in_flight, &env);
    EXPECT_TRUE(env.down()) << "workload finished before the scheduled cut";
  }

  // The machine comes back; what does recovery make of the debris?
  env.Restart();
  env.Heal();
  {
    RecoveredState state;
    auto store = DurableStore::Open(&env, dir, &state);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    if (recovery_log != nullptr && recovery_log->is_open()) {
      *recovery_log << "cut=" << cut << " seed=" << seed << ' '
                    << state.report.ToString() << '\n';
    }
  }

  ham::Ham engine(&env, options);
  auto ctx = engine.OpenGraph(project, "local", dir);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();

  // 1) Every acknowledged commit survived, contents intact.
  for (const Acked& txn : acked) {
    auto opened = engine.OpenNode(*ctx, txn.node, 0, {});
    ASSERT_TRUE(opened.ok()) << "lost committed node " << txn.node << ": "
                             << opened.status().ToString();
    EXPECT_EQ(opened->contents, txn.payload);
  }

  // 2) The in-flight commit is all-or-nothing.
  size_t survivors = acked.size();
  if (in_flight.has_value()) {
    auto opened = engine.OpenNode(*ctx, in_flight->node, 0, {});
    if (opened.ok()) {
      EXPECT_EQ(opened->contents, in_flight->payload)
          << "in-flight commit resurrected half-applied";
      ++survivors;
    } else {
      EXPECT_TRUE(opened.status().IsNotFound())
          << opened.status().ToString();
    }
  }

  // 3) Nothing else exists — in particular no aborted transaction.
  auto stats = engine.GetStats(*ctx);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->node_count, survivors)
      << "recovery resurrected an aborted or phantom transaction";
}

TEST_F(CrashRecoveryTest, EveryFsyncPointIsSurvivable) {
  const uint64_t sync_points = CleanRunSyncPoints(dir_);
  ASSERT_GE(sync_points, 200u)
      << "workload too small to satisfy the >=200 crash-point bar";

  std::vector<uint64_t> seeds = {1};
  if (const char* extra = std::getenv("NEPTUNE_CRASH_SEEDS")) {
    std::stringstream ss(extra);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
    }
  }
  std::ofstream recovery_log;
  if (const char* path = std::getenv("NEPTUNE_RECOVERY_LOG")) {
    recovery_log.open(path, std::ios::app);
  }

  for (uint64_t seed : seeds) {
    for (uint64_t cut = 0; cut < sync_points; ++cut) {
      CheckOneCrashPoint(dir_, cut, seed, &recovery_log);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Two writers commit on one graph at once, so commits share group
// fsyncs and a cut can land while one writer's commit is pending behind
// the other's fsync. Every acked commit must survive byte for byte;
// every unacked one (its commit failed or never returned OK) must be
// fully present or fully absent; nothing else may exist.
// Reopens `dir` after a power cut and checks every acked commit is
// there, and that nothing but acked and unacked commits is.
void ExpectAckedSurvive(FaultInjectionEnv* env, const ham::HamOptions& options,
                        const std::string& dir, ham::ProjectId project,
                        const std::vector<Acked>& acked,
                        const std::vector<Acked>& unacked) {
  env->Restart();
  env->Heal();
  ham::Ham engine(env, options);
  auto ctx = engine.OpenGraph(project, "local", dir);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  for (const Acked& txn : acked) {
    auto opened = engine.OpenNode(*ctx, txn.node, 0, {});
    ASSERT_TRUE(opened.ok()) << "lost acked node " << txn.node << ": "
                             << opened.status().ToString();
    EXPECT_EQ(opened->contents, txn.payload);
  }
  size_t survivors = acked.size();
  for (const Acked& txn : unacked) {
    auto opened = engine.OpenNode(*ctx, txn.node, 0, {});
    if (opened.ok()) {
      EXPECT_EQ(opened->contents, txn.payload)
          << "unacked commit recovered half-applied";
      ++survivors;
    } else {
      EXPECT_TRUE(opened.status().IsNotFound()) << opened.status().ToString();
    }
  }
  auto stats = engine.GetStats(*ctx);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->node_count, survivors)
      << "recovery resurrected an aborted or phantom transaction";
}

// Two writers commit concurrently under group commit; the power is cut
// at every 5th fsync point. With `concurrent_open` each writer opens
// its own session at the same moment, so the first open of the graph
// races between them.
void RunTwoWritersPowerCut(const std::string& dir, bool concurrent_open) {
  constexpr int kWriters = 2;
  constexpr int kStepsPerWriter = 30;
  constexpr uint64_t kCutStride = 5;
  constexpr uint64_t kMaxCut = 60;
  for (uint64_t cut = 0; cut <= kMaxCut; cut += kCutStride) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    Env::Default()->RemoveDirRecursive(dir);
    FaultInjectionEnv env(Env::Default(), /*seed=*/cut + 1);
    // A slow fsync lets the other writer append while one is in flight;
    // those bytes stay unsynced, so a leader that claims them gets caught.
    env.SetSyncLatencyMicros(200);
    ham::HamOptions options;
    options.sync_commits = true;

    std::mutex mu;
    std::vector<Acked> acked;
    std::vector<Acked> unacked;
    ham::ProjectId project = 0;
    {
      ham::Ham engine(&env, options);
      auto created = engine.CreateGraph(dir, 0755);
      ASSERT_TRUE(created.ok());
      project = created->project;
      std::vector<ham::Context> contexts(kWriters);
      if (!concurrent_open) {
        for (ham::Context& ctx : contexts) {
          auto opened = engine.OpenGraph(project, "local", dir);
          ASSERT_TRUE(opened.ok());
          ctx = *opened;
        }
      }
      env.PowerCutAtSync(env.syncs() + cut);
      std::latch start(kWriters);
      std::vector<std::thread> writers;
      for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
          ham::Context* ctx = &contexts[w];
          if (concurrent_open) {
            start.arrive_and_wait();
            auto opened = engine.OpenGraph(project, "local", dir);
            if (!opened.ok()) {
              ADD_FAILURE() << opened.status().ToString();
              return;
            }
            *ctx = *opened;
          }
          for (int i = 0; i < kStepsPerWriter && !env.down(); ++i) {
            if (w == 0 && i == kStepsPerWriter / 2) engine.Checkpoint(*ctx);
            if (!engine.BeginTransaction(*ctx).ok()) continue;
            auto added = engine.AddNode(*ctx, /*keep_history=*/true);
            const std::string payload =
                "writer-" + std::to_string(w) + "-" + std::to_string(i);
            if (!added.ok() ||
                !engine
                     .ModifyNode(*ctx, added->node, added->creation_time,
                                 payload, {}, "")
                     .ok()) {
              engine.AbortTransaction(*ctx);
              continue;
            }
            const bool ok = engine.CommitTransaction(*ctx).ok();
            std::lock_guard<std::mutex> lock(mu);
            (ok ? acked : unacked).push_back({added->node, payload});
          }
        });
      }
      for (std::thread& t : writers) t.join();
    }
    ExpectAckedSurvive(&env, options, dir, project, acked, unacked);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST_F(CrashRecoveryTest, TwoWritersPowerCutKeepsAckedCommits) {
  RunTwoWritersPowerCut(dir_, /*concurrent_open=*/false);
}

TEST_F(CrashRecoveryTest, TwoWritersOpeningConcurrentlyKeepAckedCommits) {
  RunTwoWritersPowerCut(dir_, /*concurrent_open=*/true);
}

// Eight sessions open one freshly created graph at the same instant.
// The first opener recovers the store and the rest wait for its handle:
// one recovery, one WAL writer. Commits from every session then survive
// a power cut.
TEST_F(CrashRecoveryTest, ConcurrentFirstOpensShareOneRecovery) {
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 4;
  FaultInjectionEnv env(Env::Default());
  ham::HamOptions options;
  options.sync_commits = true;
  Counter* recoveries =
      MetricsRegistry::Instance().GetCounter("wal.recovery.count");

  std::mutex mu;
  std::vector<Acked> acked;
  std::vector<Acked> unacked;
  ham::ProjectId project = 0;
  {
    ham::Ham engine(&env, options);
    auto created = engine.CreateGraph(dir_, 0755);
    ASSERT_TRUE(created.ok());
    project = created->project;
    const uint64_t recoveries_before = recoveries->Value();
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        auto ctx = engine.OpenGraph(project, "local", dir_);
        if (!ctx.ok()) {
          ADD_FAILURE() << ctx.status().ToString();
          return;
        }
        for (int i = 0; i < kCommitsPerThread; ++i) {
          if (!engine.BeginTransaction(*ctx).ok()) continue;
          auto added = engine.AddNode(*ctx, /*keep_history=*/true);
          const std::string payload =
              "opener-" + std::to_string(t) + "-" + std::to_string(i);
          if (!added.ok() ||
              !engine
                   .ModifyNode(*ctx, added->node, added->creation_time,
                               payload, {}, "")
                   .ok()) {
            engine.AbortTransaction(*ctx);
            continue;
          }
          const bool ok = engine.CommitTransaction(*ctx).ok();
          std::lock_guard<std::mutex> lock(mu);
          (ok ? acked : unacked).push_back({added->node, payload});
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(recoveries->Value() - recoveries_before, 1u);
    EXPECT_EQ(acked.size(), size_t{kThreads * kCommitsPerThread});
    env.PowerCutNow();
  }
  ExpectAckedSurvive(&env, options, dir_, project, acked, unacked);
}

}  // namespace
}  // namespace neptune
