// Experiment B1 — "effective storage of many versions ... without
// copying each individual item; for nodes this is provided by backward
// deltas similar to RCS" (paper §3).
//
// Measures, for a node that accumulates versions through small edits:
//   * bytes stored by the backward-delta representation vs the
//     full-copy baseline (counter: stored_bytes, ratio)
//   * version-append cost for both representations
//
// Expected shape: delta storage grows with edit size, not contents
// size; full-copy grows with contents size per version; delta wins by
// roughly contents_size / edit_size.
//
// Also times the two per-byte kernels under every version append and
// every framed record: EncodeDelta on a two-line edit, and CRC32C.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/crc32c.h"
#include "delta/byte_delta.h"
#include "delta/version_chain.h"

namespace neptune {
namespace {

using delta::ChainMode;
using delta::VersionChain;

// Args: {versions, contents_size, edit_size}.
void BM_VersionChainStorage(benchmark::State& state, ChainMode mode) {
  const int versions = static_cast<int>(state.range(0));
  const size_t contents_size = static_cast<size_t>(state.range(1));
  const size_t edit_size = static_cast<size_t>(state.range(2));

  size_t stored = 0;
  size_t full = 0;
  for (auto _ : state) {
    Random rng(42);
    std::string text = rng.NextString(contents_size);
    VersionChain chain(mode);
    uint64_t t = 0;
    for (int v = 0; v < versions; ++v) {
      bench::RandomEdit(&rng, &text, edit_size);
      benchmark::DoNotOptimize(chain.Append(++t, text, ""));
      full += text.size();
    }
    stored += chain.StoredBytes();
  }
  state.counters["stored_bytes"] =
      benchmark::Counter(static_cast<double>(stored) / state.iterations());
  state.counters["vs_full_copy"] =
      static_cast<double>(stored) / static_cast<double>(full);
  state.counters["versions"] = versions;
}

void DeltaArgs(benchmark::internal::Benchmark* b) {
  for (int versions : {10, 100, 500}) {
    for (int contents : {4 << 10, 64 << 10}) {
      for (int edit : {16, 256}) {
        b->Args({versions, contents, edit});
      }
    }
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK_CAPTURE(BM_VersionChainStorage, backward_delta,
                  ChainMode::kBackwardDelta)
    ->Apply(DeltaArgs);
BENCHMARK_CAPTURE(BM_VersionChainStorage, full_copy, ChainMode::kFullCopy)
    ->Apply(DeltaArgs);
BENCHMARK_CAPTURE(BM_VersionChainStorage, forward_delta,
                  ChainMode::kForwardDelta)
    ->Apply(DeltaArgs);

// Append latency for one more version on an existing chain.
void BM_VersionAppend(benchmark::State& state, ChainMode mode) {
  const size_t contents_size = static_cast<size_t>(state.range(0));
  Random rng(7);
  std::string text = rng.NextString(contents_size);
  VersionChain chain(mode);
  uint64_t t = 0;
  chain.Append(++t, text, "");
  for (auto _ : state) {
    bench::RandomEdit(&rng, &text, 64);
    benchmark::DoNotOptimize(chain.Append(++t, text, ""));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(contents_size));
}

BENCHMARK_CAPTURE(BM_VersionAppend, backward_delta, ChainMode::kBackwardDelta)
    ->Arg(4 << 10)
    ->Arg(64 << 10)
    ->Arg(512 << 10);
BENCHMARK_CAPTURE(BM_VersionAppend, full_copy, ChainMode::kFullCopy)
    ->Arg(4 << 10)
    ->Arg(64 << 10)
    ->Arg(512 << 10);

// End-to-end: the same comparison through the full HAM (WAL + commit),
// archive node vs file node.
void BM_HamModifyNode(benchmark::State& state) {
  const bool archive = state.range(0) != 0;
  const size_t contents_size = static_cast<size_t>(state.range(1));
  bench::ScratchGraph graph("b1_modify");
  Random rng(11);
  std::string text = rng.NextString(contents_size);
  auto added = graph.ham()->AddNode(graph.ctx(), archive);
  ham::Time expected = added->creation_time;
  for (auto _ : state) {
    bench::RandomEdit(&rng, &text, 64);
    benchmark::DoNotOptimize(graph.ham()->ModifyNode(
        graph.ctx(), added->node, expected, text, {}, ""));
    expected = *graph.ham()->GetNodeTimeStamp(graph.ctx(), added->node);
  }
}

BENCHMARK(BM_HamModifyNode)
    ->ArgsProduct({{1, 0}, {4 << 10, 64 << 10}})
    ->ArgNames({"archive", "bytes"});

// CRC32C over `range(0)` bytes (a small RPC message, a page, a
// snapshot-sized blob).
void BM_Crc32c(benchmark::State& state) {
  Random rng(3720);
  const std::string data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["sse42"] = crc32c::internal::UsesSse42() ? 1 : 0;
}

BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(1 << 20);

// EncodeDelta of a node of `range(0)` 40-character lines against the
// same node with two lines rewritten: the shape of a document check-in.
void BM_EncodeDelta(benchmark::State& state) {
  const size_t lines = static_cast<size_t>(state.range(0));
  Random rng(17);
  std::string base;
  for (size_t l = 0; l < lines; ++l) base += rng.NextString(40) + "\n";
  std::string target = base;
  for (size_t line : {lines / 3, 2 * lines / 3}) {
    target.replace(line * 41, 40, rng.NextString(40));
  }
  size_t script_bytes = 0;
  for (auto _ : state) {
    const std::string script = delta::EncodeDelta(base, target);
    script_bytes = script.size();
    benchmark::DoNotOptimize(script.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(target.size()));
  state.counters["script_bytes"] = static_cast<double>(script_bytes);
}

BENCHMARK(BM_EncodeDelta)->Arg(24)->Arg(48)->Arg(100);

}  // namespace
}  // namespace neptune

BENCHMARK_MAIN();
