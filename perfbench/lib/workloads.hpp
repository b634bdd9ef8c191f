// perfbench/lib/workloads.hpp
//
// The three workloads of the end-to-end benchmark. Each one generates
// its inputs from the seed, sets up (several times, reporting the
// median), runs a closed loop for the requested seconds, checks every
// op's output against the benchmark's own oracle, and returns its
// metrics. See perfbench/README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lib/inputs.hpp"
#include "lib/stats.hpp"
#include "lib/tracing.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: half the time untraced, half traced; reports the
  /// per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its Perfetto JSON ("" = nowhere).
  std::string trace_out;
  /// Stop each timed phase after this many ops (0 = run for `seconds`).
  std::uint64_t max_ops = 0;
  /// Corrupt the output of every k-th op before it is checked (0 =
  /// never); lets the self-tests prove a wrong output counts as failed.
  int inject_wrong_every = 0;
};

/// Set-ups per run; the median is reported as setup_s.
inline constexpr int kSetupReps = 9;

/// Threads a workload keeps busy at once, checked against nproc.
struct ThreadBudget {
  int main = 1;  ///< the benchmark's own thread
  int clients = 0;
  int workers = 0;
  [[nodiscard]] int total() const { return main + clients + workers; }
};
ThreadBudget thread_budget(const std::string& workload);

/// True while a phase that started at `start` should issue another op.
bool keep_going(const Options& opt, double start, double seconds,
                std::uint64_t ops);

/// Per-layer counts a workload reads from the library's own counters
/// over the traced phase. Layers a workload leaves idle stay 0.
struct LayerCounts {
  /// exec::program_cache() deltas.
  double compile_hits = 0.0;
  double compile_misses = 0.0;
  double compile_evictions = 0.0;
  /// Server::cache_stats() deltas and per-request payload sizes.
  double serve_hits = 0.0;
  double serve_lookups = 0.0;
  double serve_evictions = 0.0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  /// StreamReport ratios.
  double stream_busy_ratio = 0.0;
  double stream_full_stalls_per_batch = 0.0;
  double stream_empty_stalls_per_batch = 0.0;
  double stream_avg_occupancy = 0.0;
};

/// Snapshot of the process-wide compile cache, for LayerCounts deltas.
struct CompileSnapshot {
  CompileSnapshot();
  void delta_into(LayerCounts& counts) const;
  std::uint64_t hits;
  std::uint64_t misses;
  std::uint64_t evictions;
};

/// Folds a traced run's two phases into `result`: op counts of both
/// phases, the tracing overhead (traced vs untraced p50_ms), the
/// per-layer table on stdout, the Perfetto file, and every per-layer
/// metric.
void finish_traced(RunResult& result, const Phase& untraced,
                   const Phase& traced, const LayerTracer& tracer,
                   const LayerCounts& counts, const Options& opt);

RunResult run_edit_loop(const Options& opt);
RunResult run_serve_mix(const Options& opt);
RunResult run_stream_pipeline(const Options& opt);

/// The first `ops` generated inputs of a workload, rendered as text; the
/// self-tests compare it across runs of one seed.
std::string edit_loop_inputs(std::uint64_t seed, int ops);
std::string serve_mix_inputs(std::uint64_t seed, int ops);
std::string stream_pipeline_inputs(std::uint64_t seed, int ops);

}  // namespace perfbench
