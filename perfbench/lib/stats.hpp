// perfbench/lib/stats.hpp
//
// Samples, percentiles and the result record every workload returns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0
/// for an empty set.
double quantile(std::vector<double> values, double q);

/// One completed op: when it ended (seconds since its phase started),
/// its latency, and its class.
struct Sample {
  double t = 0.0;
  double ms = 0.0;
  bool warm = true;
};

/// One timed phase of a closed loop.
struct Phase {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;
  std::vector<Sample> samples;
  /// Speed-probe timings (t, ms; `warm` unused), see probe_ms().
  std::vector<Sample> probes;

  void add(double t, double ms, bool warm) { samples.push_back({t, ms, warm}); }
  /// Runs the speed probe once and records its time at phase time `t`.
  void probe(double t);
  void merge(const Phase& other);
  /// Latencies of all ops (or only the warm or cold ones).
  enum class Class { All, Warm, Cold };
  [[nodiscard]] std::vector<double> ms(Class c = Class::All) const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a set-up check (warm-up outputs) failed.
  bool setup_ok = true;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// The closing line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;
};

/// Runs a fixed slice of the benchmark's own CPU and memory work
/// (hashing a 256 KiB buffer, 2000 std::map inserts, a heat stencil over
/// 4096 cells) and returns its wall time in ms. It calls no library
/// code, so a change to the library never moves it; only the host's
/// speed does.
double probe_ms();

/// probe_ms() on the reference host: the median seen on a 4-core cloud
/// VM in its usual state. A window whose probes take s times this long
/// ran on a host s times slower than the reference.
inline constexpr double kProbeReferenceMs = 1.35;

/// Windows a timed phase is split into. Each end-to-end metric is
/// computed per window and the median over windows is reported, so a
/// burst of interference covering fewer than half the windows (another
/// tenant on the host, a vCPU descheduled) does not move the result.
inline constexpr int kWindows = 5;

/// The end-to-end metrics every workload reports from an untraced
/// timed phase, printing each one's per-window values and sample count
/// to stdout. Each window's times are divided (and its rate multiplied)
/// by that window's host slowness, the median probe time over
/// kProbeReferenceMs, raised to `probe_exponent`: how many times more
/// (in log terms) the workload's op time moves than the probe's when
/// the host's speed changes. `setup_probe_ms` holds one probe per
/// set-up.
void add_end_to_end(RunResult& result, const std::vector<double>& setup_s,
                    const std::vector<double>& setup_probe_ms,
                    const Phase& phase, double probe_exponent);

/// Wall-clock seconds on the steady clock (arbitrary epoch).
double now_s();

}  // namespace perfbench
