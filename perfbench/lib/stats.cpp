// perfbench/lib/stats.cpp
#include "lib/stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Phase::merge(const Phase& other) {
  ops += other.ops;
  failed += other.failed;
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  probes.insert(probes.end(), other.probes.begin(), other.probes.end());
}

void Phase::probe(double t) { probes.push_back({t, probe_ms(), true}); }

double probe_ms() {
  static const std::string bytes = [] {
    std::string b(std::size_t{1} << 18, '\0');
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (char& c : b) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = static_cast<char>(x);
    }
    return b;
  }();
  const double t0 = now_s();
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  std::map<std::string, std::uint64_t> m;
  std::uint64_t x = h | 1;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m["routine_" + std::to_string(x % 5000)] += i;
  }
  std::vector<double> cur(4096, 0.0);
  std::vector<double> next(cur.size(), 0.0);
  cur[static_cast<std::size_t>(h % cur.size())] = 100.0;
  for (int step = 0; step < 16; ++step) {
    for (std::size_t i = 0; i < cur.size(); ++i) {
      const double l = i > 0 ? cur[i - 1] : 0.0;
      const double r = i + 1 < cur.size() ? cur[i + 1] : 0.0;
      next[i] = cur[i] + 0.2 * (l - 2 * cur[i] + r);
    }
    cur.swap(next);
  }
  const double t1 = now_s();
  // Fold the results into something observable so no step is elided.
  static volatile double sink = 0.0;
  sink = sink + static_cast<double>(m.size()) + cur[7];
  return (t1 - t0) * 1e3;
}

std::vector<double> Phase::ms(Class c) const {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (c == Class::All || s.warm == (c == Class::Warm)) out.push_back(s.ms);
  }
  return out;
}

void RunResult::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

std::string RunResult::json() const {
  const bool correct = setup_ok && failed == 0 && attempted > 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

namespace {

/// Median of one metric over the windows of a phase (or over set-ups),
/// with the values it is taken from.
struct Windowed {
  std::vector<double> per_window;
  [[nodiscard]] double median() const { return quantile(per_window, 0.5); }
};

void report(RunResult& result, const char* name, const char* unit,
            const Windowed& w, const std::string& note) {
  std::string values;
  char buf[32];
  for (const double v : w.per_window) {
    std::snprintf(buf, sizeof buf, " %.4g", v);
    values += buf;
  }
  std::printf("# %-12s %10.4f  (median of:%s; %s)\n", name, w.median(),
              values.c_str(), note.c_str());
  result.add(name, w.median(), unit);
}

}  // namespace

void add_end_to_end(RunResult& result, const std::vector<double>& setup_s,
                    const std::vector<double>& setup_probe_ms,
                    const Phase& phase, double probe_exponent) {
  // Split the phase into kWindows equal spans by op completion time.
  const double len = phase.seconds / kWindows;
  const auto window_of = [&](double t) {
    const int w =
        len > 0 ? std::min(kWindows - 1, static_cast<int>(t / len)) : 0;
    return static_cast<std::size_t>(w);
  };
  std::vector<Phase> windows(kWindows);
  for (const Sample& s : phase.samples) {
    windows[window_of(s.t)].samples.push_back(s);
  }
  for (const Sample& s : phase.probes) {
    windows[window_of(s.t)].probes.push_back(s);
  }
  Windowed slowness;
  Windowed raw_rate;
  Windowed raw_p50;
  Windowed rate;
  Windowed p50;
  Windowed p90;
  Windowed warm;
  Windowed cold;
  for (const Phase& w : windows) {
    std::vector<double> probe;
    for (const Sample& s : w.probes) probe.push_back(s.ms);
    const double slowness_w =
        probe.empty() ? 1.0 : quantile(probe, 0.5) / kProbeReferenceMs;
    const double slow = std::pow(slowness_w, probe_exponent);
    const double ops_per_s =
        len > 0 ? static_cast<double>(w.samples.size()) / len : 0.0;
    slowness.per_window.push_back(slowness_w);
    raw_rate.per_window.push_back(ops_per_s);
    rate.per_window.push_back(ops_per_s * slow);
    if (w.samples.empty()) continue;
    raw_p50.per_window.push_back(quantile(w.ms(), 0.5));
    p50.per_window.push_back(quantile(w.ms(), 0.5) / slow);
    p90.per_window.push_back(quantile(w.ms(), 0.9) / slow);
    const auto wm = w.ms(Phase::Class::Warm);
    const auto cm = w.ms(Phase::Class::Cold);
    if (!wm.empty()) warm.per_window.push_back(quantile(wm, 0.5) / slow);
    if (!cm.empty()) cold.per_window.push_back(quantile(cm, 0.5) / slow);
  }
  Windowed setup;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    const double slow =
        i < setup_probe_ms.size()
            ? std::pow(setup_probe_ms[i] / kProbeReferenceMs, probe_exponent)
            : 1.0;
    setup.per_window.push_back(setup_s[i] / slow);
  }
  std::printf("# host slowness (probe / %.3f ms): set-ups %.3f, windows:",
              kProbeReferenceMs,
              quantile(setup_probe_ms, 0.5) / kProbeReferenceMs);
  for (const double v : slowness.per_window) std::printf(" %.3f", v);
  std::printf(" (%zu probes; times scaled by slowness^%g)\n",
              phase.probes.size(), probe_exponent);
  std::printf("# unscaled: ops_per_s %.4f p50_ms %.4f\n", raw_rate.median(),
              raw_p50.median());
  report(result, "setup_s", "s", setup,
         std::to_string(setup_s.size()) + " set-ups");
  const auto n = [&](Phase::Class c) {
    return "n=" + std::to_string(phase.ms(c).size());
  };
  char note[96];
  std::snprintf(note, sizeof note, "%llu ops in %.2f s",
                static_cast<unsigned long long>(phase.ops), phase.seconds);
  report(result, "ops_per_s", "1/s", rate, note);
  report(result, "p50_ms", "ms", p50, n(Phase::Class::All));
  report(result, "p90_ms", "ms", p90, n(Phase::Class::All));
  report(result, "warm_p50_ms", "ms", warm, n(Phase::Class::Warm));
  report(result, "cold_p50_ms", "ms", cold, n(Phase::Class::Cold));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
