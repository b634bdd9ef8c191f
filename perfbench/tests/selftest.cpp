// perfbench/tests/selftest.cpp
//
// Self-tests of the benchmark (not of the library): seeded inputs are
// reproducible, the heat oracle agrees with the library's sequential
// run, a wrong output is counted as failed, and the traced layer rows
// plus `unattributed` add up to the op wall time.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <string>

#include "lib/inputs.hpp"
#include "lib/oracle.hpp"
#include "lib/workloads.hpp"
#include "exec/executor.hpp"
#include "graph/serialize.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "[ ok ]" : "[FAIL]", what);
  if (!cond) ++failures;
}

void same_seed_same_inputs() {
  using namespace perfbench;
  expect(edit_loop_inputs(11, 40) == edit_loop_inputs(11, 40),
         "edit_loop: same seed, byte-identical inputs");
  expect(edit_loop_inputs(11, 40) != edit_loop_inputs(12, 40),
         "edit_loop: another seed, other inputs");
  expect(stream_pipeline_inputs(11, 300) == stream_pipeline_inputs(11, 300),
         "stream_pipeline: same seed, byte-identical inputs");
  expect(stream_pipeline_inputs(11, 300) != stream_pipeline_inputs(12, 300),
         "stream_pipeline: another seed, other inputs");
  expect(serve_mix_inputs(11, 24) == serve_mix_inputs(11, 24),
         "serve_mix: same seed, byte-identical inputs");
  expect(serve_mix_inputs(11, 24) != serve_mix_inputs(12, 24),
         "serve_mix: another seed, other inputs");
}

void oracle_matches_run_sequential() {
  using namespace perfbench;
  HeatDesign d(3, 4, 3, "0.2");
  Rng rng(5);
  for (auto& a : d.alpha) a = edit_alpha(rng);
  d.at(2, 1) = unique_alpha(0, 42);
  const auto rod = make_rod(rng, d.rod_size());
  const auto flat =
      banger::graph::parse_design(HeatText(d).text()).flatten();
  const auto run = banger::exec::run_sequential(
      flat, {{"rod", banger::pits::Value(banger::pits::Vector(rod))}});
  const auto* got = run.outputs.at("result").vector_if();
  expect(got != nullptr && *got == heat_reference(d, rod),
         "heat oracle == exec::run_sequential on a 3x4x3 design");
  expect(flat.graph.num_tasks() == d.tasks(), "oracle task count");
}

void wrong_output_counts_as_failed() {
  using namespace perfbench;
  for (const char* w : {"edit_loop", "serve_mix", "stream_pipeline"}) {
    Options opt;
    opt.workload = w;
    opt.seed = 3;
    opt.max_ops = 12;
    const RunResult clean = std::string(w) == "edit_loop" ? run_edit_loop(opt)
                            : std::string(w) == "serve_mix"
                                ? run_serve_mix(opt)
                                : run_stream_pipeline(opt);
    opt.inject_wrong_every = 4;
    const RunResult bad = std::string(w) == "edit_loop" ? run_edit_loop(opt)
                          : std::string(w) == "serve_mix"
                              ? run_serve_mix(opt)
                              : run_stream_pipeline(opt);
    const std::string name = w;
    expect(clean.setup_ok && clean.attempted > 0 && clean.failed == 0,
           (name + ": unchanged code, 0 failed").c_str());
    // Each client counts its own ops and corrupts every 4th output.
    expect(bad.failed > 0 && bad.failed == bad.attempted / 4,
           (name + ": each injected wrong output counted as failed").c_str());
    expect(bad.json().find("\"correct\": false") != std::string::npos,
           (name + ": a failed op makes the run incorrect").c_str());
  }
}

void traced_rows_sum_to_wall() {
  using namespace perfbench;
  Options opt;
  opt.workload = "edit_loop";
  opt.seed = 4;
  opt.trace = true;
  opt.max_ops = 6;
  const RunResult r = run_edit_loop(opt);
  double rows = 0.0;
  double wall = 0.0;
  double unattributed = 0.0;
  for (const auto& m : r.metrics) {
    if (m.name == "op.wall_ms") {
      wall = m.value;
    } else if (m.name == "op.unattributed_ms") {
      unattributed = m.value;
    } else if (m.unit == "ms" && m.name.rfind("serve.", 0) != 0 &&
               m.name.rfind("stream.", 0) != 0) {
      rows += m.value;
    }
  }
  expect(wall > 0 && std::fabs(rows + unattributed - wall) <= 1e-9 * wall,
         "traced layer rows + unattributed == op wall");
  expect(wall > 0 && unattributed < 0.05 * wall,
         "traced edit_loop attributes >= 95% of op wall to layers");
}

}  // namespace

int main() {
  same_seed_same_inputs();
  oracle_matches_run_sequential();
  wrong_output_counts_as_failed();
  traced_rows_sum_to_wall();
  std::printf("%s (%d failed)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
