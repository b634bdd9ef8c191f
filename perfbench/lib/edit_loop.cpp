// perfbench/lib/edit_loop.cpp
//
// edit_loop: one closed-loop client plays the paper's design loop on the
// 16x16 heat rod (273 tasks). Each op is one edit followed by all of its
// feedback: parse -> validate -> flatten -> analyze -> schedule (MH) +
// validate -> simulate -> Gantt -> trial run -> scheduled run on three
// fully connected processors.
//
// Most ops are warm: the edit changes one seeded stencil task's
// diffusion constant, so every other routine hits the compile cache. One
// op in kColdOneIn is cold: a fresh design whose stencil
// routines are all new, so compile-cache inserts (and, once a generation
// fills, evictions) sit beside the hits. Each block of kColdOneIn ops
// holds exactly one cold op at a seeded position, so every seed runs the
// same mix.
#include <cmath>
#include <cstdio>
#include <exception>

#include "analyze/analyze.hpp"
#include "lib/oracle.hpp"
#include "lib/workloads.hpp"
#include "exec/executor.hpp"
#include "exec/plan.hpp"
#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "viz/gantt.hpp"

namespace perfbench {
namespace {

constexpr int kSegments = 16;
constexpr int kSteps = 16;
constexpr int kCells = 4;
constexpr int kColdOneIn = 6;
constexpr int kWarmupOps = 2;
constexpr std::uint64_t kProbeEvery = 4;  // ops between speed probes
/// When the host's speed changes, an edit's time moves about 1.5-2x as
/// much as the probe's in log terms (probably because analyze_design,
/// 70% of an edit, works on far more memory than the probe). Fitted on
/// per-window probe and op times of 4-minute and 10x25-second runs; 1.5
/// gave the lowest worst-case run-to-run spread over five such samples
/// (0.12, against 0.19 at 1).
constexpr double kProbeExponent = 1.5;

struct EditOp {
  bool cold = false;
  int t = 1;
  int s = 0;
  std::string alpha;
  std::vector<double> rod;
};

/// The seeded edit sequence: op i is the i-th call to next().
class EditScript {
 public:
  explicit EditScript(std::uint64_t seed)
      : rng_(derive_seed(seed, 1)), cold_base_(derive_seed(seed, 2)) {}

  EditOp next() {
    EditOp op;
    if (count_ % kColdOneIn == 0) cold_slot_ = rng_.below(kColdOneIn);
    op.cold = count_++ % kColdOneIn == cold_slot_;
    if (op.cold) {
      op.alpha = unique_alpha(0, cold_base_ + cold_count_++);
    } else {
      op.t = 1 + static_cast<int>(rng_.below(kSteps));
      op.s = static_cast<int>(rng_.below(kSegments));
      op.alpha = edit_alpha(rng_);
    }
    op.rod = make_rod(rng_, static_cast<std::size_t>(kSegments) * kCells);
    return op;
  }

 private:
  Rng rng_;
  std::uint64_t cold_base_;
  std::uint64_t cold_count_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t cold_slot_ = 0;
};

void apply(const EditOp& op, HeatText& text) {
  if (op.cold) {
    text.set_all(op.alpha);
  } else {
    text.set_alpha(op.t, op.s, op.alpha);
  }
}

struct EditState {
  explicit EditState(std::uint64_t seed)
      : machine(banger::machine::parse_machine(tri3_machine_text())),
        text(HeatDesign(kSegments, kSteps, kCells, "0.2")),
        script(seed) {}

  banger::machine::Machine machine;
  HeatText text;
  EditScript script;
  /// Gantt of the first op. Edits change PITS constants only, never the
  /// task graph, so every later schedule must render identically.
  std::string gantt_ref;
};

/// Outputs of one op's library calls, checked after the op's clock
/// stops.
struct Feedback {
  std::size_t errors = 0;
  double planned = 0.0;
  double simulated = -1.0;
  bool sim_complete = false;
  std::string gantt;
  banger::pits::Vector trial;
  banger::pits::Vector run;
};

const banger::pits::Vector* result_of(const banger::exec::RunResult& r) {
  const auto it = r.outputs.find("result");
  return it == r.outputs.end() ? nullptr : it->second.vector_if();
}

/// Runs one edit's feedback loop; returns false on any wrong output.
bool edit_op(EditState& st, LayerTracer& tr, std::uint64_t id,
             const std::vector<double>& rod, bool corrupt, double& ms) {
  namespace b = banger;
  const std::string pitl = st.text.text();
  const std::map<std::string, b::pits::Value> inputs = {
      {"rod", b::pits::Value(b::pits::Vector(rod))}};
  Feedback fb;
  const double t0 = now_s();
  try {
    auto design = tr.call(0, id, "graph.parse",
                          [&] { return b::graph::parse_design(pitl); });
    tr.call(0, id, "graph.validate", [&] { design.validate(); });
    const auto flat =
        tr.call(0, id, "graph.flatten", [&] { return design.flatten(); });
    const auto diags = tr.call(0, id, "analyze.check", [&] {
      return b::analyze::analyze_design(design);
    });
    const auto schedule = tr.call(0, id, "sched.schedule", [&] {
      return b::sched::make_scheduler("mh")->run(flat.graph, st.machine);
    });
    tr.call(0, id, "sched.validate",
            [&] { schedule.validate(flat.graph, st.machine); });
    const auto sim = tr.call(0, id, "sim.simulate", [&] {
      return b::sim::simulate(flat.graph, st.machine, schedule);
    });
    fb.gantt = tr.call(0, id, "viz.gantt", [&] {
      return b::viz::render_gantt(schedule, flat.graph);
    });
    const auto trial = tr.call(0, id, "exec.trial", [&] {
      return b::exec::run_sequential(flat, inputs);
    });
    const auto run = tr.call(0, id, "exec.run", [&] {
      return b::exec::Executor(flat, st.machine).run(schedule, inputs);
    });
    const double t1 = now_s();
    tr.op(0, id, "edit", t0, t1);
    ms = (t1 - t0) * 1e3;

    for (const auto& d : diags) {
      if (d.severity == b::analyze::Severity::Error) ++fb.errors;
    }
    fb.planned = schedule.makespan();
    fb.simulated = sim.makespan;
    fb.sim_complete = sim.complete;
    if (const auto* v = result_of(trial)) fb.trial = *v;
    if (const auto* v = result_of(run)) fb.run = *v;
  } catch (const std::exception& e) {
    const double t1 = now_s();
    tr.op(0, id, "edit", t0, t1);
    ms = (t1 - t0) * 1e3;
    std::fprintf(stderr, "edit op %llu threw: %s\n",
                 static_cast<unsigned long long>(id), e.what());
    return false;
  }

  if (corrupt && !fb.trial.empty()) fb.trial[0] += 1.0;
  const auto expected = heat_reference(st.text.design(), rod);
  if (st.gantt_ref.empty()) st.gantt_ref = fb.gantt;
  return fb.errors == 0 && fb.sim_complete &&
         std::fabs(fb.simulated - fb.planned) <= 1e-9 * std::fabs(fb.planned) &&
         !fb.gantt.empty() && fb.gantt == st.gantt_ref &&
         fb.trial == expected && fb.run == expected;
}

Phase timed_phase(EditState& st, LayerTracer& tr, const Options& opt,
                  double seconds, std::uint64_t& next_id) {
  Phase p;
  const double start = now_s();
  while (keep_going(opt, start, seconds, p.ops)) {
    const EditOp op = st.script.next();
    apply(op, st.text);
    const std::uint64_t id = next_id++;
    const bool corrupt = opt.inject_wrong_every > 0 &&
                         (p.ops + 1) % opt.inject_wrong_every == 0;
    double ms = 0.0;
    const bool ok = edit_op(st, tr, id, op.rod, corrupt, ms);
    ++p.ops;
    if (!ok) ++p.failed;
    p.add(now_s() - start, ms, !op.cold);
    if (p.ops % kProbeEvery == 0) p.probe(now_s() - start);
  }
  p.seconds = now_s() - start;
  return p;
}

}  // namespace

std::string edit_loop_inputs(std::uint64_t seed, int ops) {
  EditState st(seed);
  std::string out = tri3_machine_text() + st.text.text();
  for (int i = 0; i < ops; ++i) {
    const EditOp op = st.script.next();
    apply(op, st.text);
    out += "--- op " + std::to_string(i) + " rod=" + rod_expr(op.rod) + "\n";
    out += st.text.text();
  }
  return out;
}

RunResult run_edit_loop(const Options& opt) {
  RunResult result;
  std::vector<double> setup_s;
  std::vector<double> setup_probe;
  std::unique_ptr<EditState> st;
  LayerTracer off(false);
  std::uint64_t id = 0;
  // Set-up: generate inputs, parse the machine, and run warm-up ops on
  // the base design so the compile cache holds its routines.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_probe.push_back(probe_ms());
    const double t0 = now_s();
    st = std::make_unique<EditState>(opt.seed);
    Rng warm_rng(derive_seed(opt.seed, 3));
    for (int i = 0; i < kWarmupOps; ++i) {
      const auto rod = make_rod(warm_rng, st->text.design().rod_size());
      double ms = 0.0;
      if (!edit_op(*st, off, id++, rod, false, ms)) result.setup_ok = false;
    }
    setup_s.push_back(now_s() - t0);
  }

  if (!opt.trace) {
    const Phase p = timed_phase(*st, off, opt, opt.seconds, id);
    result.attempted = p.ops;
    result.failed = p.failed;
    add_end_to_end(result, setup_s, setup_probe, p, kProbeExponent);
    return result;
  }

  const Phase untraced = timed_phase(*st, off, opt, opt.seconds / 2, id);
  LayerTracer tracer(true);
  const CompileSnapshot compile;
  const Phase traced = timed_phase(*st, tracer, opt, opt.seconds / 2, id);
  LayerCounts counts;
  compile.delta_into(counts);
  finish_traced(result, untraced, traced, tracer, counts, opt);
  return result;
}

}  // namespace perfbench
