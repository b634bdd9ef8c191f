// Runtime executor tests: sequential trial runs, parallel execution on
// real threads, value routing, determinism, error propagation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <tuple>

#include "exec/executor.hpp"
#include "exec/plan.hpp"
#include "obs/trace.hpp"
#include "sched/heuristics.hpp"
#include "workloads/designs.hpp"
#include "workloads/graphs.hpp"
#include "workloads/lu.hpp"
#include "workloads/synth.hpp"

namespace banger::exec {
namespace {

using pits::Value;
using pits::Vector;

Machine make_machine(int procs) {
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 0.01;
  p.bytes_per_second = 1e6;
  return Machine(machine::Topology::fully_connected(procs), p);
}

std::map<std::string, Value> lu_inputs() {
  // A = [[4,3,2],[8,8,5],[4,7,9]]  (no pivoting needed), b chosen so x = [1,2,3].
  return {{"A", Value(Vector{4, 3, 2, 8, 8, 5, 4, 7, 9})},
          {"b", Value(Vector{4 + 6 + 6, 8 + 16 + 15, 4 + 14 + 27})}};
}

TEST(Sequential, LuSolvesSystem) {
  auto flat = workloads::lu3x3_design().flatten();
  const auto result = run_sequential(flat, lu_inputs());
  ASSERT_TRUE(result.outputs.contains("x"));
  const auto& x = result.outputs.at("x").as_vector();
  ASSERT_EQ(x.size(), 3u);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
  EXPECT_NEAR(x[2], 3.0, 1e-9);
}

TEST(Sequential, StoresEchoInputsAndIntermediates) {
  auto flat = workloads::lu3x3_design().flatten();
  const auto result = run_sequential(flat, lu_inputs());
  EXPECT_TRUE(result.stores.contains("A"));
  EXPECT_TRUE(result.stores.contains("L"));
  EXPECT_TRUE(result.stores.contains("U"));
  // L's diagonal is ones.
  const auto& L = result.stores.at("L").as_vector();
  EXPECT_DOUBLE_EQ(L[0], 1.0);
  EXPECT_DOUBLE_EQ(L[4], 1.0);
  EXPECT_DOUBLE_EQ(L[8], 1.0);
}

TEST(Sequential, RunsRecordTopologicalOrder) {
  auto flat = workloads::lu3x3_design().flatten();
  const auto result = run_sequential(flat, lu_inputs());
  ASSERT_EQ(result.runs.size(), flat.graph.num_tasks());
  // fan1 precedes upd2 and solve.back comes last-ish: check precedence.
  std::map<graph::TaskId, std::size_t> position;
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    position[result.runs[i].task] = i;
  }
  for (const auto& e : flat.graph.edges()) {
    EXPECT_LT(position.at(e.from), position.at(e.to));
  }
}

TEST(Sequential, MissingInputStoreValueFails) {
  auto flat = workloads::lu3x3_design().flatten();
  EXPECT_THROW((void)run_sequential(flat, {{"A", Value(Vector{1})}}), Error);
}

TEST(Sequential, TaskErrorNamesTheTask) {
  auto flat = workloads::lu3x3_design().flatten();
  auto inputs = lu_inputs();
  inputs["A"] = Value(Vector{0, 3, 2, 8, 8, 5, 4, 7, 9});  // zero pivot
  try {
    (void)run_sequential(flat, inputs);
    FAIL() << "expected division by zero";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Runtime);
    EXPECT_NE(std::string(e.what()).find("fan1"), std::string::npos);
  }
}

TEST(Parallel, MatchesSequentialOnLu) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  const auto par = executor.run(schedule, lu_inputs());
  const auto seq = run_sequential(flat, lu_inputs());
  ASSERT_TRUE(par.outputs.contains("x"));
  EXPECT_EQ(par.outputs.at("x"), seq.outputs.at("x"));
  EXPECT_EQ(par.stores.at("U"), seq.stores.at("U"));
}

TEST(Parallel, EveryScheduleGivesSameAnswer) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(4);
  const auto seq = run_sequential(flat, lu_inputs());
  for (const char* heuristic :
       {"mh", "etf", "hlfet", "dls", "dsh", "cluster", "serial",
        "roundrobin"}) {
    const auto scheduler = sched::make_scheduler(heuristic);
    const auto schedule = scheduler->run(flat.graph, m);
    Executor executor(flat, m);
    const auto par = executor.run(schedule, lu_inputs());
    EXPECT_EQ(par.outputs.at("x"), seq.outputs.at("x")) << heuristic;
  }
}

TEST(Parallel, MontecarloDeterministicAcrossModes) {
  auto flat = workloads::montecarlo_design(4, 500).flatten();
  auto m = make_machine(4);
  const auto seq = run_sequential(flat, {});
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  const auto par = executor.run(schedule, {});
  // rand() streams are task-seeded: parallel == sequential exactly.
  EXPECT_EQ(par.outputs.at("pi_est"), seq.outputs.at("pi_est"));
  const double pi_est = seq.outputs.at("pi_est").as_scalar();
  EXPECT_NEAR(pi_est, 3.14159, 0.3);
}

TEST(Parallel, SignalPipelineRuns) {
  auto flat = workloads::signal_pipeline_design(3).flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  pits::Vector signal;
  for (int i = 0; i < 32; ++i) signal.push_back(std::sin(i * 0.3));
  const auto result =
      executor.run(schedule, {{"signal", Value(signal)}});
  ASSERT_TRUE(result.outputs.contains("energy"));
  const auto& energy = result.outputs.at("energy").as_vector();
  ASSERT_EQ(energy.size(), 3u);
  // Channel scales are 1, 2, 3: energies must increase quadratically.
  EXPECT_NEAR(energy[1] / energy[0], 4.0, 1e-9);
  EXPECT_NEAR(energy[2] / energy[0], 9.0, 1e-9);
}

TEST(Parallel, PolyevalConcatenatesSlices) {
  auto flat = workloads::polyeval_design(3).flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  // p(x) = 1 + 2x + x^2 over xs = 0..7
  pits::Vector xs;
  for (int i = 0; i < 8; ++i) xs.push_back(i);
  const auto result = executor.run(
      schedule, {{"coeffs", Value(Vector{1, 2, 1})}, {"xs", Value(xs)}});
  const auto& ys = result.outputs.at("ys").as_vector();
  ASSERT_EQ(ys.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(ys[static_cast<std::size_t>(i)], (i + 1.0) * (i + 1.0), 1e-9);
  }
}

TEST(Parallel, HeatDiffusionConservesAndSpreads) {
  auto flat = workloads::heat_design(3, 6, 8).flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  pits::Vector rod(24, 0.0);
  rod[12] = 60.0;
  const auto result = executor.run(schedule, {{"rod", pits::Value(rod)}});
  const auto& out = result.outputs.at("result").as_vector();
  ASSERT_EQ(out.size(), 24u);
  double total = 0;
  double peak = 0;
  for (double v : out) {
    EXPECT_GE(v, 0.0);
    total += v;
    peak = std::max(peak, v);
  }
  // Interior spike: no boundary loss yet, heat conserved, peak flattened.
  EXPECT_NEAR(total, 60.0, 1e-9);
  EXPECT_LT(peak, 60.0);
  EXPECT_GT(out[11], 0.0);  // spread to the neighbours across segments
  EXPECT_GT(out[13], 0.0);
  // Agreement with the sequential trial run.
  const auto seq = run_sequential(flat, {{"rod", pits::Value(rod)}});
  EXPECT_EQ(seq.outputs.at("result"), result.outputs.at("result"));
}

TEST(Parallel, SynthesizedGraphExecutes) {
  auto g = workloads::fft_taskgraph(4, 0.05, 8.0);
  workloads::synthesize_pits(g);
  auto flat = workloads::as_flatten(std::move(g));
  auto m = make_machine(4);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  const auto result = executor.run(schedule, {});
  EXPECT_EQ(result.runs.size(), flat.graph.num_tasks());
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(Parallel, ErrorPropagatesFromWorkerThread) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  auto inputs = lu_inputs();
  inputs["A"] = Value(Vector{0, 3, 2, 8, 8, 5, 4, 7, 9});
  EXPECT_THROW((void)executor.run(schedule, inputs), Error);
}

TEST(Parallel, DuplicateCopiesAgree) {
  auto g = workloads::fork_join(6, 0.05, 8.0);
  workloads::synthesize_pits(g);
  auto flat = workloads::as_flatten(std::move(g));
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 2.0;  // force DSH to duplicate
  Machine m(machine::Topology::fully_connected(4), p);
  const auto schedule = sched::DshScheduler().run(flat.graph, m);
  // The whole point is exercising duplicate copies: fail loudly if the
  // machine params stop forcing DSH to duplicate.
  ASSERT_GT(schedule.num_duplicates(), 0);
  Executor executor(flat, m);
  const auto result = executor.run(schedule, {});
  // Runs include duplicates, all successfully cross-checked.
  EXPECT_GT(result.runs.size(), flat.graph.num_tasks());
  std::size_t duplicates = 0;
  for (const auto& r : result.runs) duplicates += r.duplicate;
  EXPECT_EQ(duplicates,
            static_cast<std::size_t>(schedule.num_duplicates()));
  // Values still agree with the one-thread reference.
  const auto seq = run_sequential(flat, {});
  for (const auto& [name, value] : seq.outputs) {
    EXPECT_EQ(result.outputs.at(name), value) << name;
  }
}

TEST(Parallel, ManualDuplicateScheduleCrossChecks) {
  // A hand-built schedule with an explicit duplicate copy: the producer
  // runs on both processors, the consumer reads the local copy, and the
  // executor cross-checks that both copies computed the same value.
  auto g = workloads::chain_graph(2, 1.0, 8.0);
  workloads::synthesize_pits(g);
  auto flat = workloads::as_flatten(std::move(g));
  auto m = make_machine(2);
  const double dur = m.task_time(1.0, 0);
  sched::Schedule schedule(2, "manual");
  schedule.place(0, 0, 0.0, dur);
  schedule.place(0, 1, 0.0, dur, /*duplicate=*/true);
  schedule.place(1, 1, dur, 2.0 * dur);
  schedule.validate(flat.graph, m);
  ASSERT_EQ(schedule.num_duplicates(), 1);

  Executor executor(flat, m);
  const auto par = executor.run(schedule, {});
  EXPECT_EQ(par.runs.size(), 3u);  // two copies of task 0 plus task 1
  const auto seq = run_sequential(flat, {});
  for (const auto& [name, value] : seq.outputs) {
    EXPECT_EQ(par.outputs.at(name), value) << name;
  }
}

TEST(Parallel, DuplicateCopiesDoNotMoveSharedVectorInputs) {
  // Regression: the sole-use move optimization must stay disabled in
  // scheduled runs. `mid` is the only consumer of `src`'s vector, so a
  // one-shot plan would mark the binding take=true — but here two
  // copies of `mid` bind it, and whichever binds second would read a
  // moved-from (empty) vector: an out-of-bounds error or a spurious
  // "duplicate copies produced different outputs" failure.
  graph::TaskGraph g;
  graph::Task src;
  src.name = "src";
  src.work = 1;
  src.pits = "v := zeros(3)\nfor i := 0 to 2 do\n  v[i] := i + 1\nend\n";
  src.outputs = {"v"};
  const graph::TaskId t_src = g.add_task(std::move(src));
  graph::Task mid;
  mid.name = "mid";
  mid.work = 1;
  mid.inputs = {"v"};
  mid.pits = "w := v[0] + v[1] + v[2]\n";
  mid.outputs = {"w"};
  const graph::TaskId t_mid = g.add_task(std::move(mid));
  graph::Task sink;
  sink.name = "sink";
  sink.work = 1;
  sink.inputs = {"w"};
  sink.pits = "r := w * 2\n";
  sink.outputs = {"r"};
  const graph::TaskId t_sink = g.add_task(std::move(sink));
  g.add_edge(t_src, t_mid, 8.0, "v");
  g.add_edge(t_mid, t_sink, 8.0, "w");
  auto flat = workloads::as_flatten(std::move(g));

  auto m = make_machine(2);
  const double d = m.task_time(1.0, 0);
  const double gap = 0.02;  // > cross-processor message time for 8 bytes
  sched::Schedule schedule(2, "manual");
  schedule.place(t_src, 0, 0.0, d);
  schedule.place(t_mid, 0, d + gap, 2 * d + gap);
  schedule.place(t_mid, 1, d + gap, 2 * d + gap, /*duplicate=*/true);
  schedule.place(t_sink, 1, 2 * d + gap, 3 * d + gap);
  schedule.validate(flat.graph, m);
  ASSERT_EQ(schedule.num_duplicates(), 1);

  Executor executor(flat, m);
  for (int round = 0; round < 10; ++round) {
    const auto result = executor.run(schedule, {});
    EXPECT_EQ(result.runs.size(), 4u);  // both copies of mid ran and agreed
  }
}

TEST(Parallel, TranscriptCapturedOnce) {
  graph::TaskGraph g;
  graph::Task t;
  t.name = "talker";
  t.work = 1;
  t.pits = "print(\"from task\")\nout := 1\n";
  t.outputs = {"out"};
  g.add_task(std::move(t));
  auto flat = workloads::as_flatten(std::move(g));
  auto m = make_machine(2);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  const auto result = executor.run(schedule, {});
  EXPECT_EQ(result.transcript, "[talker]\nfrom task\n");
}

TEST(Parallel, EmptyPitsWithOutputsRejected) {
  graph::TaskGraph g;
  graph::Task t;
  t.name = "hollow";
  t.outputs = {"x"};
  g.add_task(std::move(t));
  auto flat = workloads::as_flatten(std::move(g));
  EXPECT_THROW((void)run_sequential(flat, {}), Error);
}

TEST(Parallel, StressRepeatedRunsStayDeterministic) {
  // Shake out races: many parallel runs of the same program must agree
  // exactly with each other and with the sequential reference.
  auto flat = workloads::montecarlo_design(6, 200).flatten();
  auto m = make_machine(6);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  const auto reference = run_sequential(flat, {});
  for (int round = 0; round < 25; ++round) {
    const auto result = executor.run(schedule, {});
    ASSERT_EQ(result.outputs.at("pi_est"), reference.outputs.at("pi_est"))
        << "round " << round;
  }
}

TEST(RoutineCache, CheckThenRunBuildsEachRoutineOnce) {
  // `check` and `run` share one entry per routine: checking the heat rod
  // builds every entry, and the run after it finds them all. No other
  // test uses this cell count or alpha, so every routine text is new to
  // this process.
  const graph::Design design = workloads::heat_design(16, 16, 5, 0.1234);
  const auto flat = design.flatten();
  std::set<std::tuple<std::vector<std::string>, std::vector<std::string>,
                      std::string>>
      distinct;
  for (graph::TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
    const graph::Task& task = flat.graph.task(t);
    distinct.emplace(task.inputs, task.outputs, task.pits);
  }
  ASSERT_EQ(distinct.size(), 16u * 17u + 1u);

  obs::TraceRecorder rec;
  obs::ScopedRecorder scope(rec);
  const std::uint64_t before = program_cache().stats().misses;
  (void)analyze::analyze_design(design);
  EXPECT_EQ(program_cache().stats().misses - before, distinct.size());
  EXPECT_EQ(rec.metric("pits.compile.count"), 0.0) << "a check never compiles";

  const auto result =
      run_sequential(flat, {{"rod", pits::Value(pits::Vector(80, 1.0))}});
  EXPECT_EQ(result.outputs.at("result").as_vector().size(), 80u);
  EXPECT_EQ(program_cache().stats().misses - before, distinct.size());
  const auto routines = static_cast<double>(distinct.size());
  EXPECT_EQ(rec.metric("pits.parse"), routines);
  EXPECT_EQ(rec.metric("pits.compile.count"), routines);
}

TEST(RoutineCache, ConcurrentChecksAndRunsShareEntries) {
  // Threads that check and run one new design at once race for the same
  // entries and their lazy layers; every one must see the same results.
  const graph::Design design = workloads::heat_design(4, 3, 5, 0.2345);
  const auto flat = design.flatten();
  const ExternalInputs rod{{"rod", pits::Value(pits::Vector(20, 2.0))}};
  std::vector<std::vector<analyze::Diagnostic>> checks(8);
  std::vector<RunResult> runs(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    threads.emplace_back([&, i] {
      if (i % 2 == 0) checks[i] = analyze::analyze_design(design);
      runs[i] = run_sequential(flat, rod);
      if (i % 2 == 1) checks[i] = analyze::analyze_design(design);
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t i = 1; i < checks.size(); ++i) {
    EXPECT_EQ(analyze::emit_text(checks[i]), analyze::emit_text(checks[0]));
    EXPECT_EQ(runs[i].outputs.at("result"), runs[0].outputs.at("result"));
  }
}

TEST(TakePlan, SoleUseMoveReenabledWithoutDuplicates) {
  // Follow-up to the duplicated-consumer fix: disabling moves for every
  // scheduled run was overkill. With a schedule where each value is
  // bound exactly once, the sole-use binding must be a take again.
  auto g = workloads::chain_graph(3, 1.0, 8.0);
  workloads::synthesize_pits(g);
  auto flat = workloads::as_flatten(std::move(g));
  auto m = make_machine(2);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  ASSERT_EQ(schedule.num_duplicates(), 0);

  const DesignPlan plan =
      build_plan(flat, RunOptions{}, TakePlan{true, &schedule, false});
  bool any_take = false;
  for (const TaskPlan& tp : plan.tasks) {
    for (const InputBinding& b : tp.inputs) {
      any_take = any_take || b.take;
    }
  }
  EXPECT_TRUE(any_take);
}

TEST(TakePlan, DuplicatedConsumerCountsEveryScheduledCopy) {
  // The 031c342 scenario, now asserted at the plan level: `mid` has a
  // duplicate placement, so src->mid is bound twice and must not be a
  // take — while a schedule without the duplicate may move it.
  auto g = workloads::chain_graph(3, 1.0, 8.0);
  workloads::synthesize_pits(g);
  auto flat = workloads::as_flatten(std::move(g));
  auto m = make_machine(2);
  const double d = m.task_time(1.0, 0);
  const double gap = 0.02;
  sched::Schedule schedule(2, "manual");
  schedule.place(0, 0, 0.0, d);
  schedule.place(1, 0, d + gap, 2 * d + gap);
  schedule.place(1, 1, d + gap, 2 * d + gap, /*duplicate=*/true);
  schedule.place(2, 1, 2 * d + 2 * gap, 3 * d + 2 * gap);
  schedule.validate(flat.graph, m);

  const DesignPlan plan =
      build_plan(flat, RunOptions{}, TakePlan{true, &schedule, false});
  // Task 1 (duplicated) reads task 0's value from two copies: no take.
  for (const InputBinding& b : plan.tasks[1].inputs) {
    if (b.kind == InputBinding::Kind::Producer) {
      EXPECT_FALSE(b.take);
    }
  }
  // A fault plan disables takes outright (rescue re-binds).
  const DesignPlan faulty =
      build_plan(flat, RunOptions{}, TakePlan{true, &schedule, true});
  for (const TaskPlan& tp : faulty.tasks) {
    for (const InputBinding& b : tp.inputs) {
      EXPECT_FALSE(b.take);
    }
  }
}

TEST(Parallel, PureSyncTasksAllowed) {
  graph::TaskGraph g;
  g.add_task({"barrier", 1, "", {}, {}});
  auto flat = workloads::as_flatten(std::move(g));
  const auto result = run_sequential(flat, {});
  EXPECT_EQ(result.runs.size(), 1u);
}

}  // namespace
}  // namespace banger::exec
