// perfbench/lib/stream_pipeline.cpp
//
// stream_pipeline: a StreamExecutor with a fixed jobs=1 runs the MH
// schedule of the 16x16 heat rod on three fully connected processors:
// one worker thread drives all three lanes and their cross-lane queues.
// With jobs=2 throughput swung up to 2x between windows of one run: one
// worker owned two lanes and the other one, and whenever the host took
// a vCPU away (CPU steal) the other worker stalled on its queues.
// Segments hold kCells = 16 cells: with 4, a stencil routine is so short
// that lane hand-offs alone set the pace and throughput swings with the
// host's wake-up latency.
// One closed loop pushes seeded rod batches in bursts of kBurst into the
// drained pipeline, then pops and checks each outcome as it arrives,
// keeping none, so memory stays bounded. Each batch is timed from its
// push returning to its delivery. Planning and compilation are paid in
// set-up; the timed phase is all VM, lanes and queues.
//
// Bursts rather than a window refilled as each batch leaves: with a
// refilled window the lanes settled into one of several interleavings
// for seconds at a time, and the median latency of 2-second windows
// jumped between ~3.5 and ~5.5 ms while throughput barely moved. A burst
// always starts from an empty pipeline, so the k-th batch of every burst
// sees the same pipeline. With kBurst = 5 each batch position holds a
// fifth of the samples: p50_ms falls in the middle of the third
// position and p90_ms in the middle of the fifth, never on a boundary
// between two.
//
// The loop waits by polling try_pop() every kPollMicros rather than
// blocking in pop(): a thread blocked in pop() is woken by the
// executor's broadcast after every stage completion (~270 per batch), so
// the loop fought the worker for the executor's lock on every stage
// and throughput swung with the host's wake-up latency. Polling adds at
// most one interval to a batch's latency.
//
// Every kSoloEvery-th burst is a single batch alone: its latency is
// cold_p50_ms (an empty pipeline); the batches of full bursts are
// warm_p50_ms.
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <thread>

#include "lib/oracle.hpp"
#include "lib/workloads.hpp"
#include "exec/stream.hpp"
#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {
namespace {

constexpr int kSegments = 16;
constexpr int kSteps = 16;
constexpr int kCells = 16;
constexpr int kJobs = 1;
constexpr auto kPollMicros = std::chrono::microseconds(100);
/// Batches pushed together; also the executor's admission window, so
/// push() never blocks.
constexpr std::size_t kBurst = 5;
constexpr std::size_t kRodPool = 256;
constexpr std::uint64_t kSoloEvery = 16;  // bursts
constexpr int kWarmupBatches = 32;
/// Untimed streaming between set-up and the timed phase, so the first
/// window does not measure caches and allocator pools filling up.
constexpr double kWarmupSeconds = 1.0;
/// When the host's speed changes, a batch's time moves about 2x as much
/// as the probe's in log terms (see kProbeExponent in edit_loop.cpp).
/// Fitted on per-window probe and batch times of two sets of 25-second
/// runs: 2 gave the lowest worst-case spread over both (0.09, against
/// 0.27 at 1).
constexpr double kProbeExponent = 2.0;

namespace b = banger;

/// Seeded inputs: per-task diffusion constants and a pool of rods with
/// their reference results.
struct StreamInputs {
  explicit StreamInputs(std::uint64_t seed) {
    Rng rng(derive_seed(seed, 40));
    for (auto& a : design.alpha) a = edit_alpha(rng);
    for (std::size_t i = 0; i < kRodPool; ++i) {
      rods.push_back(make_rod(rng, design.rod_size()));
      expected.push_back(heat_reference(design, rods.back()));
    }
  }
  HeatDesign design{kSegments, kSteps, kCells, "0.2"};
  std::vector<std::vector<double>> rods;
  std::vector<std::vector<double>> expected;
};

struct StreamState {
  explicit StreamState(std::uint64_t seed)
      : inputs(seed),
        machine(b::machine::parse_machine(tri3_machine_text())),
        flat(parse_and_flatten(HeatText(inputs.design).text())),
        schedule(b::sched::make_scheduler("mh")->run(flat.graph, machine)) {
    schedule.validate(flat.graph, machine);
    b::exec::StreamOptions so;
    so.jobs = kJobs;
    so.window = kBurst;
    executor = std::make_unique<b::exec::StreamExecutor>(flat, schedule,
                                                         machine, so);
  }
  ~StreamState() {
    if (!finished) stop();
  }
  StreamState(const StreamState&) = delete;
  StreamState& operator=(const StreamState&) = delete;

  /// Drains what is still in flight and stops the workers.
  b::exec::StreamReport stop() {
    while (executor->outstanding() > 0) static_cast<void>(executor->pop());
    finished = true;
    return executor->finish();
  }

  static b::graph::FlattenResult parse_and_flatten(const std::string& text) {
    const auto design = b::graph::parse_design(text);
    design.validate();
    return design.flatten();
  }

  StreamInputs inputs;
  b::machine::Machine machine;
  b::graph::FlattenResult flat;
  b::sched::Schedule schedule;
  std::unique_ptr<b::exec::StreamExecutor> executor;
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  bool finished = false;
};

std::map<std::string, b::pits::Value> batch_inputs(const StreamState& st,
                                                   std::uint64_t seq) {
  const auto& rod = st.inputs.rods[seq % kRodPool];
  return {{"rod", b::pits::Value(b::pits::Vector(rod))}};
}

bool check(const StreamState& st, std::uint64_t seq,
           const b::exec::TrialOutcome& out, bool corrupt) {
  if (!out.ok) return false;
  const auto it = out.result.outputs.find("result");
  if (it == out.result.outputs.end() || it->second.vector_if() == nullptr) {
    return false;
  }
  b::pits::Vector v = *it->second.vector_if();
  if (corrupt && !v.empty()) v[0] += 1.0;
  return v == st.inputs.expected[seq % kRodPool];
}

Phase timed_phase(StreamState& st, LayerTracer& tr, const Options& opt,
                  double seconds) {
  Phase p;
  auto& ex = *st.executor;
  std::deque<double> pushed_at;  // push-return time of each undelivered batch
  std::uint64_t solo_seq = ~0ull;
  std::uint64_t bursts = 0;
  const double start = now_s();
  auto deliver = [&](b::exec::TrialOutcome out) {
    const double t = now_s();
    const std::uint64_t seq = st.popped++;
    const double ms = (t - pushed_at.front()) * 1e3;
    tr.op(1, seq, "batch", pushed_at.front(), t);
    pushed_at.pop_front();
    const bool corrupt = opt.inject_wrong_every > 0 &&
                         (p.ops + 1) % opt.inject_wrong_every == 0;
    if (!check(st, seq, out, corrupt)) ++p.failed;
    ++p.ops;
    p.add(t - start, ms, seq != solo_seq);
  };
  auto wait_pop = [&] {
    for (;;) {
      if (auto out = ex.try_pop()) return std::move(*out);
      std::this_thread::sleep_for(kPollMicros);
    }
  };
  auto push = [&] {
    auto in = batch_inputs(st, st.pushed);
    const double t0 = now_s();
    ex.push(std::move(in));
    const double t1 = now_s();
    tr.span(0, st.pushed, "stream.push_wait", t0, t1);
    pushed_at.push_back(t1);
    return st.pushed++;
  };

  while (keep_going(opt, start, seconds, p.ops)) {
    if (bursts++ % kSoloEvery == kSoloEvery - 1) {
      p.probe(now_s() - start);  // the pipeline is empty: nothing waits
      solo_seq = push();
    } else {
      for (std::size_t i = 0; i < kBurst; ++i) push();
    }
    while (ex.outstanding() > 0) deliver(wait_pop());
  }
  p.seconds = now_s() - start;
  return p;
}

}  // namespace

std::string stream_pipeline_inputs(std::uint64_t seed, int ops) {
  const StreamInputs in(seed);
  std::string out = tri3_machine_text() + HeatText(in.design).text();
  for (int i = 0; i < ops; ++i) {
    out += rod_expr(in.rods[static_cast<std::size_t>(i) % kRodPool]) + "\n";
  }
  return out;
}

RunResult run_stream_pipeline(const Options& opt) {
  RunResult result;
  std::vector<double> setup_s;
  std::vector<double> setup_probe;
  std::unique_ptr<StreamState> st;
  LayerTracer off(false);
  // Set-up: generate inputs, parse, flatten, schedule, construct the
  // executor (plan + compile), and stream warm-up batches through it.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_probe.push_back(probe_ms());
    const double t0 = now_s();
    st.reset();
    st = std::make_unique<StreamState>(opt.seed);
    Options warm = opt;
    warm.max_ops = kWarmupBatches;
    warm.inject_wrong_every = 0;
    if (timed_phase(*st, off, warm, 0.0).failed > 0) result.setup_ok = false;
    setup_s.push_back(now_s() - t0);
  }

  Options warm = opt;
  warm.inject_wrong_every = 0;
  if (timed_phase(*st, off, warm, kWarmupSeconds).failed > 0) {
    result.setup_ok = false;
  }

  if (!opt.trace) {
    const Phase p = timed_phase(*st, off, opt, opt.seconds);
    result.attempted = p.ops;
    result.failed = p.failed;
    add_end_to_end(result, setup_s, setup_probe, p, kProbeExponent);
    return result;
  }
  const Phase untraced = timed_phase(*st, off, opt, opt.seconds / 2);
  LayerTracer tracer(true);
  const CompileSnapshot compile;
  const Phase traced = timed_phase(*st, tracer, opt, opt.seconds / 2);
  LayerCounts counts;
  compile.delta_into(counts);
  // The execution report covers the executor's whole life; the timed
  // phases dominate it (set-up streams kWarmupBatches).
  const b::exec::StreamReport report = st->stop();
  double busy = 0.0;
  for (const auto& blk : report.blocks) busy += blk.busy_seconds;
  double full = 0.0;
  double empty = 0.0;
  double occupancy = 0.0;
  double pushes = 0.0;
  for (const auto& q : report.queues) {
    full += static_cast<double>(q.full_stalls);
    empty += static_cast<double>(q.empty_stalls);
    occupancy += q.avg_occupancy * static_cast<double>(q.pushes);
    pushes += static_cast<double>(q.pushes);
  }
  const double batches =
      static_cast<double>(std::max<std::uint64_t>(report.batches, 1));
  counts.stream_busy_ratio =
      busy / (static_cast<double>(report.threads) * report.wall_seconds);
  counts.stream_full_stalls_per_batch = full / batches;
  counts.stream_empty_stalls_per_batch = empty / batches;
  counts.stream_avg_occupancy = pushes > 0 ? occupancy / pushes : 0.0;
  std::printf("# stream: %llu batches, %zu threads, %zu blocks, %zu queues\n",
              static_cast<unsigned long long>(report.batches), report.threads,
              report.blocks.size(), report.queues.size());
  finish_traced(result, untraced, traced, tracer, counts, opt);
  return result;
}

}  // namespace perfbench
