// perfbench/lib/workloads.cpp
//
// What the three workloads share: the thread budget, the closed-loop
// stop rule, and the traced run's per-layer report.
#include "lib/workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "exec/plan.hpp"

namespace perfbench {

ThreadBudget thread_budget(const std::string& workload) {
  ThreadBudget b;
  if (workload == "edit_loop") {
    b.workers = 3;  // Executor::run: one thread per processor of tri3
  } else if (workload == "serve_mix") {
    b.clients = 2;  // handle_line runs on the calling client thread
  } else if (workload == "stream_pipeline") {
    b.workers = 1;  // StreamExecutor jobs
  } else {
    throw std::invalid_argument("unknown workload `" + workload + "`");
  }
  return b;
}

bool keep_going(const Options& opt, double start, double seconds,
                std::uint64_t ops) {
  if (opt.max_ops > 0) return ops < opt.max_ops;
  return now_s() - start < seconds;
}

CompileSnapshot::CompileSnapshot() {
  const auto s = banger::exec::program_cache().stats();
  hits = s.hits;
  misses = s.misses;
  evictions = s.evictions;
}

void CompileSnapshot::delta_into(LayerCounts& counts) const {
  const CompileSnapshot now;
  counts.compile_hits = static_cast<double>(now.hits - hits);
  counts.compile_misses = static_cast<double>(now.misses - misses);
  counts.compile_evictions = static_cast<double>(now.evictions - evictions);
}

namespace {
double ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}
}  // namespace

void finish_traced(RunResult& result, const Phase& untraced,
                   const Phase& traced, const LayerTracer& tracer,
                   const LayerCounts& c, const Options& opt) {
  result.attempted = untraced.ops + traced.ops;
  result.failed = untraced.failed + traced.failed;
  const double p50_off = quantile(untraced.ms(), 0.5);
  const double p50_on = quantile(traced.ms(), 0.5);
  std::printf("# tracing overhead: p50_ms untraced %.4f (n=%zu) traced %.4f "
              "(n=%zu) -> %+.2f%%\n",
              p50_off, untraced.samples.size(), p50_on, traced.samples.size(),
              100.0 * (ratio(p50_on, p50_off) - 1.0));
  std::fputs(tracer.table().c_str(), stdout);
  if (!opt.trace_out.empty()) {
    if (tracer.write_perfetto(opt.trace_out)) {
      std::printf("# perfetto trace: %s\n", opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    }
  }

  for (const char* layer :
       {"graph.parse", "graph.validate", "graph.flatten", "analyze.check",
        "sched.schedule", "sched.validate", "sim.simulate", "viz.gantt",
        "exec.trial", "exec.run", "serve.handle"}) {
    result.add(std::string(layer) + "_ms", tracer.self_ms_per_op(layer), "ms");
  }
  const double ops =
      static_cast<double>(std::max<std::uint64_t>(tracer.ops(), 1));
  result.add("op.unattributed_ms", tracer.unattributed_s() * 1e3 / ops, "ms");
  result.add("op.wall_ms", tracer.op_wall_s() * 1e3 / ops, "ms");
  for (const char* name : {"serve.json_parse", "serve.protocol",
                           "serve.key_hash", "stream.push_wait"}) {
    result.add(std::string(name) + "_ms", tracer.standalone_ms_mean(name),
               "ms");
  }
  result.add("exec.compile_hit_ratio",
             ratio(c.compile_hits, c.compile_hits + c.compile_misses), "ratio");
  result.add("exec.compile_hits", c.compile_hits, "count");
  result.add("exec.compile_misses", c.compile_misses, "count");
  result.add("exec.compile_evictions", c.compile_evictions, "count");
  result.add("serve.hit_ratio", ratio(c.serve_hits, c.serve_lookups), "ratio");
  result.add("serve.cache_lookups", c.serve_lookups, "count");
  result.add("serve.evictions", c.serve_evictions, "count");
  result.add("serve.request_bytes", c.request_bytes, "bytes");
  result.add("serve.response_bytes", c.response_bytes, "bytes");
  result.add("stream.busy_ratio", c.stream_busy_ratio, "ratio");
  result.add("stream.full_stalls_per_batch", c.stream_full_stalls_per_batch,
             "count");
  result.add("stream.empty_stalls_per_batch", c.stream_empty_stalls_per_batch,
             "count");
  result.add("stream.avg_occupancy", c.stream_avg_occupancy, "count");
  result.add("trace.overhead_ratio", ratio(p50_on, p50_off), "ratio");
}

}  // namespace perfbench
