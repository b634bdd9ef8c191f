// perfbench/lib/main.cpp
//
// The end-to-end benchmark. One process, linked against the
// banger libraries:
//
//   perfbench --workload edit_loop|serve_mix|stream_pipeline
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Comment lines (`# ...`) describe the run; the last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exit 2 on bad usage, 3 when the workload's threads do
// not fit in nproc, 1 on an unexpected error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "lib/workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "edit_loop|serve_mix|stream_pipeline --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      opt.trace = std::string(value) == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.workload != "edit_loop" && opt.workload != "serve_mix" &&
      opt.workload != "stream_pipeline") {
    return usage(("unknown workload `" + opt.workload + "`").c_str());
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be > 0");

  try {
    const ThreadBudget budget = thread_budget(opt.workload);
    const int nproc = static_cast<int>(std::thread::hardware_concurrency());
    std::printf("# workload %s seed %llu seconds %g trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("# nproc %d; threads: main %d + clients %d + workers %d "
                "= %d\n",
                nproc, budget.main, budget.clients, budget.workers,
                budget.total());
    if (budget.total() > nproc) {
      std::fprintf(stderr,
                   "perfbench: %s needs %d threads but nproc is %d; refusing "
                   "to measure an oversubscribed machine\n",
                   opt.workload.c_str(), budget.total(), nproc);
      return 3;
    }
    const RunResult result =
        opt.workload == "edit_loop"   ? run_edit_loop(opt)
        : opt.workload == "serve_mix" ? run_serve_mix(opt)
                                      : run_stream_pipeline(opt);
    std::printf("%s\n", result.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
