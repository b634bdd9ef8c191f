#include "analyze/analyze.hpp"

#include <algorithm>
#include <memory>

#include "obs/trace.hpp"
#include "pits/builtins.hpp"
#include "util/strings.hpp"

namespace banger::analyze {

namespace {

/// The cache key: the declared inputs and outputs, then the routine
/// text. Counts and length prefixes keep it injective whatever the
/// names contain.
std::string routine_key(const graph::Task& task) {
  std::string key;
  key.reserve(task.pits.size() + 64);
  auto names = [&](const std::vector<std::string>& list) {
    key += std::to_string(list.size());
    key += '/';
    for (const std::string& name : list) {
      key += std::to_string(name.size());
      key += ':';
      key += name;
    }
  };
  names(task.inputs);
  names(task.outputs);
  key += task.pits;
  return key;
}

}  // namespace

RoutineEntry::RoutineEntry(const graph::Task& task)
    : context_{task.inputs, task.outputs} {
  try {
    program = pits::Program::parse(task.pits);
  } catch (const Error& e) {
    parse_error = e;
    return;
  }
  // Program::inputs() drops every constant name, but a declared input
  // shadows the constant it is named after, so its reads count.
  for (std::string& name : pits::free_variables(program.body())) {
    if (!pits::constants().contains(name) ||
        std::find(task.inputs.begin(), task.inputs.end(), name) !=
            task.inputs.end()) {
      reads.push_back(std::move(name));
    }
  }
  writes = program.outputs();
}

const RoutineEntry::Layer& RoutineEntry::layer() const {
  std::call_once(layer_once_, [&] {
    Layer layer;
    layer.shape = run_routine_rules(program.body(), context_,
                                    layer.diagnostics);
    layer_ = std::move(layer);
  });
  return layer_;
}

const pits::bc::Chunk* RoutineEntry::chunk() const {
  std::call_once(chunk_once_, [&] { precompile_optimized(program); });
  return program.compiled_chunk().get();
}

RoutineCache& routine_cache() {
  // The cap is per generation: it holds the largest bundled design (the
  // 32x32 heat workload, about 1k distinct routines) several times over.
  static RoutineCache cache(4096);
  return cache;
}

std::shared_ptr<const RoutineEntry> routine_entry(const graph::Task& task) {
  return routine_cache().get(routine_key(task), [&] {
    return std::make_shared<const RoutineEntry>(task);
  });
}

std::vector<Diagnostic> analyze_design(const graph::Design& design,
                                       const AnalyzeOptions& options) {
  const auto flat = design.flatten();
  const graph::TaskGraph& g = flat.graph;
  const bool pits = options.pits_rules;

  // Null for tasks whose routine is blank.
  std::vector<std::shared_ptr<const RoutineEntry>> routines(g.num_tasks());
  if (options.interface_rules || pits) {
    std::uint64_t lookups = 0;
    std::uint64_t misses = 0;
    for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
      const graph::Task& task = g.task(t);
      if (util::trim(task.pits).empty()) continue;
      ++lookups;
      routines[t] = routine_cache().get(routine_key(task), [&] {
        ++misses;
        auto routine = std::make_shared<const RoutineEntry>(task);
        // Analysed while its AST is still in cache.
        if (pits && !routine->parse_error) (void)routine->layer();
        return routine;
      });
    }
    if (obs::TraceRecorder* rec = obs::current()) {
      rec->bump("analyze.memo.hits", static_cast<double>(lookups - misses));
      rec->bump("analyze.memo.misses", static_cast<double>(misses));
    }
  }

  std::vector<Diagnostic> diagnostics;
  if (options.interface_rules) {
    run_interface_rules(flat, routines, options, diagnostics);
  }

  if (pits) {
    // Each routine's block lands where analysing it in place would have
    // put it, so sort_and_dedupe's stable tie-break keeps the same hint.
    std::vector<const ShapeSummary*> shapes(g.num_tasks(), nullptr);
    for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
      const RoutineEntry* routine = routines[t].get();
      if (routine == nullptr || routine->parse_error) continue;
      const RoutineEntry::Layer& layer = routine->layer();
      const graph::Task& task = g.task(t);
      for (const Diagnostic& d : layer.diagnostics) {
        Diagnostic& placed = diagnostics.emplace_back(d);
        placed.subject = task.name;
        placed.pos = graph::routine_to_file(task, d.pos);
      }
      shapes[t] = &layer.shape;
    }
    run_shape_rules(flat, shapes, diagnostics);
  }

  if (options.determinacy_rules) {
    run_determinacy_rules(flat, diagnostics);
  }

  sort_and_dedupe(diagnostics);
  return diagnostics;
}

}  // namespace banger::analyze
