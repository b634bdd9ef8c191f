#include "analyze/analyze.hpp"

#include <algorithm>
#include <memory>

#include "analyze/absint.hpp"
#include "obs/trace.hpp"
#include "pits/builtins.hpp"
#include "pits/interp.hpp"
#include "util/generational_cache.hpp"
#include "util/strings.hpp"

namespace banger::analyze {

namespace {

/// Everything analyze_design derives from one routine alone. Positions
/// are routine-relative and diagnostics carry no subject, so one entry
/// serves every task — at any file position, under any name — whose
/// routine, declared inputs and outputs match.
struct RoutineFacts {
  RoutineInterface interface;
  /// Routine-layer diagnostics, in emission order.
  std::vector<Diagnostic> diagnostics;
  ShapeSummary shape;  ///< empty unless the routine layer ran
};

using RoutineMemo =
    util::GenerationalCache<std::shared_ptr<const RoutineFacts>>;

/// Process-wide, shared by every thread that checks designs (serve runs
/// `check` on pool threads). The cap is per generation, as for
/// exec::ProgramCache: it holds the largest bundled design several times
/// over.
RoutineMemo& routine_memo() {
  static RoutineMemo memo(4096);
  return memo;
}

/// The memo key: whether the routine layer runs, the declared inputs
/// and outputs, then the routine text. Counts and length prefixes keep
/// it injective whatever the names contain.
std::string memo_key(const graph::Task& task, bool pits) {
  std::string key;
  key.reserve(task.pits.size() + 64);
  key += pits ? 'p' : '-';
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

/// A memo miss: parses the routine once and derives the interface
/// facts and the routine layer from that one AST.
std::shared_ptr<const RoutineFacts> analyse_routine(const graph::Task& task,
                                                    bool pits) {
  auto facts = std::make_shared<RoutineFacts>();
  pits::Program program;
  try {
    program = pits::Program::parse(task.pits);
  } catch (const Error& e) {
    facts->interface.parses = false;
    facts->interface.parse_error = e.message();
    facts->interface.parse_error_pos = e.pos();
    return facts;  // BAN003 (interface layer); no routine layer runs
  }
  // Program::inputs() drops every constant name, but a declared input
  // shadows the constant it is named after, so its reads count.
  for (std::string& name : pits::free_variables(program.body())) {
    if (!pits::constants().contains(name) ||
        std::find(task.inputs.begin(), task.inputs.end(), name) !=
            task.inputs.end()) {
      facts->interface.reads.push_back(std::move(name));
    }
  }
  facts->interface.writes = program.outputs();
  if (pits) {
    RoutineContext ctx;
    ctx.inputs = task.inputs;
    ctx.outputs = task.outputs;
    facts->shape = run_routine_rules(program.body(), ctx, facts->diagnostics);
  }
  return facts;
}

}  // namespace

std::vector<Diagnostic> analyze_design(const graph::Design& design,
                                       const AnalyzeOptions& options) {
  const auto flat = design.flatten();
  const graph::TaskGraph& g = flat.graph;
  const bool pits = options.pits_rules;

  // Null for tasks whose routine is blank.
  std::vector<std::shared_ptr<const RoutineFacts>> routines(g.num_tasks());
  if (options.interface_rules || pits) {
    std::uint64_t lookups = 0;
    std::uint64_t misses = 0;
    for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
      const graph::Task& task = g.task(t);
      if (util::trim(task.pits).empty()) continue;
      ++lookups;
      routines[t] = routine_memo().get(memo_key(task, pits), [&] {
        ++misses;
        return analyse_routine(task, pits);
      });
    }
    if (obs::TraceRecorder* rec = obs::current()) {
      rec->bump("analyze.memo.hits", static_cast<double>(lookups - misses));
      rec->bump("analyze.memo.misses", static_cast<double>(misses));
    }
  }

  std::vector<Diagnostic> diagnostics;
  if (options.interface_rules) {
    std::vector<const RoutineInterface*> interfaces(g.num_tasks(), nullptr);
    for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
      if (routines[t] != nullptr) interfaces[t] = &routines[t]->interface;
    }
    run_interface_rules(flat, interfaces, options, diagnostics);
  }

  if (pits) {
    // Each routine's block lands where analysing it in place would have
    // put it, so sort_and_dedupe's stable tie-break keeps the same hint.
    std::vector<const ShapeSummary*> shapes(g.num_tasks(), nullptr);
    for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
      const RoutineFacts* facts = routines[t].get();
      if (facts == nullptr || !facts->interface.parses) continue;
      const graph::Task& task = g.task(t);
      for (const Diagnostic& d : facts->diagnostics) {
        Diagnostic& placed = diagnostics.emplace_back(d);
        placed.subject = task.name;
        placed.pos = graph::routine_to_file(task, d.pos);
      }
      shapes[t] = &facts->shape;
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
