// banger/analyze/analyze.hpp
//
// The before-run static-analysis engine — the paper's "instant feedback
// ... major contributor to early defect removal" grown from interface
// lint into a real analyser. Three rule layers over a validated design:
//
//   interface   (BAN001-BAN010): drawing-level checks — routine/port
//               mismatches, unbound inputs, dead stores, unobservable
//               work (the original `lint_design` rules, rewired);
//   routine     (BAN101-BAN108, BAN301-BAN306): one abstract
//               interpretation per routine (analyze/absint.hpp). A
//               census of the whole routine, dead code included, gives
//               the syntactic rules: dead stores, code after `return`,
//               unknown functions, arity, formula bodies reading task
//               variables. The interpreter's walk gives the value rules,
//               in reachable code only: use before assignment, a
//               divisor, index or `while` condition that folds to a
//               constant (BAN104/105/108), and the interval proofs
//               (BAN301-BAN305). BAN306 joins each routine's shape
//               summary along the flattened task graph;
//   determinacy (BAN201-BAN203): races over the flattened task graph —
//               unordered writers to a store, readers unordered with
//               writers (var-aliased stores), schedule-dependent output
//               merges. Ordering is the transitive closure of the
//               flattened dataflow dependences.
//
// What counts as a constant differs by rule family. BAN104/105/108 use
// straight-line folding (pits/fold.hpp, the compiler's folder): values
// from literals, assignments and calculator constants nothing shadows,
// dropped by any loop that reassigns the variable and kept across an
// `if` only where every reachable arm agrees. BAN301-BAN305 use the
// intervals, which also see through loops and branch conditions. Where
// both would fire at one spot, the constant rule reports.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analyze/absint.hpp"
#include "analyze/diagnostic.hpp"
#include "graph/design.hpp"
#include "pits/interp.hpp"
#include "util/generational_cache.hpp"

namespace banger::analyze {

struct AnalyzeOptions {
  /// Rule layers; `banger lint` runs interface only (compatibility),
  /// `banger check` runs everything.
  bool interface_rules = true;
  /// The routine layer (BAN101-BAN108, BAN301-BAN306).
  bool pits_rules = true;
  bool determinacy_rules = true;

  /// BAN002: complain about tasks whose PITS body is empty (skeleton
  /// designs are legal while sketching).
  bool require_pits = true;
  /// BAN007: warn when a task's work estimate deviates from the
  /// statement count of its routine by more than this factor (0 = off).
  double work_estimate_factor = 0.0;
};

/// Runs the enabled rule layers over a design. The design must flatten
/// (Error{Graph} propagates otherwise). Returns diagnostics sorted and
/// deduplicated by sort_and_dedupe().
///
/// Per-routine results come from routine_entry(), so re-checking an
/// edited design re-analyses only the routines the edit touched (see
/// docs/analysis.md, "Incremental check").
std::vector<Diagnostic> analyze_design(const graph::Design& design,
                                       const AnalyzeOptions& options = {});

/// One task routine as every consumer sees it: `check` reads the
/// interface facts and the routine layer, `trial`/`run`/`stream` the
/// program and its chunk. Everything in it depends only on the routine
/// text and the declared inputs and outputs; positions are
/// routine-relative and diagnostics carry no subject, so one entry
/// serves every task, at any file position and under any name, that
/// matches those.
class RoutineEntry {
 public:
  /// Parses `task.pits` and reads the interface facts off the AST. A
  /// parse failure is stored, not thrown.
  explicit RoutineEntry(const graph::Task& task);

  /// Set when the routine does not parse; everything below is then
  /// empty and the lazy layers must not be asked for.
  std::optional<Error> parse_error;
  pits::Program program;
  /// Free variables; a constant's name only when it is a declared input.
  std::vector<std::string> reads;
  std::vector<std::string> writes;  ///< pits::Program::outputs()

  /// The routine layer's diagnostics, in emission order, and shape
  /// summary.
  struct Layer {
    std::vector<Diagnostic> diagnostics;
    ShapeSummary shape;
  };
  /// Runs the routine layer on first use only.
  [[nodiscard]] const Layer& layer() const;
  /// Compiles with compute_facts() on first use only; null when the
  /// routine exceeds the compact ISA limits (the walker then runs it).
  [[nodiscard]] const pits::bc::Chunk* chunk() const;

 private:
  RoutineContext context_;
  mutable std::once_flag layer_once_;
  mutable Layer layer_;
  mutable std::once_flag chunk_once_;
};

using RoutineCache =
    util::GenerationalCache<std::shared_ptr<const RoutineEntry>>;

/// The process-wide cache of routine entries, keyed by the declared
/// inputs, the declared outputs and the routine text. Every thread that
/// checks or runs designs shares it (serve works on pool threads).
RoutineCache& routine_cache();

/// `task`'s entry, built on a miss.
std::shared_ptr<const RoutineEntry> routine_entry(const graph::Task& task);

/// Interface + determinacy layers. Append to `sink`; `flat` must be
/// `design.flatten()`. `routines` is indexed by task id and holds null
/// for tasks whose routine is blank.
void run_interface_rules(
    const graph::FlattenResult& flat,
    const std::vector<std::shared_ptr<const RoutineEntry>>& routines,
    const AnalyzeOptions& options, std::vector<Diagnostic>& sink);
void run_determinacy_rules(const graph::FlattenResult& flat,
                           std::vector<Diagnostic>& sink);

}  // namespace banger::analyze
