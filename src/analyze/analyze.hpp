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

#include <string>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "graph/design.hpp"
#include "pits/ast.hpp"

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
/// Per-routine results (interface facts, routine diagnostics, shape
/// summaries) come from a process-wide memo keyed by routine text,
/// declared inputs and outputs, and whether the routine layer runs, so
/// re-checking an edited design re-analyses only the routines the edit
/// touched (see docs/analysis.md, "Incremental check").
std::vector<Diagnostic> analyze_design(const graph::Design& design,
                                       const AnalyzeOptions& options = {});

/// Context for analysing one PITS routine on its own. The routine
/// layer reports positions relative to the routine and leaves the
/// subject empty; analyze_design names the task and maps positions into
/// the file (graph::routine_to_file) when it places its diagnostics.
struct RoutineContext {
  /// Declared inputs: defined before the routine starts.
  std::vector<std::string> inputs;
  /// Declared outputs: assignments to them are never dead.
  std::vector<std::string> outputs;
};

/// What the interface layer needs from one task's routine: the
/// variables it reads and writes, or why it does not parse.
struct RoutineInterface {
  bool parses = true;
  std::string parse_error;   ///< Error::message() of the parse failure
  SourcePos parse_error_pos; ///< routine-relative
  /// Free variables; a constant's name only when it is a declared input.
  std::vector<std::string> reads;
  std::vector<std::string> writes;  ///< pits::Program::outputs()
};

/// Interface + determinacy layers. Append to `sink`; `flat` must be
/// `design.flatten()`. `routines` is indexed by task id and holds null
/// for tasks whose routine is blank.
void run_interface_rules(const graph::FlattenResult& flat,
                         const std::vector<const RoutineInterface*>& routines,
                         const AnalyzeOptions& options,
                         std::vector<Diagnostic>& sink);
void run_determinacy_rules(const graph::FlattenResult& flat,
                           std::vector<Diagnostic>& sink);

}  // namespace banger::analyze
