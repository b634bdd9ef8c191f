// banger/analyze/analyze.hpp
//
// The before-run static-analysis engine — the paper's "instant feedback
// ... major contributor to early defect removal" grown from interface
// lint into a real analyser. Three rule layers over a validated design:
//
//   interface   (BAN001-BAN010): drawing-level checks — routine/port
//               mismatches, unbound inputs, dead stores, unobservable
//               work (the original `lint_design` rules, rewired);
//   pits        (BAN101-BAN108): dataflow over each routine's AST —
//               use-before-def, dead stores, unreachable code, constant
//               folding (guaranteed div/mod-by-zero, out-of-range vector
//               indices), unknown functions, arity mismatches, trivially
//               non-terminating loops;
//   absint      (BAN301-BAN306): abstract interpretation over each
//               routine (analyze/absint.hpp) — interval-proven division
//               by zero and out-of-bounds indices, dead branches,
//               non-terminating loops, elementwise length mismatches,
//               plus graph-level producer/consumer shape checking;
//   determinacy (BAN201-BAN203): races over the flattened task graph —
//               unordered writers to a store, readers unordered with
//               writers (var-aliased stores), schedule-dependent output
//               merges. Ordering is the transitive closure of the
//               flattened dataflow dependences.
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
  bool pits_rules = true;
  /// Abstract-interpretation layer (BAN301-BAN306); runs per routine
  /// after the dataflow layer and once more across the task graph.
  /// Requires pits_rules-style parsing, so it is gated on pits_rules.
  bool absint_rules = true;
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
/// Per-routine results (interface facts, PITS and absint diagnostics,
/// shape summaries) come from a process-wide memo keyed by routine
/// text, declared inputs and outputs, and the enabled routine layers,
/// so re-checking an edited design re-analyses only the routines the
/// edit touched (see docs/analysis.md, "Incremental check").
std::vector<Diagnostic> analyze_design(const graph::Design& design,
                                       const AnalyzeOptions& options = {});

/// Context for analysing one PITS routine on its own. The routine
/// layers report positions relative to the routine and leave the
/// subject empty; analyze_design names the task and maps positions into
/// the file (routine_to_file) when it places their diagnostics.
struct RoutineContext {
  /// Declared inputs: defined before the routine starts.
  std::vector<std::string> inputs;
  /// Declared outputs: assignments to them are never dead.
  std::vector<std::string> outputs;
};

/// Maps a routine-relative position to file coordinates: the routine
/// starts on file line `pits_line`, indented by `pits_indent`. Invalid
/// positions, and any position when `pits_line` is 0 (designs built in
/// code), stay unchanged.
SourcePos routine_to_file(SourcePos pos, int pits_line, int pits_indent);

/// PITS dataflow layer (BAN101-BAN108) over one parsed routine.
/// Appends to `sink`.
void analyze_routine(const pits::Block& body, const RoutineContext& context,
                     std::vector<Diagnostic>& sink);

/// What the interface layer needs from one task's routine: the
/// variables it reads and writes, or why it does not parse.
struct RoutineInterface {
  bool parses = true;
  std::string parse_error;   ///< Error::what() of the parse failure
  SourcePos parse_error_pos; ///< routine-relative
  std::vector<std::string> reads;   ///< pits::Program::inputs()
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
