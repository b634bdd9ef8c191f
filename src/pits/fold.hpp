// banger/pits/fold.hpp
//
// The one PITS constant folder. It computes an expression's value ahead
// of a run exactly as the tree-walker (interp.cpp) would, and declines
// wherever the walker could raise an error or read run-time state:
// division or mod by zero, `^` with a NaN result from real operands,
// string arithmetic, mixed-kind ordering, out-of-range indices, and
// every call (rand, print, formulas). Ordering follows the walker's
// three-way compare, so NaN orders as equal (`NaN <= 0` is true), and
// `and`/`or` short-circuit: a constant left side that decides the
// result drops the right side unfolded.
//
// Variable reads go through a caller-supplied lookup, so each user says
// what a name is known to hold: the bytecode compiler folds calculator
// constants inside formula bodies only, the routine analysis
// (analyze/absint.cpp) folds the constants its lane has proven.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "pits/ast.hpp"
#include "pits/value.hpp"

namespace banger::pits {

/// The value a read of `name` is known to produce, or nullopt when the
/// read does not fold.
using FoldLookup =
    std::function<std::optional<Value>(const std::string& name)>;

/// The value `e` evaluates to on every run, or nullopt when it is not
/// a compile-time constant or evaluating it could fail.
[[nodiscard]] std::optional<Value> fold(const Expr& e,
                                        const FoldLookup& lookup);

}  // namespace banger::pits
