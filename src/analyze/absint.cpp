// banger/analyze/absint.cpp
//
// The abstract interpreter behind the routine layer of `banger check`
// (BAN101-BAN108, BAN301-BAN305) and the bytecode compiler's check
// elision. Every transfer function mirrors the concrete
// semantics of pits/interp.cpp exactly — including the odd corners: NaN
// is truthy, NaN orders as *equal* under </<=/>/>= (the walker's
// three-way compare maps NaN to 0), `^` raises an error instead of
// returning NaN, for-loop bounds get a 1e-12 epsilon, and `when` is
// lazy. Soundness rule: every recorded fact and every proof (BAN104/105,
// BAN30x) must hold for every concrete execution; when in doubt a
// transfer function answers top. The differential fuzz suite in tests/pits_vm_test.cpp checks the
// facts side against the tree-walker.
#include "analyze/absint.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "pits/builtins.hpp"
#include "pits/fold.hpp"
#include "pits/interp.hpp"

namespace banger::analyze {

// ---------------------------------------------------------------------
// Interval lattice
// ---------------------------------------------------------------------

Interval join(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi),
          a.integer && b.integer, a.maybe_nan || b.maybe_nan};
}

Interval widen(const Interval& prev, const Interval& next) {
  return {next.lo < prev.lo ? -kAbsInf : prev.lo,
          next.hi > prev.hi ? kAbsInf : prev.hi,
          prev.integer && next.integer, prev.maybe_nan || next.maybe_nan};
}

namespace {

using pits::AssignStmt;
using pits::BinOp;
using pits::Block;
using pits::Call;
using pits::Expr;
using pits::ExprStmt;
using pits::for_each_expr;
using pits::for_each_stmt;
using pits::ForStmt;
using pits::FormulaDef;
using pits::IfStmt;
using pits::Index;
using pits::NumberLit;
using pits::RepeatStmt;
using pits::ReturnStmt;
using pits::Stmt;
using pits::StmtPtr;
using pits::StringLit;
using pits::UnOp;
using pits::Unary;
using pits::VarRef;
using pits::VectorLit;
using pits::WhileStmt;

constexpr double kPi = 3.14159265358979323846;

Interval iv_neg(const Interval& a) {
  return {-a.hi, -a.lo, a.integer, a.maybe_nan};
}

/// Builds an interval from corner evaluations; a NaN corner (inf - inf,
/// 0 * inf, ...) means the operation can leave the real line, so the
/// result widens to full range with NaN possible.
Interval from_corners(std::initializer_list<double> corners, bool integer,
                      bool maybe_nan) {
  double lo = kAbsInf;
  double hi = -kAbsInf;
  for (double c : corners) {
    if (std::isnan(c)) return {};
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  return {lo, hi, integer, maybe_nan};
}

bool may_inf(const Interval& a) { return a.lo == -kAbsInf || a.hi == kAbsInf; }

Interval iv_add(const Interval& a, const Interval& b) {
  return from_corners({a.lo + b.lo, a.hi + b.hi}, a.integer && b.integer,
                      a.maybe_nan || b.maybe_nan);
}

Interval iv_sub(const Interval& a, const Interval& b) {
  return from_corners({a.lo - b.hi, a.hi - b.lo}, a.integer && b.integer,
                      a.maybe_nan || b.maybe_nan);
}

Interval iv_mul(const Interval& a, const Interval& b) {
  return from_corners({a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi},
                      a.integer && b.integer, a.maybe_nan || b.maybe_nan);
}

Interval iv_div(const Interval& a, const Interval& b) {
  // Division by zero raises an error (those executions never produce a
  // value), but a divisor interval touching zero still admits values
  // arbitrarily close to it, so the quotient is unbounded.
  if (b.lo > 0 || b.hi < 0) {
    return from_corners({a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi},
                        false, a.maybe_nan || b.maybe_nan);
  }
  return {};
}

Interval iv_mod(const Interval& a, const Interval& b) {
  if (b.lo > 0 || b.hi < 0) {
    // fmod: |result| < |divisor|, sign follows the dividend;
    // fmod(±inf, y) is NaN.
    const double m = std::max(std::abs(b.lo), std::abs(b.hi));
    double lo = -m;
    double hi = m;
    if (a.lo >= 0) lo = 0;
    if (a.hi <= 0) hi = 0;
    return {lo, hi, a.integer && b.integer,
            a.maybe_nan || b.maybe_nan || may_inf(a)};
  }
  return {};
}

Interval iv_square(const Interval& a) {
  const double m = std::max(a.lo * a.lo, a.hi * a.hi);
  const double lo = (a.lo <= 0 && a.hi >= 0) ? 0 : std::min(a.lo * a.lo, a.hi * a.hi);
  return from_corners({lo, m}, a.integer, a.maybe_nan);
}

Interval iv_pow(const Interval& a, const Interval& b) {
  // The `^` operator errors out instead of returning NaN (scalar_op),
  // so a NaN result needs a NaN operand.
  const bool nan = a.maybe_nan || b.maybe_nan;
  if (b.is_exact() && b.lo == 2) return iv_square(a);
  if (a.lo >= 0) return {0, kAbsInf, false, nan};
  return {-kAbsInf, kAbsInf, false, nan};
}

enum class Tri : std::uint8_t { False, True, Maybe };

/// Ordering proofs under the walker's three-way compare, where a NaN
/// operand yields cmp == 0: NaN makes <= and >= TRUE and < and > false.
Tri tri_cmp(BinOp op, const Interval& a, const Interval& b) {
  const bool no_nan = !a.maybe_nan && !b.maybe_nan;
  const bool disjoint = a.hi < b.lo || b.hi < a.lo;
  switch (op) {
    case BinOp::Lt:
      if (no_nan && a.hi < b.lo) return Tri::True;
      if (a.lo >= b.hi) return Tri::False;
      return Tri::Maybe;
    case BinOp::Le:
      if (a.hi <= b.lo) return Tri::True;
      if (no_nan && a.lo > b.hi) return Tri::False;
      return Tri::Maybe;
    case BinOp::Gt:
      if (no_nan && a.lo > b.hi) return Tri::True;
      if (a.hi <= b.lo) return Tri::False;
      return Tri::Maybe;
    case BinOp::Ge:
      if (a.lo >= b.hi) return Tri::True;
      if (no_nan && a.hi < b.lo) return Tri::False;
      return Tri::Maybe;
    case BinOp::Eq:
      if (disjoint) return Tri::False;  // NaN == x is false as well
      if (no_nan && a.is_exact() && b.is_exact() && a.lo == b.lo)
        return Tri::True;
      return Tri::Maybe;
    case BinOp::Ne:
      if (disjoint) return Tri::True;  // NaN != x is true as well
      if (no_nan && a.is_exact() && b.is_exact() && a.lo == b.lo)
        return Tri::False;
      return Tri::Maybe;
    default:
      return Tri::Maybe;
  }
}

/// Truthiness of an abstract value: NaN is truthy (NaN != 0), zero is
/// the only falsy scalar, vectors/strings are truthy iff non-empty.
Tri truth_of(const AbsVal& v) {
  bool can_true = false;
  bool can_false = false;
  if (v.may_scalar) {
    can_true |= v.num.maybe_nan || v.num.lo < 0 || v.num.hi > 0;
    can_false |= v.num.lo <= 0 && v.num.hi >= 0;
  }
  if (v.may_vector) {
    can_true |= v.len.hi >= 1;
    can_false |= v.len.lo <= 0;
  }
  if (v.may_string || v.may_unbound) {
    can_true = true;
    can_false = true;
  }
  if (can_true && !can_false) return Tri::True;
  if (can_false && !can_true) return Tri::False;
  return Tri::Maybe;
}

AbsVal tri_scalar(Tri t) {
  switch (t) {
    case Tri::True: return AbsVal::scalar(iv_exact(1));
    case Tri::False: return AbsVal::scalar(iv_exact(0));
    default: return AbsVal::scalar(iv_range(0, 1, true));
  }
}

Interval pick_join(bool a_has, const Interval& a, bool b_has,
                   const Interval& b, const Interval& neither) {
  if (a_has && b_has) return join(a, b);
  if (a_has) return a;
  if (b_has) return b;
  return neither;
}

const Interval kLenTop{0, kAbsInf, true, false};

/// Lane equality: one pool entry, or equal values.
bool same_constant(const pits::Value* a, const pits::Value* b) {
  return a == b || (a != nullptr && b != nullptr && a->equals(*b));
}

/// Edit distance for "did you mean" hints on unknown function names.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

std::string closest_builtin(const std::string& name) {
  std::string best;
  std::size_t best_d = 3;  // suggest only within edit distance 2
  for (const std::string& candidate :
       pits::BuiltinRegistry::instance().names()) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_d) {
      best_d = d;
      best = candidate;
    }
  }
  return best;
}

/// A folded index as BAN105 prints it ("3", "0.5").
std::string index_text(double v) {
  std::string s = std::to_string(v);
  s.erase(s.find_last_not_of('0') + 1);
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

}  // namespace

// ---------------------------------------------------------------------
// AbsVal lattice
// ---------------------------------------------------------------------

bool operator==(const AbsVal& a, const AbsVal& b) {
  return a.may_scalar == b.may_scalar && a.may_vector == b.may_vector &&
         a.may_string == b.may_string && a.may_unbound == b.may_unbound &&
         a.must_assigned == b.must_assigned && a.num == b.num &&
         a.len == b.len && a.elem == b.elem && a.origin == b.origin &&
         same_constant(a.constant, b.constant);
}

// States are copied at every branch and loop iteration; a trivially
// copyable AbsVal keeps those copies plain memory moves.
static_assert(std::is_trivially_copyable_v<AbsVal>);

AbsVal join(const AbsVal& a, const AbsVal& b) {
  AbsVal r;
  r.may_scalar = a.may_scalar || b.may_scalar;
  r.may_vector = a.may_vector || b.may_vector;
  r.may_string = a.may_string || b.may_string;
  r.may_unbound = a.may_unbound || b.may_unbound;
  r.must_assigned = a.must_assigned && b.must_assigned;
  r.num = pick_join(a.may_scalar, a.num, b.may_scalar, b.num, iv_top());
  r.len = pick_join(a.may_vector, a.len, b.may_vector, b.len, kLenTop);
  r.elem = pick_join(a.may_vector, a.elem, b.may_vector, b.elem, iv_top());
  r.origin = a.origin == b.origin ? a.origin : nullptr;
  if (same_constant(a.constant, b.constant)) r.constant = a.constant;
  return r;
}

AbsVal widen(const AbsVal& prev, const AbsVal& next) {
  AbsVal r = join(prev, next);
  // A kind that only appears in `next` adopts next's intervals (first
  // appearance); a kind present in both widens bound-by-bound.
  r.num = prev.may_scalar ? widen(prev.num, r.num) : r.num;
  r.len = prev.may_vector ? widen(prev.len, r.len) : r.len;
  r.elem = prev.may_vector ? widen(prev.elem, r.elem) : r.elem;
  return r;
}

namespace {

// ---------------------------------------------------------------------
// Abstract machine state
// ---------------------------------------------------------------------

struct AbsState {
  bool reachable = true;
  std::map<std::string, AbsVal> vars;
  /// May/must "formula i registered" bitmasks over the routine's
  /// FormulaDef statements, in collection order (index 63 is shared by
  /// all defs past the 63rd; must-tracking is disabled entirely then).
  std::uint64_t def_may = 0;
  std::uint64_t def_must = 0;
};

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

class AbsInterp {
 public:
  struct Config {
    /// Diagnostics mode: the declared inputs are bound. Facts mode
    /// (null): free variables may be unbound and of any type, so every
    /// recorded proof holds for any environment.
    const RoutineContext* ctx = nullptr;
    std::vector<Diagnostic>* sink = nullptr;
    pits::bc::AnalysisFacts* facts = nullptr;
    ShapeSummary* summary = nullptr;
  };

  explicit AbsInterp(Config cfg) : cfg_(cfg) {}

  void run(const Block& body) {
    collect_formulas(body);
    if (cfg_.sink != nullptr) census(body);
    AbsState st;
    if (cfg_.ctx != nullptr) {
      for (const std::string& in : cfg_.ctx->inputs) {
        AbsVal v = AbsVal::top_bound();
        v.must_assigned = true;
        v.origin = &in;
        st.vars[in] = v;
      }
    }
    exit_acc_.reachable = false;
    exec_block(body, st);
    const AbsState fin = join_state(exit_acc_, st);
    if (cfg_.summary != nullptr && cfg_.ctx != nullptr) {
      for (const std::string& out : cfg_.ctx->outputs) {
        // The summary outlives the context and the pool its pointers
        // refer to.
        AbsVal& v = cfg_.summary->outputs[out] = peek_var(fin, out);
        v.origin = nullptr;
        v.constant = nullptr;
      }
    }
  }

  /// Syntactic companion pass: a statement gets exactly one tick iff its
  /// expressions cannot call a user formula (formula evaluation ticks
  /// per call; builtins and `when` do not).
  void mark_single_ticks(const Block& body, pits::bc::AnalysisFacts& facts) {
    for_each_stmt(body, [&](const Stmt& s) {
      // Control statements tick per iteration or arm; ReturnStmt and
      // FormulaDef (registering does not evaluate the body) tick once.
      bool single = std::holds_alternative<ReturnStmt>(s.node) ||
                    std::holds_alternative<FormulaDef>(s.node);
      if (const auto* a = std::get_if<AssignStmt>(&s.node)) {
        single = (a->index == nullptr || formula_free(*a->index)) &&
                 formula_free(*a->value);
      } else if (const auto* x = std::get_if<ExprStmt>(&s.node)) {
        single = formula_free(*x->expr);
      }
      if (single) facts.single_tick.insert(&s);
    });
  }

 private:
  // ---- setup ----

  void collect_formulas(const Block& body) {
    for_each_stmt(body, [&](const Stmt& s) {
      if (const auto* def = std::get_if<FormulaDef>(&s.node)) {
        def_index_[def] = defs_.size();
        formula_index_[def->name].push_back(defs_.size());
        defs_.push_back(def);
      }
    });
  }

  // ---- syntactic census (diagnostics mode) ----

  /// One pass over the whole routine, dead code included: which names
  /// are read and assigned anywhere (for BAN101 and the constant lane),
  /// plus the rules that need no values — dead stores (BAN102), code
  /// after `return` (BAN103), unknown functions (BAN106), arity
  /// (BAN107) and formula bodies that read task variables (BAN101).
  void census(const Block& body) {
    census_block(body);
    for (const Expr* read : formula_reads_) {
      const std::string& name = std::get<VarRef>(read->node).name;
      if (may_be_unassigned(name)) report_unassigned(name, read->pos);
    }
    const auto& outs = cfg_.ctx->outputs;
    for (const auto& [var, pos] : first_assign_) {
      if (reads_.count(var) > 0) continue;
      if (std::find(outs.begin(), outs.end(), var) != outs.end()) continue;
      emit("BAN102", pos,
           "`" + var + "` is assigned but its value is never used",
           "remove the assignment, or declare `" + var +
               "` as an output (out=)");
    }
  }

  void census_block(const Block& block) {
    for (const StmtPtr& sp : block) census_stmt(*sp);
    const auto ret = std::find_if(block.begin(), block.end(),
                                  [](const StmtPtr& sp) {
                                    return std::holds_alternative<ReturnStmt>(
                                        sp->node);
                                  });
    if (ret != block.end() && ret + 1 != block.end()) {
      emit("BAN103", (*(ret + 1))->pos,
           "statement is unreachable: the routine has already returned",
           "remove the dead code or the `return` above it");
    }
  }

  void census_stmt(const Stmt& s) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, AssignStmt>) {
            if (node.index) {
              reads_.insert(node.target);  // element assign reads the vector
              census_expr(*node.index);
            }
            census_expr(*node.value);
            first_assign_.try_emplace(node.target, s.pos);
          } else if constexpr (std::is_same_v<T, IfStmt>) {
            for (const IfStmt::Arm& arm : node.arms) {
              census_expr(*arm.cond);
              census_block(arm.body);
            }
            census_block(node.else_body);
          } else if constexpr (std::is_same_v<T, WhileStmt>) {
            census_expr(*node.cond);
            census_block(node.body);
          } else if constexpr (std::is_same_v<T, RepeatStmt>) {
            census_expr(*node.count);
            census_block(node.body);
          } else if constexpr (std::is_same_v<T, ForStmt>) {
            census_expr(*node.from);
            census_expr(*node.to);
            if (node.step) census_expr(*node.step);
            loop_vars_.insert(node.var);
            census_block(node.body);
          } else if constexpr (std::is_same_v<T, FormulaDef>) {
            census_expr(*node.body, &node.params);
          } else if constexpr (std::is_same_v<T, ExprStmt>) {
            census_expr(*node.expr);
          }
        },
        s.node);
  }

  /// `params` is non-null inside a formula body, where the parameters
  /// shadow task variables and every other read is of one.
  void census_expr(const Expr& e,
                   const std::vector<std::string>* params = nullptr) {
    for_each_expr(e, [&](const Expr& x) {
      if (const auto* call = std::get_if<Call>(&x.node)) {
        check_call(*call, x.pos);
        return;
      }
      const auto* read = std::get_if<VarRef>(&x.node);
      if (read == nullptr) return;
      if (params == nullptr) {
        reads_.insert(read->name);
      } else if (std::find(params->begin(), params->end(), read->name) ==
                 params->end()) {
        reads_.insert(read->name);
        formula_reads_.push_back(&x);
      }
    });
  }

  void check_call(const Call& node, SourcePos pos) {
    const auto n = node.args.size();
    if (node.callee == "when") {
      if (n != 3) {
        emit("BAN107", pos, "when() expects (condition, then, else), got " +
                                std::to_string(n) + " argument(s)");
      }
      return;
    }
    if (auto it = formula_index_.find(node.callee);
        it != formula_index_.end()) {
      const std::size_t arity = defs_[it->second.front()]->params.size();
      if (n != arity) {
        emit("BAN107", pos,
             "formula `" + node.callee + "` expects " +
                 std::to_string(arity) + " argument(s), got " +
                 std::to_string(n));
      }
      return;
    }
    const pits::Builtin* fn =
        pits::BuiltinRegistry::instance().find(node.callee);
    if (fn == nullptr) {
      std::string hint;
      if (std::string near = closest_builtin(node.callee); !near.empty()) {
        hint = "did you mean `" + near + "`?";
      }
      emit("BAN106", pos, "unknown function `" + node.callee + "`",
           std::move(hint));
      return;
    }
    const int args = static_cast<int>(n);
    if (args < fn->min_args || (fn->max_args >= 0 && args > fn->max_args)) {
      std::string expects = std::to_string(fn->min_args);
      if (fn->max_args < 0) {
        expects += "+";
      } else if (fn->max_args != fn->min_args) {
        expects += ".." + std::to_string(fn->max_args);
      }
      emit("BAN107", pos,
           "`" + node.callee + "` expects " + expects + " argument(s), got " +
               std::to_string(n));
    }
  }

  [[nodiscard]] bool assigned_anywhere(const std::string& name) const {
    return first_assign_.count(name) > 0 || loop_vars_.count(name) > 0;
  }

  /// BAN101 applies to names the routine assigns somewhere; names never
  /// assigned are its free inputs, which the interface layer (BAN004)
  /// checks against the declared ports. Calculator constants and
  /// formula names always resolve.
  [[nodiscard]] bool may_be_unassigned(const std::string& name) const {
    return assigned_anywhere(name) && pits::constants().count(name) == 0 &&
           formula_index_.count(name) == 0;
  }

  void report_unassigned(const std::string& name, SourcePos pos) {
    emit("BAN101", pos, "`" + name + "` may be read before it is assigned",
         "assign `" + name + "` on every path before this statement");
  }

  [[nodiscard]] bool formula_free(const Expr& e) const {
    bool ok = true;
    for_each_expr(e, [&](const Expr& x) {
      const auto* call = std::get_if<Call>(&x.node);
      if (call != nullptr && call->callee != "when" &&
          formula_index_.count(call->callee) > 0)
        ok = false;
    });
    return ok;
  }

  // ---- state helpers ----

  [[nodiscard]] AbsVal default_var(const std::string& name) const {
    AbsVal v = AbsVal::top();
    // Calculator constants materialise on read (no Name error), though
    // the environment may shadow them with any value.
    if (pits::constants().count(name) > 0) v.may_unbound = false;
    return v;
  }

  [[nodiscard]] AbsVal peek_var(const AbsState& st,
                                const std::string& name) const {
    auto it = st.vars.find(name);
    return it != st.vars.end() ? it->second : default_var(name);
  }

  [[nodiscard]] AbsState join_state(const AbsState& a, const AbsState& b) const {
    if (!a.reachable) return b;
    if (!b.reachable) return a;
    AbsState r;
    r.def_may = a.def_may | b.def_may;
    r.def_must = a.def_must & b.def_must;
    r.vars = a.vars;
    for (const auto& [k, v] : b.vars) {
      auto it = r.vars.find(k);
      if (it == r.vars.end()) {
        r.vars.emplace(k, join(default_var(k), v));
      } else {
        it->second = join(it->second, v);
      }
    }
    for (auto& [k, v] : r.vars) {
      if (b.vars.count(k) == 0) v = join(v, default_var(k));
    }
    return r;
  }

  [[nodiscard]] AbsState widen_state(const AbsState& prev,
                                     const AbsState& next) const {
    AbsState r;
    r.reachable = next.reachable;
    r.def_may = next.def_may;
    r.def_must = next.def_must;
    for (const auto& [k, v] : next.vars) {
      auto it = prev.vars.find(k);
      r.vars.emplace(k, it != prev.vars.end() ? widen(it->second, v)
                                              : widen(default_var(k), v));
    }
    return r;
  }

  [[nodiscard]] bool state_eq(const AbsState& a, const AbsState& b) const {
    if (a.reachable != b.reachable || a.def_may != b.def_may ||
        a.def_must != b.def_must)
      return false;
    for (const auto& [k, v] : a.vars)
      if (!(v == peek_var(b, k))) return false;
    for (const auto& [k, v] : b.vars)
      if (a.vars.count(k) == 0 && !(v == default_var(k))) return false;
    return true;
  }

  // ---- reporting ----

  [[nodiscard]] bool recording(const AbsState& st) const {
    return record_ && st.reachable && depth_ == 0;
  }

  void emit(std::string code, SourcePos pos, std::string message,
            std::string hint = {}) {
    const DiagnosticRule* rule = find_rule(code);
    Diagnostic d;
    d.code = std::move(code);
    d.severity = rule != nullptr ? rule->severity : Severity::Warning;
    d.subject_kind = "task";
    d.message = std::move(message);
    d.hint = std::move(hint);
    d.pos = pos;
    cfg_.sink->push_back(std::move(d));
  }

  /// Diagnostics mode, reachable code, recording walk: where the value
  /// rules report and the constant lane is kept.
  [[nodiscard]] bool reporting(const AbsState& st) const {
    return cfg_.sink != nullptr && recording(st);
  }

  /// Where BAN101 and the interval rules report: reachable statements
  /// of the routine. A formula body checked at its definition gets the
  /// constant rules only (the census reports its reads).
  [[nodiscard]] bool proving(const AbsState& st) const {
    return reporting(st) && !formula_scope_;
  }

  /// Folds `e` over the constant lane of `st`. A calculator constant
  /// folds only where nothing can shadow it: inside a formula body
  /// (which sees just its parameters), or at top level when the name is
  /// neither a declared input nor assigned anywhere in the routine.
  [[nodiscard]] std::optional<pits::Value> lane_fold(const Expr& e,
                                                     const AbsState& st) const {
    return pits::fold(
        e, [&](const std::string& name) -> std::optional<pits::Value> {
          if (auto it = st.vars.find(name); it != st.vars.end()) {
            if (it->second.constant == nullptr) return std::nullopt;
            return *it->second.constant;
          }
          if (!formula_scope_ && assigned_anywhere(name)) return std::nullopt;
          if (auto c = pits::constants().find(name);
              c != pits::constants().end())
            return pits::Value(c->second);
          return std::nullopt;
        });
  }

  /// A loop's exit keeps only the constants its head kept: the lane
  /// drops every variable an iteration reassigns.
  static void keep_head_lane(AbsState& st, const AbsState& head) {
    for (auto& [k, v] : st.vars) {
      if (!v.constant) continue;
      auto it = head.vars.find(k);
      if (it == head.vars.end() || !it->second.constant) v.constant = nullptr;
    }
  }

  void demand_vector(const AbsState& st, const std::string* origin,
                     double min_len, SourcePos pos) {
    if (cfg_.summary == nullptr || origin == nullptr || !recording(st)) return;
    ShapeDemand& d = cfg_.summary->demands[*origin];
    if (!d.pos.valid()) d.pos = pos;
    d.needs_vector = true;
    d.min_len = std::max(d.min_len, min_len);
  }

  void demand_scalar(const AbsState& st, const std::string* origin,
                     SourcePos pos) {
    if (cfg_.summary == nullptr || origin == nullptr || !recording(st)) return;
    ShapeDemand& d = cfg_.summary->demands[*origin];
    if (!d.pos.valid()) d.pos = pos;
    d.needs_scalar = true;
  }

  void demand_elem_len(const AbsState& st, const std::string* origin,
                       double exact_len, SourcePos pos) {
    if (cfg_.summary == nullptr || origin == nullptr || !recording(st)) return;
    ShapeDemand& d = cfg_.summary->demands[*origin];
    if (!d.pos.valid()) d.pos = pos;
    if (d.elem_len < 0) d.elem_len = exact_len;
  }

  // ---- expression evaluation ----

  AbsVal eval(const Expr& e, AbsState& st) {
    return std::visit([&](const auto& node) { return eval_node(node, e, st); },
                      e.node);
  }

  /// Evaluation with fact/diagnostic recording suppressed (condition
  /// refinement, fixpoint probing).
  AbsVal eval_quiet(const Expr& e, AbsState& st) {
    const bool saved = record_;
    record_ = false;
    AbsVal v = eval(e, st);
    record_ = saved;
    return v;
  }

  AbsVal eval_node(const NumberLit& node, const Expr&, AbsState&) {
    return AbsVal::scalar(iv_exact(node.value));
  }

  AbsVal eval_node(const StringLit&, const Expr&, AbsState&) {
    return AbsVal::string();
  }

  AbsVal eval_node(const VarRef& node, const Expr& e, AbsState& st) {
    AbsVal v = peek_var(st, node.name);
    if (recording(st) && v.must_assigned && cfg_.facts != nullptr) {
      cfg_.facts->bound_reads.insert(&node);
    }
    if (proving(st) && !v.must_assigned && may_be_unassigned(node.name)) {
      report_unassigned(node.name, e.pos);
    }
    v.may_unbound = false;  // a successful read always yields a value
    return v;
  }

  AbsVal eval_node(const VectorLit& node, const Expr&, AbsState& st) {
    Interval elem = iv_top();
    bool first = true;
    for (const auto& el : node.elements) {
      const AbsVal v = eval(*el, st);
      const Interval n = v.may_scalar ? v.num : iv_top();
      elem = first ? n : join(elem, n);
      first = false;
    }
    return AbsVal::vector(iv_exact(static_cast<double>(node.elements.size())),
                          elem);
  }

  AbsVal eval_node(const Unary& node, const Expr&, AbsState& st) {
    const AbsVal v = eval(*node.operand, st);
    if (node.op == UnOp::Not) return tri_scalar(invert(truth_of(v)));
    AbsVal r;
    r.may_unbound = false;
    r.may_string = false;
    r.may_scalar = v.may_scalar;
    r.may_vector = v.may_vector;
    if (!r.may_scalar && !r.may_vector) return AbsVal::scalar(iv_top());
    r.num = iv_neg(v.num);
    r.len = v.len;
    r.elem = iv_neg(v.elem);
    return r;
  }

  static Tri invert(Tri t) {
    return t == Tri::True ? Tri::False : t == Tri::False ? Tri::True
                                                         : Tri::Maybe;
  }

  AbsVal eval_node(const pits::Binary& node, const Expr& e, AbsState& st) {
    if (node.op == BinOp::And || node.op == BinOp::Or) {
      const Tri ta = truth_of(eval(*node.lhs, st));
      // A left side that decides the result leaves the right side dead:
      // the walker never evaluates it, so nothing is recorded there.
      if (ta == (node.op == BinOp::And ? Tri::False : Tri::True))
        return tri_scalar(ta);
      const Tri tb = truth_of(eval(*node.rhs, st));
      Tri t = Tri::Maybe;
      if (node.op == BinOp::And) {
        if (ta == Tri::False || tb == Tri::False) t = Tri::False;
        else if (ta == Tri::True && tb == Tri::True) t = Tri::True;
      } else {
        if (ta == Tri::True || tb == Tri::True) t = Tri::True;
        else if (ta == Tri::False && tb == Tri::False) t = Tri::False;
      }
      return tri_scalar(t);
    }
    const AbsVal a = eval(*node.lhs, st);
    const AbsVal b = eval(*node.rhs, st);
    switch (node.op) {
      case BinOp::Eq:
      case BinOp::Ne:
        return tri_scalar(equality(node.op, a, b));
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge:
        if (a.proven_scalar() && b.proven_scalar())
          return tri_scalar(tri_cmp(node.op, a.num, b.num));
        return tri_scalar(Tri::Maybe);
      default:
        return arith_val(node, a, b, e, st);
    }
  }

  static Tri equality(BinOp op, const AbsVal& a, const AbsVal& b) {
    Tri eq = Tri::Maybe;
    const bool kinds_overlap = (a.may_scalar && b.may_scalar) ||
                               (a.may_vector && b.may_vector) ||
                               (a.may_string && b.may_string);
    if (!kinds_overlap) {
      eq = Tri::False;  // values of different kinds are never equal
    } else if (a.proven_scalar() && b.proven_scalar()) {
      eq = tri_cmp(BinOp::Eq, a.num, b.num);
    } else if (a.proven_vector() && b.proven_vector() &&
               (a.len.hi < b.len.lo || b.len.hi < a.len.lo)) {
      eq = Tri::False;  // provably different lengths
    }
    return op == BinOp::Eq ? eq : invert(eq);
  }

  AbsVal arith_val(const pits::Binary& node, const AbsVal& a, const AbsVal& b,
                   const Expr& e, AbsState& st) {
    const BinOp op = node.op;
    if ((op == BinOp::Div || op == BinOp::Mod) && reporting(st)) {
      const std::string what = op == BinOp::Div ? "division" : "mod";
      const auto divisor = lane_fold(*node.rhs, st);
      if (divisor && divisor->is_scalar() && divisor->as_scalar() == 0) {
        // BAN104: the divisor folds to zero.
        emit("BAN104", node.rhs->pos,
             what + " by zero: the divisor is always 0",
             "guard the division with `if` or `when(...)`");
      } else if (proving(st) && b.proven_scalar() && b.num.is_exact() &&
                 b.num.lo == 0 && !a.proven_string()) {
        // BAN301: only the intervals prove the divisor zero.
        emit("BAN301", node.rhs->pos,
             what + " by a divisor proven to be zero",
             "every execution reaching this expression fails");
      }
    }
    // BAN305: elementwise op on vectors of provably different lengths.
    if (proving(st) && a.proven_vector() && b.proven_vector() &&
        (a.len.hi < b.len.lo || b.len.hi < a.len.lo)) {
      emit("BAN305", e.pos,
           "elementwise `" + std::string(pits::to_string(op)) +
               "` on vectors of provably different lengths (" +
               len_text(a.len) + " vs " + len_text(b.len) + ")");
    }
    // Cross-task demand: an elementwise partner of exact length pins the
    // length an input must have *if* it arrives as a vector.
    if (a.origin != nullptr && b.proven_vector() && b.len.is_exact())
      demand_elem_len(st, a.origin, b.len.lo, e.pos);
    if (b.origin != nullptr && a.proven_vector() && a.len.is_exact())
      demand_elem_len(st, b.origin, a.len.lo, e.pos);

    AbsVal r;
    bool any = false;
    auto merge = [&](const AbsVal& v) {
      r = any ? join(r, v) : v;
      any = true;
    };
    if (op == BinOp::Add && a.may_string && b.may_string)
      merge(AbsVal::string());
    if (a.may_scalar && b.may_scalar) {
      Interval n = scalar_arith(op, node, a.num, b.num);
      merge(AbsVal::scalar(n));
    }
    if (a.may_vector && b.may_vector) {
      const Interval len = iv_range(std::max(a.len.lo, b.len.lo),
                                    std::min(a.len.hi, b.len.hi), true);
      if (std::max(a.len.lo, b.len.lo) <= std::min(a.len.hi, b.len.hi))
        merge(AbsVal::vector(len, scalar_arith(op, node, a.elem, b.elem)));
    }
    if (a.may_vector && b.may_scalar)
      merge(AbsVal::vector(a.len, scalar_arith(op, node, a.elem, b.num)));
    if (a.may_scalar && b.may_vector)
      merge(AbsVal::vector(b.len, scalar_arith(op, node, a.num, b.elem)));
    return any ? r : AbsVal::scalar(iv_top());
  }

  static std::string len_text(const Interval& len) {
    auto fmt = [](double v) {
      if (v == kAbsInf) return std::string("inf");
      return std::to_string(static_cast<long long>(v));
    };
    if (len.is_exact()) return fmt(len.lo);
    return fmt(len.lo) + ".." + fmt(len.hi);
  }

  /// Scalar arithmetic with the x-x / x*x / x/x same-variable
  /// refinements (both sides the same VarRef denote the same value).
  static Interval scalar_arith(BinOp op, const pits::Binary& node,
                               const Interval& a, const Interval& b) {
    const auto* lv = std::get_if<VarRef>(&node.lhs->node);
    const auto* rv = std::get_if<VarRef>(&node.rhs->node);
    const bool same = lv != nullptr && rv != nullptr && lv->name == rv->name;
    if (same) {
      if (op == BinOp::Sub)
        return {0, 0, true, a.maybe_nan || may_inf(a)};  // inf - inf is NaN
      if (op == BinOp::Mul) return iv_square(a);
      if (op == BinOp::Div && (a.lo > 0 || a.hi < 0))
        return {1, 1, true, a.maybe_nan || may_inf(a)};  // inf / inf is NaN
    }
    switch (op) {
      case BinOp::Add: return iv_add(a, b);
      case BinOp::Sub: return iv_sub(a, b);
      case BinOp::Mul: return iv_mul(a, b);
      case BinOp::Div: return iv_div(a, b);
      case BinOp::Mod: return iv_mod(a, b);
      case BinOp::Pow: return iv_pow(a, b);
      default: return iv_top();
    }
  }

  AbsVal eval_node(const Index& node, const Expr& e, AbsState& st) {
    const AbsVal base = eval(*node.base, st);
    const AbsVal idx = eval(*node.index, st);
    note_index_site(base, idx, node, e, st);
    if (cfg_.facts != nullptr && recording(st) && index_safe(base, idx))
      cfg_.facts->safe_index.insert(&e);
    return AbsVal::scalar(base.may_vector ? base.elem : iv_top());
  }

  /// The index is proven to be an in-bounds integer for every possible
  /// length of the (proven) vector.
  static bool index_safe(const AbsVal& base, const AbsVal& idx) {
    return base.proven_vector() && idx.proven_scalar() &&
           !idx.num.maybe_nan && idx.num.integer && idx.num.lo >= 0 &&
           idx.num.hi < base.len.lo;
  }

  void note_index_site(const AbsVal& base, const AbsVal& idx,
                       const Index& node, const Expr& e, AbsState& st) {
    const Expr& index_expr = *node.index;
    if (base.origin != nullptr) {
      const double need =
          idx.may_scalar && idx.num.lo >= 0 && std::isfinite(idx.num.lo)
              ? std::floor(idx.num.lo) + 1
              : 1;
      demand_vector(st, base.origin, need, e.pos);
    }
    if (idx.origin != nullptr) demand_scalar(st, idx.origin, index_expr.pos);
    if (!reporting(st) || constant_index_fails(node, st) || !proving(st))
      return;
    if (!base.proven_vector() || !idx.proven_scalar() || idx.num.maybe_nan)
      return;
    const Interval& n = idx.num;
    const bool no_integer =
        !n.integer && std::floor(n.lo) == std::floor(n.hi) &&
        n.lo > std::floor(n.lo);
    if (no_integer) {
      emit("BAN302", index_expr.pos,
           "index is proven not to be an integer (value in [" +
               num_text(n.lo) + ", " + num_text(n.hi) + "])");
    } else if (n.hi < 0 || (std::isfinite(base.len.hi) && n.lo >= base.len.hi)) {
      emit("BAN302", index_expr.pos,
           "index in [" + num_text(n.lo) + ", " + num_text(n.hi) +
               "] is proven out of range for a vector of length " +
               len_text(base.len));
    }
  }

  /// BAN105: the vector and the index both fold, and the index is not
  /// an integer or out of range. True when it reported.
  bool constant_index_fails(const Index& node, const AbsState& st) {
    const auto vec = lane_fold(*node.base, st);
    if (!vec || !vec->is_vector()) return false;
    const auto at = lane_fold(*node.index, st);
    if (!at || !at->is_scalar()) return false;
    const double raw = at->as_scalar();
    const std::size_t n = vec->as_vector().size();
    if (std::floor(raw) != raw) {
      emit("BAN105", node.index->pos,
           "index " + index_text(raw) + " is not an integer");
    } else if (raw < 0 || raw >= static_cast<double>(n)) {
      emit("BAN105", node.index->pos,
           "index " + index_text(raw) + " is out of range [0," +
               std::to_string(n) + ")",
           "PITS vectors are 0-based");
    } else {
      return false;
    }
    return true;
  }

  static std::string num_text(double v) {
    if (v == kAbsInf) return "inf";
    if (v == -kAbsInf) return "-inf";
    if (std::floor(v) == v && std::abs(v) < 1e15)
      return std::to_string(static_cast<long long>(v));
    return std::to_string(v);
  }

  AbsVal eval_node(const Call& node, const Expr&, AbsState& st) {
    if (node.callee == "when") {
      if (node.args.size() != 3) return AbsVal::top_bound();
      const Tri t = truth_of(eval(*node.args[0], st));
      // `when` is lazy: an arm the condition rules out is dead code.
      // Otherwise both arms over-approximate each possible execution
      // (and terminate: recursion is depth-capped).
      if (t == Tri::True) return eval(*node.args[1], st);
      if (t == Tri::False) return eval(*node.args[2], st);
      const AbsVal a = eval(*node.args[1], st);
      return join(a, eval(*node.args[2], st));
    }
    std::vector<AbsVal> args;
    args.reserve(node.args.size());
    for (const auto& ap : node.args) args.push_back(eval(*ap, st));

    AbsVal result;
    bool any = false;
    bool must_formula = false;
    if (auto it = formula_index_.find(node.callee);
        it != formula_index_.end()) {
      for (std::size_t di : it->second) {
        const std::uint64_t bit = 1ULL << std::min<std::size_t>(di, 63);
        if ((st.def_may & bit) == 0) continue;
        const bool must =
            defs_.size() <= 63 && (st.def_must & (1ULL << di)) != 0;
        must_formula = must_formula || must;
        if (defs_[di]->params.size() != node.args.size()) continue;  // arity error
        const AbsVal r = eval_formula(*defs_[di], args, st);
        result = any ? join(result, r) : r;
        any = true;
      }
    }
    if (!must_formula) {
      const AbsVal r = builtin_model(node.callee, args);
      result = any ? join(result, r) : r;
      any = true;
    }
    return any ? result : AbsVal::top_bound();
  }

  AbsVal eval_formula(const FormulaDef& def, const std::vector<AbsVal>& args,
                      const AbsState& st) {
    if (depth_ >= 6 || in_flight_.count(&def) > 0) return summary_of(def);
    ++depth_;
    in_flight_.insert(&def);
    AbsState fst;
    fst.def_may = st.def_may;
    fst.def_must = st.def_must;
    for (std::size_t i = 0; i < def.params.size(); ++i) {
      AbsVal a = args[i];
      a.may_unbound = false;
      a.must_assigned = true;
      a.origin = nullptr;
      fst.vars.try_emplace(def.params[i], std::move(a));  // first wins
    }
    AbsVal r = eval(*def.body, fst);
    in_flight_.erase(&def);
    --depth_;
    r.may_unbound = false;
    r.must_assigned = false;
    r.origin = nullptr;
    return r;
  }

  /// Memoised result of a formula over top arguments; the pre-seeded
  /// top entry doubles as the in-progress guard for recursive formulas.
  AbsVal summary_of(const FormulaDef& def) {
    auto [it, fresh] = summaries_.try_emplace(&def, AbsVal::top_bound());
    if (!fresh) return it->second;
    AbsState fst;
    fst.def_may = ~0ULL;  // any formula may be registered by then
    for (const std::string& p : def.params) {
      AbsVal a = AbsVal::top_bound();
      a.must_assigned = true;
      fst.vars.try_emplace(p, std::move(a));
    }
    ++depth_;
    in_flight_.insert(&def);
    AbsVal r = eval(*def.body, fst);
    in_flight_.erase(&def);
    --depth_;
    r.may_unbound = false;
    r.must_assigned = false;
    r.origin = nullptr;
    summaries_[&def] = r;
    return r;
  }

  // ---- builtin models ----

  /// Sound models for the calculator builtins; anything unmodelled is
  /// top. Unknown names raise a Name error at run time, so top is sound
  /// there too.
  static AbsVal builtin_model(const std::string& name,
                              const std::vector<AbsVal>& args) {
    const auto n = args.size();
    auto num = [&](std::size_t i) {
      return args[i].may_scalar ? args[i].num : iv_top();
    };
    // add1 builtins broadcast elementwise over vectors: the result
    // mirrors the argument's shape, values go through `g`.
    auto map1 = [&](auto&& g) {
      const AbsVal& a = args[0];
      AbsVal r;
      r.may_unbound = false;
      r.may_string = false;
      r.may_scalar = a.may_scalar;
      r.may_vector = a.may_vector;
      if (!r.may_scalar && !r.may_vector) return AbsVal::scalar(iv_top());
      r.num = g(a.may_scalar ? a.num : iv_top());
      r.len = a.len;
      r.elem = g(a.may_vector ? a.elem : iv_top());
      return r;
    };
    if (n == 1) {
      if (name == "abs") {
        return map1([](const Interval& a) {
          const double m = std::max(std::abs(a.lo), std::abs(a.hi));
          const double lo = a.lo <= 0 && a.hi >= 0
                                ? 0
                                : std::min(std::abs(a.lo), std::abs(a.hi));
          return Interval{lo, m, a.integer, a.maybe_nan};
        });
      }
      if (name == "sqrt") {
        return map1([](const Interval& a) {
          return iv_range(std::sqrt(std::max(0.0, a.lo)),
                          std::sqrt(std::max(0.0, a.hi)), false, a.maybe_nan);
        });
      }
      if (name == "cbrt") {
        return map1([](const Interval& a) {
          return iv_range(std::cbrt(a.lo), std::cbrt(a.hi), false,
                          a.maybe_nan);
        });
      }
      if (name == "exp") {
        return map1([](const Interval& a) {
          return iv_range(std::exp(a.lo), std::exp(a.hi), false, a.maybe_nan);
        });
      }
      if (name == "floor" || name == "ceil" || name == "round" ||
          name == "trunc") {
        double (*f)(double) =
            name == "floor"   ? static_cast<double (*)(double)>(std::floor)
            : name == "ceil"  ? static_cast<double (*)(double)>(std::ceil)
            : name == "round" ? static_cast<double (*)(double)>(std::round)
                              : static_cast<double (*)(double)>(std::trunc);
        return map1([f](const Interval& a) {
          return iv_range(f(a.lo), f(a.hi), true, a.maybe_nan);
        });
      }
      if (name == "frac") {
        return map1([](const Interval& a) {
          return iv_range(-1, 1, false, a.maybe_nan || may_inf(a));
        });
      }
      if (name == "sign") {
        return map1([](const Interval& a) {
          return iv_range(-1, 1, true, a.maybe_nan);
        });
      }
      if (name == "sin" || name == "cos") {
        return map1([](const Interval& a) {
          return iv_range(-1, 1, false, a.maybe_nan || may_inf(a));
        });
      }
      if (name == "tanh") {
        return map1([](const Interval& a) {
          return iv_range(-1, 1, false, a.maybe_nan);
        });
      }
      if (name == "atan") {
        return map1([](const Interval& a) {
          return iv_range(-kPi / 2, kPi / 2, false, a.maybe_nan);
        });
      }
      if (name == "asin" || name == "acos") {
        return map1([&](const Interval&) {
          return iv_range(name == "asin" ? -kPi / 2 : 0, kPi, false, true);
        });
      }
      if (name == "tan" || name == "sinh" || name == "cosh" || name == "ln" ||
          name == "log10" || name == "log2" || name == "deg" ||
          name == "rad") {
        return map1([](const Interval&) {
          return Interval{-kAbsInf, kAbsInf, false, true};
        });
      }
      if (name == "len") {
        const AbsVal& a = args[0];
        Interval r = kLenTop;
        if (a.proven_vector()) r = a.len;
        return AbsVal::scalar(r);
      }
      if (name == "zeros" || name == "ones") {
        const Interval c = num(0);
        const Interval len =
            iv_range(std::max(0.0, c.lo), std::min(c.hi, 1e8), true);
        return AbsVal::vector(len, iv_exact(name == "zeros" ? 0 : 1));
      }
      if (name == "reverse" || name == "sort") {
        const AbsVal& a = args[0];
        return AbsVal::vector(a.may_vector ? a.len : kLenTop,
                              a.may_vector ? a.elem : iv_top());
      }
      if (name == "minv" || name == "maxv") {
        const AbsVal& a = args[0];
        return AbsVal::scalar(a.may_vector ? a.elem : iv_top());
      }
      if (name == "sum" || name == "prod" || name == "mean" ||
          name == "stddev" || name == "norm" || name == "fact") {
        return AbsVal::scalar(iv_top());
      }
    }
    if (n == 2) {
      if (name == "append") {
        const AbsVal& v = args[0];
        const Interval len = v.may_vector ? iv_add(v.len, iv_exact(1))
                                          : iv_range(1, kAbsInf, true);
        Interval elem = join(v.may_vector ? v.elem : iv_top(), num(1));
        return AbsVal::vector(len, elem);
      }
      if (name == "concat") {
        const AbsVal& a = args[0];
        const AbsVal& b = args[1];
        if (a.may_vector && b.may_vector)
          return AbsVal::vector(iv_add(a.len, b.len), join(a.elem, b.elem));
        return AbsVal::vector(kLenTop, iv_top());
      }
      if (name == "get") {
        const AbsVal& v = args[0];
        return AbsVal::scalar(v.may_vector ? v.elem : iv_top());
      }
      if (name == "dot") return AbsVal::scalar(iv_top());
      if (name == "hypot") {
        return AbsVal::scalar(iv_range(
            0, kAbsInf, false, num(0).maybe_nan || num(1).maybe_nan));
      }
      if (name == "atan2") {
        return AbsVal::scalar(iv_range(
            -kPi, kPi, false, num(0).maybe_nan || num(1).maybe_nan));
      }
      if (name == "pow") {
        const Interval a = num(0);
        const Interval b = num(1);
        if (a.lo >= 0)
          return AbsVal::scalar(
              iv_range(0, kAbsInf, false, a.maybe_nan || b.maybe_nan));
        return AbsVal::scalar(iv_top());
      }
      if (name == "ncr" || name == "npr") return AbsVal::scalar(iv_top());
    }
    if (n == 3) {
      if (name == "slice") {
        const AbsVal& v = args[0];
        return AbsVal::vector(
            iv_range(0, v.may_vector ? v.len.hi : kAbsInf, true),
            v.may_vector ? v.elem : iv_top());
      }
      if (name == "set") {
        const AbsVal& v = args[0];
        if (v.may_vector)
          return AbsVal::vector(v.len, join(v.elem, num(2)));
        return AbsVal::vector(kLenTop, iv_top());
      }
      if (name == "clamp") {
        return AbsVal::scalar(join(join(num(0), num(1)), num(2)));
      }
    }
    if (name == "rand" && n == 0)
      return AbsVal::scalar(iv_range(0, 1, false, false));
    if (name == "str") return AbsVal::string();
    if (name == "min" || name == "max") {
      bool all_scalar = n > 0;
      for (const AbsVal& a : args) all_scalar = all_scalar && a.proven_scalar();
      if (all_scalar) {
        Interval r = num(0);
        for (std::size_t i = 1; i < n; ++i) {
          const Interval c = num(i);
          r = name == "min"
                  ? Interval{std::min(r.lo, c.lo), std::min(r.hi, c.hi),
                             r.integer && c.integer, r.maybe_nan || c.maybe_nan}
                  : Interval{std::max(r.lo, c.lo), std::max(r.hi, c.hi),
                             r.integer && c.integer,
                             r.maybe_nan || c.maybe_nan};
        }
        return AbsVal::scalar(r);
      }
      return AbsVal::scalar(iv_top());
    }
    return AbsVal::top_bound();
  }

  // ---- condition refinement ----

  [[nodiscard]] AbsState refine(const AbsState& st, const Expr& cond,
                                bool want) {
    AbsState r = st;
    refine_into(r, cond, want);
    return r;
  }

  void refine_into(AbsState& st, const Expr& cond, bool want) {
    if (const auto* u = std::get_if<Unary>(&cond.node);
        u != nullptr && u->op == UnOp::Not) {
      refine_into(st, *u->operand, !want);
      return;
    }
    if (const auto* v = std::get_if<VarRef>(&cond.node)) {
      auto it = st.vars.find(v->name);
      if (it == st.vars.end() || !it->second.proven_scalar()) return;
      Interval& n = it->second.num;
      if (!want && n.lo <= 0 && n.hi >= 0) {
        // Falsy scalar: exactly zero, and not NaN (NaN is truthy).
        n = iv_exact(0);
      } else if (want && n.integer && !(n.lo == 0 && n.hi == 0)) {
        if (n.lo == 0) n.lo = 1;
        if (n.hi == 0) n.hi = -1;
      }
      return;
    }
    const auto* b = std::get_if<pits::Binary>(&cond.node);
    if (b == nullptr) return;
    if (b->op == BinOp::And && want) {
      refine_into(st, *b->lhs, true);
      refine_into(st, *b->rhs, true);
      return;
    }
    if (b->op == BinOp::Or && !want) {
      refine_into(st, *b->lhs, false);
      refine_into(st, *b->rhs, false);
      return;
    }
    switch (b->op) {
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge:
      case BinOp::Eq:
      case BinOp::Ne:
        break;
      default:
        return;
    }
    if (const auto* lv = std::get_if<VarRef>(&b->lhs->node)) {
      const AbsVal c = eval_quiet(*b->rhs, st);
      refine_var_cmp(st, lv->name, b->op, c, want);
    }
    if (const auto* rv = std::get_if<VarRef>(&b->rhs->node)) {
      const AbsVal c = eval_quiet(*b->lhs, st);
      refine_var_cmp(st, rv->name, flip(b->op), c, want);
    }
  }

  static BinOp flip(BinOp op) {
    switch (op) {
      case BinOp::Lt: return BinOp::Gt;
      case BinOp::Le: return BinOp::Ge;
      case BinOp::Gt: return BinOp::Lt;
      case BinOp::Ge: return BinOp::Le;
      default: return op;
    }
  }

  /// Clamps `name`'s interval knowing `name <op> c` evaluated to `want`.
  /// NaN care: the walker's compare maps NaN to "equal", so a false `<`
  /// still admits NaN while a false `<=` excludes it.
  void refine_var_cmp(AbsState& st, const std::string& name, BinOp op,
                      const AbsVal& c, bool want) {
    auto it = st.vars.find(name);
    if (it == st.vars.end() || !it->second.proven_scalar() ||
        !c.proven_scalar())
      return;
    Interval n = it->second.num;
    const Interval& k = c.num;
    const bool ints = n.integer && k.integer;
    const auto step_lo = [&](double v) { return ints ? v + 1 : v; };
    const auto step_hi = [&](double v) { return ints ? v - 1 : v; };
    // Normalise to a true-branch op; the negation swaps strictness and
    // therefore the NaN outcome.
    const BinOp eff = want ? op : [&] {
      switch (op) {
        case BinOp::Lt: return BinOp::Ge;
        case BinOp::Le: return BinOp::Gt;
        case BinOp::Gt: return BinOp::Le;
        case BinOp::Ge: return BinOp::Lt;
        case BinOp::Eq: return BinOp::Ne;
        default: return BinOp::Eq;
      }
    }();
    // Under cmp semantics, Lt/Gt/Eq true excludes NaN; Le/Ge/Ne true
    // admit it (NaN orders as equal, NaN != x is true).
    switch (eff) {
      case BinOp::Lt:
        n.hi = std::min(n.hi, step_hi(k.hi));
        n.maybe_nan = false;
        break;
      case BinOp::Le:
        n.hi = std::min(n.hi, k.hi);
        break;
      case BinOp::Gt:
        n.lo = std::max(n.lo, step_lo(k.lo));
        n.maybe_nan = false;
        break;
      case BinOp::Ge:
        n.lo = std::max(n.lo, k.lo);
        break;
      case BinOp::Eq:
        n.lo = std::max(n.lo, k.lo);
        n.hi = std::min(n.hi, k.hi);
        n.maybe_nan = false;
        if (k.integer) n.integer = true;
        break;
      default:
        return;  // Ne: no interval information
    }
    if (n.lo > n.hi) {
      if (!n.maybe_nan) st.reachable = false;
      return;
    }
    it->second.num = n;
  }

  // ---- statements ----

  void exec_block(const Block& block, AbsState& st) {
    for (const StmtPtr& sp : block) exec_stmt(*sp, st);
  }

  void exec_stmt(const Stmt& s, AbsState& st) {
    if (!st.reachable) return;
    std::visit([&](const auto& node) { exec_node(node, s, st); }, s.node);
  }

  void exec_node(const AssignStmt& node, const Stmt& s, AbsState& st) {
    if (node.index != nullptr) {
      const AbsVal cur = peek_var(st, node.target);
      if (proving(st) && !cur.must_assigned && may_be_unassigned(node.target))
        report_unassigned(node.target, s.pos);
      const AbsVal idx = eval(*node.index, st);
      const AbsVal val = eval(*node.value, st);
      if (cur.origin != nullptr) {
        const double need =
            idx.may_scalar && idx.num.lo >= 0 && std::isfinite(idx.num.lo)
                ? std::floor(idx.num.lo) + 1
                : 1;
        demand_vector(st, cur.origin, need, node.index->pos);
      }
      if (idx.origin != nullptr) demand_scalar(st, idx.origin, node.index->pos);
      if (proving(st) && cur.proven_vector() && idx.proven_scalar() &&
          !idx.num.maybe_nan) {
        const Interval& n = idx.num;
        if (n.hi < 0 || (std::isfinite(cur.len.hi) && n.lo >= cur.len.hi)) {
          emit("BAN302", node.index->pos,
               "assigned index in [" + num_text(n.lo) + ", " +
                   num_text(n.hi) +
                   "] is proven out of range for a vector of length " +
                   len_text(cur.len));
        }
      }
      if (cfg_.facts != nullptr && recording(st) && cur.must_assigned &&
          index_safe(cur, idx) && val.proven_scalar()) {
        cfg_.facts->safe_indexed_store.insert(&node);
      }
      // After a successful store the target is a bound vector of the
      // same length with the stored value folded into its elements.
      AbsVal nv;
      nv.may_scalar = nv.may_string = nv.may_unbound = false;
      nv.must_assigned = true;
      nv.len = cur.may_vector ? cur.len : kLenTop;
      nv.elem = cur.may_vector
                    ? join(cur.elem, val.may_scalar ? val.num : iv_top())
                    : iv_top();
      st.vars[node.target] = std::move(nv);
      return;
    }
    AbsVal val = eval(*node.value, st);
    val.may_unbound = false;
    val.must_assigned = true;
    val.constant = nullptr;
    if (reporting(st)) {
      if (auto c = lane_fold(*node.value, st))
        val.constant = &folded_.emplace_back(std::move(*c));
    }
    st.vars[node.target] = std::move(val);
  }

  void exec_node(const ExprStmt& node, const Stmt&, AbsState& st) {
    (void)eval(*node.expr, st);
  }

  void exec_node(const ReturnStmt&, const Stmt&, AbsState& st) {
    exit_acc_ = join_state(exit_acc_, st);
    st.reachable = false;
  }

  void exec_node(const FormulaDef& node, const Stmt&, AbsState& st) {
    const std::size_t di = def_index_.at(&node);
    st.def_may |= 1ULL << std::min<std::size_t>(di, 63);
    if (defs_.size() <= 63) st.def_must |= 1ULL << di;
    if (reporting(st)) check_formula_body(node);
  }

  /// Checks a reached formula's body once, with every parameter
  /// unknown, for divisors and indices that fold to a failure on every
  /// call. The body sees only its parameters and the constants.
  void check_formula_body(const FormulaDef& def) {
    AbsState fst;
    fst.def_may = ~0ULL;  // any formula may be registered by a call
    for (const std::string& p : def.params) {
      AbsVal a = AbsVal::top_bound();
      a.must_assigned = true;
      fst.vars.try_emplace(p, std::move(a));
    }
    formula_scope_ = true;
    (void)eval(*def.body, fst);
    formula_scope_ = false;
  }

  void exec_node(const IfStmt& node, const Stmt&, AbsState& st) {
    AbsState out;
    out.reachable = false;
    AbsState cur = st;
    for (std::size_t i = 0; i < node.arms.size(); ++i) {
      const IfStmt::Arm& arm = node.arms[i];
      const AbsVal c = eval(*arm.cond, cur);
      const Tri t = cur.reachable ? truth_of(c) : Tri::Maybe;
      if (reporting(cur)) {
        if (t == Tri::False) {
          emit("BAN303", arm.cond->pos,
               "condition is provably always false — this branch never runs");
        } else if (t == Tri::True &&
                   (i + 1 < node.arms.size() || !node.else_body.empty())) {
          emit("BAN303", arm.cond->pos,
               "condition is provably always true — the later branches "
               "never run");
        }
      }
      AbsState arm_st = refine(cur, *arm.cond, true);
      if (t == Tri::False) arm_st.reachable = false;
      exec_block(arm.body, arm_st);
      out = join_state(out, arm_st);
      AbsState next = refine(cur, *arm.cond, false);
      if (t == Tri::True) next.reachable = false;
      cur = std::move(next);
    }
    exec_block(node.else_body, cur);
    st = join_state(out, cur);
  }

  /// Iterates a loop body to a fixpoint from `head` (plain join for two
  /// rounds, then widening), with recording suppressed. `enter` prepares
  /// each iteration's entry state in place.
  template <typename EnterFn>
  AbsState stabilize(const Block& body, AbsState head, EnterFn&& enter) {
    const bool saved = record_;
    record_ = false;
    for (int iter = 0;; ++iter) {
      AbsState in = head;
      enter(in);
      AbsState out = in;
      exec_block(body, out);
      AbsState next = join_state(head, out);
      if (state_eq(next, head)) break;
      head = iter >= 2 ? widen_state(head, next) : std::move(next);
      if (iter >= 40) {
        // Safety net; widening should converge far earlier.
        for (auto& [k, v] : head.vars) v = AbsVal::top();
        break;
      }
    }
    record_ = saved;
    return head;
  }

  void exec_node(const WhileStmt& node, const Stmt& s, AbsState& st) {
    AbsState head = stabilize(node.body, st, [&](AbsState& in) {
      const Tri t = truth_of(eval_quiet(*node.cond, in));
      AbsState refined = refine(in, *node.cond, true);
      if (t == Tri::False) refined.reachable = false;
      in = std::move(refined);
    });
    // Recording pass from the stable head, whose lane holds only the
    // constants no iteration reassigns.
    const AbsVal c = eval(*node.cond, head);
    const Tri t = head.reachable ? truth_of(c) : Tri::Maybe;
    if (reporting(head)) {
      const auto folded = lane_fold(*node.cond, head);
      if (t == Tri::False) {
        emit("BAN303", node.cond->pos,
             "`while` condition is provably always false — the loop body "
             "never runs");
      } else if (folded && folded->truthy() && !block_returns(node.body)) {
        emit("BAN108", s.pos,
             "loop condition is always true and nothing in the body changes "
             "it",
             "assign one of the condition's variables inside the loop, or "
             "add a `return`");
      } else if (t == Tri::True && !block_returns(node.body)) {
        emit("BAN304", node.cond->pos,
             "`while` condition is provably always true and the body cannot "
             "return — the loop only ends at the step limit");
      }
    }
    AbsState in = refine(head, *node.cond, true);
    if (t == Tri::False) in.reachable = false;
    AbsState body_out = in;
    exec_block(node.body, body_out);
    st = refine(head, *node.cond, false);
    if (t == Tri::True) st.reachable = false;
  }

  void exec_node(const RepeatStmt& node, const Stmt&, AbsState& st) {
    const AbsVal cv = eval(*node.count, st);
    if (cv.origin != nullptr) demand_scalar(st, cv.origin, node.count->pos);
    if (!cv.may_scalar) {  // as_scalar always fails: proven runtime error
      st.reachable = false;
      return;
    }
    const Interval n = cv.num;
    const bool no_integer = !n.integer && std::floor(n.lo) == std::floor(n.hi) &&
                            n.lo > std::floor(n.lo);
    if (cv.proven_scalar() && !n.maybe_nan && (n.hi < 0 || no_integer)) {
      st.reachable = false;  // count validation is proven to fail
      return;
    }
    const bool body_possible = n.hi >= 1 || n.maybe_nan || !cv.proven_scalar();
    const bool at_least_one = cv.proven_scalar() && !n.maybe_nan && n.lo >= 1;
    AbsState head = stabilize(node.body, st, [&](AbsState& in) {
      if (!body_possible) in.reachable = false;
    });
    AbsState in = head;
    if (!body_possible) in.reachable = false;
    AbsState out = in;
    exec_block(node.body, out);  // recording pass
    if (at_least_one) keep_head_lane(out, head);
    st = at_least_one ? std::move(out) : std::move(head);
  }

  void exec_node(const ForStmt& node, const Stmt&, AbsState& st) {
    const AbsVal fv = eval(*node.from, st);
    const AbsVal tv = eval(*node.to, st);
    const AbsVal sv = node.step != nullptr
                          ? eval(*node.step, st)
                          : AbsVal::scalar(iv_exact(1));
    if (fv.origin != nullptr) demand_scalar(st, fv.origin, node.from->pos);
    if (tv.origin != nullptr) demand_scalar(st, tv.origin, node.to->pos);
    if (node.step != nullptr && sv.origin != nullptr)
      demand_scalar(st, sv.origin, node.step->pos);
    if (!fv.may_scalar || !tv.may_scalar || !sv.may_scalar) {
      st.reachable = false;  // ToScalar is proven to fail
      return;
    }
    const Interval f = fv.num;
    const Interval t = tv.num;
    const Interval sp = sv.num;
    if (sp.is_exact() && sp.lo == 0) {
      st.reachable = false;  // "for step must be nonzero" always fires
      return;
    }
    const bool pos_step = sp.lo > 0 && !sp.maybe_nan;
    const bool neg_step = sp.hi < 0 && !sp.maybe_nan;
    // The walker's continuation test carries a 1e-12 epsilon; proving
    // "never iterates" uses a strictly larger margin to stay sound.
    const bool body_possible = !(pos_step && f.lo > t.hi + 1e-9) &&
                               !(neg_step && f.hi < t.lo - 1e-9);
    const bool at_least_one =
        !f.maybe_nan && !t.maybe_nan &&
        ((pos_step && f.hi <= t.lo) || (neg_step && f.lo >= t.hi));
    AbsVal lvv = AbsVal::scalar(loop_var_interval(f, t, sp));
    lvv.must_assigned = true;
    AbsState head = stabilize(node.body, st, [&](AbsState& in) {
      in.vars[node.var] = lvv;
      if (!body_possible) in.reachable = false;
    });
    AbsState in = head;
    in.vars[node.var] = lvv;
    if (!body_possible) in.reachable = false;
    AbsState out = in;
    exec_block(node.body, out);  // recording pass
    if (at_least_one) keep_head_lane(out, head);
    st = at_least_one ? std::move(out) : std::move(head);
  }

  /// Interval of the values the loop variable takes inside the body.
  /// NaN bounds never reach the body (the continuation test fails), so
  /// the result is NaN-free.
  static Interval loop_var_interval(const Interval& f, const Interval& t,
                                    const Interval& sp) {
    const bool ints = f.integer && sp.integer;
    const double extra = ints && t.integer ? 0.0 : 1.0;
    double lo;
    double hi;
    if (sp.lo > 0 && !sp.maybe_nan) {
      lo = f.lo;
      hi = t.hi + extra;
    } else if (sp.hi < 0 && !sp.maybe_nan) {
      lo = t.lo - extra;
      hi = f.hi;
    } else {
      lo = std::min(f.lo, t.lo - extra);
      hi = std::max(f.hi, t.hi + extra);
    }
    return iv_range(lo, hi, ints);
  }

  [[nodiscard]] static bool block_returns(const Block& block) {
    bool found = false;
    for_each_stmt(block, [&](const Stmt& s) {
      found = found || std::holds_alternative<ReturnStmt>(s.node);
    });
    return found;
  }

  // ---- members ----

  Config cfg_;
  bool record_ = true;
  int depth_ = 0;  ///< formula inlining depth; facts/diags only at 0
  AbsState exit_acc_;
  std::vector<const FormulaDef*> defs_;
  std::unordered_map<const FormulaDef*, std::size_t> def_index_;
  std::unordered_map<std::string, std::vector<std::size_t>> formula_index_;
  std::unordered_map<const FormulaDef*, AbsVal> summaries_;
  std::unordered_set<const FormulaDef*> in_flight_;
  /// True while check_formula_body evaluates a body at depth 0.
  bool formula_scope_ = false;
  /// Backing store of the constant lane (AbsVal::constant); a deque so
  /// the addresses stay put.
  std::deque<pits::Value> folded_;
  // Census (diagnostics mode): names read anywhere, first assignment of
  // each name, for-loop variables, and reads of task variables inside
  // formula bodies.
  std::set<std::string> reads_;
  std::map<std::string, SourcePos> first_assign_;
  std::set<std::string> loop_vars_;
  std::vector<const Expr*> formula_reads_;
};

}  // namespace

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

pits::bc::AnalysisFacts compute_facts(const pits::Block& body) {
  pits::bc::AnalysisFacts facts;
  AbsInterp::Config cfg;
  cfg.facts = &facts;
  AbsInterp engine(cfg);
  engine.run(body);
  engine.mark_single_ticks(body, facts);
  return facts;
}

void precompile_optimized(const pits::Program& program) {
  program.precompile(compute_facts(program.body()));
}

ShapeSummary run_routine_rules(const pits::Block& body,
                               const RoutineContext& context,
                               std::vector<Diagnostic>& sink) {
  ShapeSummary summary;
  AbsInterp::Config cfg;
  cfg.ctx = &context;
  cfg.sink = &sink;
  cfg.summary = &summary;
  AbsInterp(cfg).run(body);
  return summary;
}

void run_shape_rules(const graph::FlattenResult& flat,
                     const std::vector<const ShapeSummary*>& summaries,
                     std::vector<Diagnostic>& sink) {
  auto emit = [&](const std::string& task, SourcePos pos, std::string msg,
                  std::string hint = {}) {
    const DiagnosticRule* rule = find_rule("BAN306");
    Diagnostic d;
    d.code = "BAN306";
    d.severity = rule != nullptr ? rule->severity : Severity::Warning;
    d.subject_kind = "task";
    d.subject = task;
    d.message = std::move(msg);
    d.hint = std::move(hint);
    d.pos = pos;
    sink.push_back(std::move(d));
  };
  for (const graph::FlatStore& store : flat.stores) {
    if (store.writers.empty() || store.readers.empty()) continue;
    AbsVal produced;
    bool have = !store.writers.empty();
    bool first = true;
    for (graph::TaskId w : store.writers) {
      const ShapeSummary* summary = summaries[w];
      if (summary == nullptr) {
        have = false;
        break;
      }
      auto out = summary->outputs.find(store.var);
      if (out == summary->outputs.end() || out->second.may_unbound) {
        have = false;
        break;
      }
      produced = first ? out->second : join(produced, out->second);
      first = false;
    }
    if (!have) continue;
    for (graph::TaskId r : store.readers) {
      const ShapeSummary* summary = summaries[r];
      if (summary == nullptr) continue;
      auto dit = summary->demands.find(store.var);
      if (dit == summary->demands.end()) continue;
      const ShapeDemand& d = dit->second;
      const graph::Task& reader = flat.graph.task(r);
      const std::string& task = reader.name;
      const SourcePos pos =
          graph::routine_to_file(reader, d.pos);
      if (d.needs_vector && (produced.proven_scalar() ||
                             produced.proven_string())) {
        emit(task, pos,
             "`" + store.var + "` is indexed here, but every producer of "
             "store `" + store.name + "` sends a " +
                 (produced.proven_scalar() ? "number" : "string"),
             "make the producer send a vector, or stop indexing the input");
        continue;
      }
      if (d.needs_scalar && produced.proven_vector()) {
        emit(task, pos,
             "`" + store.var + "` is used as a count or bound here, but "
             "every producer of store `" + store.name + "` sends a vector");
        continue;
      }
      if (produced.proven_vector() && d.needs_vector &&
          produced.len.hi < d.min_len) {
        emit(task, pos,
             "`" + store.var + "` needs at least " +
                 std::to_string(static_cast<long long>(d.min_len)) +
                 " element(s) here, but producers of store `" + store.name +
                 "` send at most " +
                 std::to_string(static_cast<long long>(produced.len.hi)));
        continue;
      }
      if (produced.proven_vector() && d.elem_len >= 0 &&
          (produced.len.hi < d.elem_len || produced.len.lo > d.elem_len)) {
        emit(task, pos,
             "elementwise use of `" + store.var + "` requires length " +
                 std::to_string(static_cast<long long>(d.elem_len)) +
                 ", but producers of store `" + store.name +
                 "` send a different length");
      }
    }
  }
}

}  // namespace banger::analyze
