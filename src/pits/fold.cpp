#include "pits/fold.hpp"

#include <cmath>
#include <variant>

namespace banger::pits {

namespace {

/// Scalar arithmetic foldable only when the tree-walker could not have
/// raised: division/mod by zero and NaN-from-real pow stay runtime.
std::optional<double> fold_scalar_op(BinOp op, double a, double b) {
  switch (op) {
    case BinOp::Add: return a + b;
    case BinOp::Sub: return a - b;
    case BinOp::Mul: return a * b;
    case BinOp::Div:
      if (b == 0) return std::nullopt;
      return a / b;
    case BinOp::Mod:
      if (b == 0) return std::nullopt;
      return std::fmod(a, b);
    case BinOp::Pow: {
      const double r = std::pow(a, b);
      if (std::isnan(r) && !std::isnan(a) && !std::isnan(b)) {
        return std::nullopt;
      }
      return r;
    }
    default: return std::nullopt;
  }
}

std::optional<Value> fold_arith(BinOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_scalar() && rhs.is_scalar()) {
    auto r = fold_scalar_op(op, lhs.as_scalar(), rhs.as_scalar());
    if (!r) return std::nullopt;
    return Value(*r);
  }
  if (lhs.is_vector() && rhs.is_vector()) {
    const Vector& a = lhs.as_vector();
    const Vector& b = rhs.as_vector();
    if (a.size() != b.size()) return std::nullopt;
    Vector out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      auto r = fold_scalar_op(op, a[i], b[i]);
      if (!r) return std::nullopt;
      out[i] = *r;
    }
    return Value(std::move(out));
  }
  if (lhs.is_scalar() && rhs.is_vector()) {
    const double a = lhs.as_scalar();
    Vector out = rhs.as_vector();
    for (double& x : out) {
      auto r = fold_scalar_op(op, a, x);
      if (!r) return std::nullopt;
      x = *r;
    }
    return Value(std::move(out));
  }
  if (lhs.is_vector() && rhs.is_scalar()) {
    const double b = rhs.as_scalar();
    Vector out = lhs.as_vector();
    for (double& x : out) {
      auto r = fold_scalar_op(op, x, b);
      if (!r) return std::nullopt;
      x = *r;
    }
    return Value(std::move(out));
  }
  return std::nullopt;
}

std::optional<Value> fold_binary(const Binary& node, const FoldLookup& lookup) {
  auto lhs = fold(*node.lhs, lookup);
  if (!lhs) return std::nullopt;
  // Short-circuit folds drop the unevaluated side entirely, exactly
  // like the tree-walker never evaluates it.
  if (node.op == BinOp::And && !lhs->truthy()) return Value(0.0);
  if (node.op == BinOp::Or && lhs->truthy()) return Value(1.0);
  auto rhs = fold(*node.rhs, lookup);
  if (!rhs) return std::nullopt;
  switch (node.op) {
    case BinOp::And:
    case BinOp::Or:
      return Value(rhs->truthy() ? 1.0 : 0.0);
    case BinOp::Eq: return Value(lhs->equals(*rhs) ? 1.0 : 0.0);
    case BinOp::Ne: return Value(lhs->equals(*rhs) ? 0.0 : 1.0);
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge: {
      double cmp = 0;
      if (lhs->is_scalar() && rhs->is_scalar()) {
        const double a = lhs->as_scalar();
        const double b = rhs->as_scalar();
        cmp = a < b ? -1 : (a > b ? 1 : 0);
      } else if (lhs->is_string() && rhs->is_string()) {
        const int c = lhs->as_string().compare(rhs->as_string());
        cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      } else {
        return std::nullopt;  // mixed-type ordering errors at run time
      }
      switch (node.op) {
        case BinOp::Lt: return Value(cmp < 0 ? 1.0 : 0.0);
        case BinOp::Le: return Value(cmp <= 0 ? 1.0 : 0.0);
        case BinOp::Gt: return Value(cmp > 0 ? 1.0 : 0.0);
        default: return Value(cmp >= 0 ? 1.0 : 0.0);
      }
    }
    default: break;
  }
  if (lhs->is_string() || rhs->is_string()) {
    if (node.op == BinOp::Add && lhs->is_string() && rhs->is_string()) {
      return Value(lhs->as_string() + rhs->as_string());
    }
    return std::nullopt;  // string arithmetic errors at run time
  }
  return fold_arith(node.op, *lhs, *rhs);
}

}  // namespace

std::optional<Value> fold(const Expr& e, const FoldLookup& lookup) {
  return std::visit(
      [&](const auto& node) -> std::optional<Value> {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, NumberLit>) {
          return Value(node.value);
        } else if constexpr (std::is_same_v<T, StringLit>) {
          return Value(node.value);
        } else if constexpr (std::is_same_v<T, VarRef>) {
          return lookup(node.name);
        } else if constexpr (std::is_same_v<T, VectorLit>) {
          Vector out;
          out.reserve(node.elements.size());
          for (const auto& el : node.elements) {
            auto v = fold(*el, lookup);
            if (!v || !v->is_scalar()) return std::nullopt;
            out.push_back(v->as_scalar());
          }
          return Value(std::move(out));
        } else if constexpr (std::is_same_v<T, Unary>) {
          auto v = fold(*node.operand, lookup);
          if (!v) return std::nullopt;
          if (node.op == UnOp::Not) return Value(v->truthy() ? 0.0 : 1.0);
          if (v->is_scalar()) return Value(-v->as_scalar());
          if (v->is_vector()) {
            Vector out = v->as_vector();
            for (double& x : out) x = -x;
            return Value(std::move(out));
          }
          return std::nullopt;  // negating a string errors at run time
        } else if constexpr (std::is_same_v<T, Binary>) {
          return fold_binary(node, lookup);
        } else if constexpr (std::is_same_v<T, Index>) {
          auto base = fold(*node.base, lookup);
          auto idx = fold(*node.index, lookup);
          if (!base || !idx || !base->is_vector() || !idx->is_scalar()) {
            return std::nullopt;
          }
          const double raw = idx->as_scalar();
          const Vector& v = base->as_vector();
          if (std::floor(raw) != raw || raw < 0 ||
              raw >= static_cast<double>(v.size())) {
            return std::nullopt;
          }
          return Value(v[static_cast<std::size_t>(raw)]);
        } else {
          return std::nullopt;  // calls never fold (rand, print, formulas)
        }
      },
      e.node);
}

}  // namespace banger::pits
