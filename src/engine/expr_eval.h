// Staged/interpreted evaluation of plan expressions over Records.
//
// Because expressions are static (part of the query), every dispatch here
// happens at generation time: a predicate tree becomes a handful of scalar
// operations in the residual code. Dictionary-aware specializations (paper
// §4.3) also happen here — equality against a constant on a dictionary
// column folds to one integer compare, prefix tests to a code-range check,
// with constants resolved against the dictionary while the query compiles.
//
// Expressions are evaluated in bound form: BindExpr resolves every column
// reference to a slot of the input schema once, when the operator that
// owns the expression is built, and a reference then reads
// `rec.value(slot)`. plan::Expr trees are shared by concurrent requests,
// so the slots live in the operator tree, never on the Expr.
#ifndef LB2_ENGINE_EXPR_EVAL_H_
#define LB2_ENGINE_EXPR_EVAL_H_

#include <vector>

#include "engine/record.h"
#include "plan/expr.h"

namespace lb2::engine {

/// Scalar-subquery results, stored in a backend array (file-scope in
/// generated code) and loaded at each use site, so references work from
/// any generated function — including parallel workers.
template <typename B>
struct ScalarEnv {
  typename B::template Arr<double> arr{};
};

/// A plan expression with its column references resolved to input slots.
struct BoundExpr {
  const plan::Expr* e = nullptr;
  int slot = -1;                // kColRef: the field's slot in the input
  std::vector<BoundExpr> args;  // parallel to e->children
};

/// Binds `e` against the schema of the records it will be evaluated on.
inline BoundExpr BindExpr(const plan::ExprRef& e,
                          const schema::Schema& input) {
  BoundExpr out;
  out.e = e.get();
  if (e->op == plan::ExprOp::kColRef) out.slot = SlotOf(input, e->str);
  for (const auto& c : e->children) out.args.push_back(BindExpr(c, input));
  return out;
}

inline std::vector<BoundExpr> BindExprs(const std::vector<plan::ExprRef>& es,
                                        const schema::Schema& input) {
  std::vector<BoundExpr> out;
  for (const auto& e : es) out.push_back(BindExpr(e, input));
  return out;
}

template <typename B>
Value<B> EvalExpr(B& b, const BoundExpr& bx, const Record<B>& rec,
                  const ScalarEnv<B>& scalars);

namespace internal {

using plan::ExprOp;

template <typename B>
Value<B> EvalArith(B& b, const BoundExpr& bx, const Record<B>& rec,
                   const ScalarEnv<B>& scalars) {
  const plan::Expr* e = bx.e;
  Value<B> x = EvalExpr(b, bx.args[0], rec, scalars);
  Value<B> y = EvalExpr(b, bx.args[1], rec, scalars);
  if (e->op == ExprOp::kDiv) {
    return Value<B>::F64(AsF64(b, x) / AsF64(b, y));
  }
  if (x.is_i64() && y.is_i64()) {
    switch (e->op) {
      case ExprOp::kAdd: return Value<B>::I64(x.i64() + y.i64());
      case ExprOp::kSub: return Value<B>::I64(x.i64() - y.i64());
      default: return Value<B>::I64(x.i64() * y.i64());
    }
  }
  auto xf = AsF64(b, x);
  auto yf = AsF64(b, y);
  switch (e->op) {
    case ExprOp::kAdd: return Value<B>::F64(xf + yf);
    case ExprOp::kSub: return Value<B>::F64(xf - yf);
    default: return Value<B>::F64(xf * yf);
  }
}

/// Comparison with the dictionary fast path: `dict_col == 'CONST'` becomes
/// an integer compare against a code resolved at generation time. A
/// constant absent from the dictionary makes equality statically false.
template <typename B>
Value<B> EvalCompare(B& b, const BoundExpr& bx, const Record<B>& rec,
                     const ScalarEnv<B>& scalars) {
  const plan::Expr* e = bx.e;
  const plan::ExprRef& rhs = e->children[1];
  if ((e->op == ExprOp::kEq || e->op == ExprOp::kNe) &&
      rhs->op == ExprOp::kStrConst) {
    Value<B> x = EvalExpr(b, bx.args[0], rec, scalars);
    // The fast path is a *generation-time* specialization on the literal's
    // value, so a parameterized constant (value bound at Run) must take the
    // generic compare. The canonicalizer never parameterizes these leaves
    // under use_dict (guard predicate); the check here is defense in depth.
    if (e->children[1]->param_slot < 0 && x.is_str() && x.str().is_dict) {
      int32_t code = x.str().dict->CodeOf(rhs->str);
      typename B::Bool eq =
          code < 0 ? typename B::Bool(false)
                   : x.str().code == typename B::I64(code);
      return Value<B>::Bool(e->op == ExprOp::kEq ? eq : !eq);
    }
    // Fall through to the generic path, reusing x.
    typename B::Str lit =
        rhs->param_slot >= 0
            ? b.ParamStr(static_cast<int>(rhs->param_slot), rhs->str)
            : b.ConstStr(rhs->str);
    typename B::Bool eq = b.StrEqV(AsRawStr(b, x), lit);
    return Value<B>::Bool(e->op == ExprOp::kEq ? eq : !eq);
  }
  Value<B> x = EvalExpr(b, bx.args[0], rec, scalars);
  Value<B> y = EvalExpr(b, bx.args[1], rec, scalars);
  if (e->op == ExprOp::kEq) return Value<B>::Bool(ValEq(b, x, y));
  if (e->op == ExprOp::kNe) return Value<B>::Bool(!ValEq(b, x, y));
  // Ordered comparisons: numeric fast path avoids the 3-way helper.
  if (!x.is_str()) {
    if (x.is_i64() && y.is_i64()) {
      switch (e->op) {
        case ExprOp::kLt: return Value<B>::Bool(x.i64() < y.i64());
        case ExprOp::kLe: return Value<B>::Bool(x.i64() <= y.i64());
        case ExprOp::kGt: return Value<B>::Bool(x.i64() > y.i64());
        default: return Value<B>::Bool(x.i64() >= y.i64());
      }
    }
    auto xf = AsF64(b, x);
    auto yf = AsF64(b, y);
    switch (e->op) {
      case ExprOp::kLt: return Value<B>::Bool(xf < yf);
      case ExprOp::kLe: return Value<B>::Bool(xf <= yf);
      case ExprOp::kGt: return Value<B>::Bool(xf > yf);
      default: return Value<B>::Bool(xf >= yf);
    }
  }
  auto c = b.I32ToI64(ValCmp3(b, x, y));
  switch (e->op) {
    case ExprOp::kLt: return Value<B>::Bool(c < typename B::I64(0));
    case ExprOp::kLe: return Value<B>::Bool(c <= typename B::I64(0));
    case ExprOp::kGt: return Value<B>::Bool(c > typename B::I64(0));
    default: return Value<B>::Bool(c >= typename B::I64(0));
  }
}

/// String predicates with dictionary specializations.
template <typename B>
Value<B> EvalStrPred(B& b, const BoundExpr& bx, const Record<B>& rec,
                     const ScalarEnv<B>& scalars) {
  const plan::Expr* e = bx.e;
  Value<B> x = EvalExpr(b, bx.args[0], rec, scalars);
  LB2_CHECK(x.is_str());
  const SVal<B>& sv = x.str();
  if (sv.is_dict && e->op == ExprOp::kStartsWith) {
    // Sorted dictionary: prefix predicates become a code-range test
    // computed while compiling the query.
    auto [lo, hi] = sv.dict->PrefixRange(e->str);
    if (lo >= hi) return Value<B>::Bool(typename B::Bool(false));
    return Value<B>::Bool(sv.code >= typename B::I64(lo) &&
                          sv.code < typename B::I64(hi));
  }
  typename B::Str s = AsRawStr(b, x);
  switch (e->op) {
    case ExprOp::kStartsWith:
      return Value<B>::Bool(b.StrStartsWithConst(s, e->str));
    case ExprOp::kEndsWith:
      return Value<B>::Bool(b.StrEndsWithConst(s, e->str));
    case ExprOp::kContains:
      return Value<B>::Bool(b.StrContainsConst(s, e->str));
    case ExprOp::kLike:
      return Value<B>::Bool(b.StrLikeConst(s, e->str));
    default:
      LB2_CHECK(false);
      return Value<B>::Bool(typename B::Bool(false));
  }
}

template <typename B>
Value<B> EvalInStr(B& b, const BoundExpr& bx, const Record<B>& rec,
                   const ScalarEnv<B>& scalars) {
  const plan::Expr* e = bx.e;
  Value<B> x = EvalExpr(b, bx.args[0], rec, scalars);
  LB2_CHECK(x.is_str());
  const SVal<B>& sv = x.str();
  // The code-compare path specializes on the literal values at generation
  // time, so it only applies to baked lists (the canonicalizer's dict guard
  // keeps lists baked under use_dict; the slot check is defense in depth).
  if (sv.is_dict && e->param_slot < 0) {
    // IN-list over a dictionary column: OR of integer compares; constants
    // missing from the dictionary drop out entirely.
    typename B::Bool any(false);
    for (const auto& lit : e->str_list) {
      int32_t code = sv.dict->CodeOf(lit);
      if (code < 0) continue;
      any = any || sv.code == typename B::I64(code);
    }
    return Value<B>::Bool(any);
  }
  typename B::Str s = AsRawStr(b, x);
  typename B::Bool any(false);
  for (size_t j = 0; j < e->str_list.size(); ++j) {
    // Hoisted lists hold consecutive slots starting at the node's
    // param_slot, one per element (see service/fingerprint.cc).
    if (e->param_slot >= 0) {
      any = any ||
            b.StrEqV(s, b.ParamStr(static_cast<int>(e->param_slot) +
                                       static_cast<int>(j),
                                   e->str_list[j]));
    } else {
      any = any || b.StrEqConst(s, e->str_list[j]);
    }
  }
  return Value<B>::Bool(any);
}

}  // namespace internal

template <typename B>
Value<B> EvalExpr(B& b, const BoundExpr& bx, const Record<B>& rec,
                  const ScalarEnv<B>& scalars) {
  using plan::ExprOp;
  const plan::Expr* e = bx.e;
  switch (e->op) {
    case ExprOp::kColRef:
      return rec.value(bx.slot);
    // Constant leaves: a canonicalized plan (Expr::param_slot >= 0) reads
    // the value from the backend's parameter slot — a ctx load in generated
    // code, a bound-vector load in the interpreter — with the original
    // literal as the unbound fallback. Unmarked leaves stay inlined.
    case ExprOp::kIntConst:
    case ExprOp::kDateConst:
      if (e->param_slot >= 0) {
        return Value<B>::I64(
            b.ParamI64(static_cast<int>(e->param_slot), e->i64));
      }
      return Value<B>::I64(typename B::I64(e->i64));
    case ExprOp::kBoolConst:
      if (e->param_slot >= 0) {
        return Value<B>::Bool(
            b.ParamBool(static_cast<int>(e->param_slot), e->i64 != 0));
      }
      return Value<B>::Bool(typename B::Bool(e->i64 != 0));
    case ExprOp::kDoubleConst:
      if (e->param_slot >= 0) {
        return Value<B>::F64(
            b.ParamF64(static_cast<int>(e->param_slot), e->f64));
      }
      return Value<B>::F64(typename B::F64(e->f64));
    case ExprOp::kStrConst:
      if (e->param_slot >= 0) {
        return Value<B>::Str(
            b.ParamStr(static_cast<int>(e->param_slot), e->str));
      }
      return Value<B>::Str(b.ConstStr(e->str));
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
    case ExprOp::kDiv:
      return internal::EvalArith(b, bx, rec, scalars);
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
      return internal::EvalCompare(b, bx, rec, scalars);
    case ExprOp::kAnd:
      return Value<B>::Bool(
          AsBool(b, EvalExpr(b, bx.args[0], rec, scalars)) &&
          AsBool(b, EvalExpr(b, bx.args[1], rec, scalars)));
    case ExprOp::kOr:
      return Value<B>::Bool(
          AsBool(b, EvalExpr(b, bx.args[0], rec, scalars)) ||
          AsBool(b, EvalExpr(b, bx.args[1], rec, scalars)));
    case ExprOp::kNot:
      return Value<B>::Bool(
          !AsBool(b, EvalExpr(b, bx.args[0], rec, scalars)));
    case ExprOp::kLike:
    case ExprOp::kStartsWith:
    case ExprOp::kEndsWith:
    case ExprOp::kContains:
      return internal::EvalStrPred(b, bx, rec, scalars);
    case ExprOp::kNotLike:
      LB2_CHECK_MSG(false, "NotLike is lowered to Not(Like) at build time");
      return Value<B>::Bool(typename B::Bool(false));
    case ExprOp::kInStr:
      return internal::EvalInStr(b, bx, rec, scalars);
    case ExprOp::kInInt: {
      Value<B> x = EvalExpr(b, bx.args[0], rec, scalars);
      typename B::I64 xi = AsI64(b, x);
      typename B::Bool any(false);
      for (size_t j = 0; j < e->int_list.size(); ++j) {
        // Hoisted lists: consecutive slots from the node's param_slot.
        typename B::I64 v =
            e->param_slot >= 0
                ? b.ParamI64(static_cast<int>(e->param_slot) +
                                 static_cast<int>(j),
                             e->int_list[j])
                : typename B::I64(e->int_list[j]);
        any = any || xi == v;
      }
      return Value<B>::Bool(any);
    }
    case ExprOp::kCase: {
      auto c = AsBool(b, EvalExpr(b, bx.args[0], rec, scalars));
      Value<B> t = EvalExpr(b, bx.args[1], rec, scalars);
      Value<B> f = EvalExpr(b, bx.args[2], rec, scalars);
      if (t.is_i64() && f.is_i64()) {
        return Value<B>::I64(b.SelI64(c, t.i64(), f.i64()));
      }
      return Value<B>::F64(b.SelF64(c, AsF64(b, t), AsF64(b, f)));
    }
    case ExprOp::kYear: {
      auto d = AsI64(b, EvalExpr(b, bx.args[0], rec, scalars));
      return Value<B>::I64(d / typename B::I64(10000));
    }
    case ExprOp::kSubstring: {
      Value<B> x = EvalExpr(b, bx.args[0], rec, scalars);
      return Value<B>::Str(b.SubstrConst(AsRawStr(b, x), e->i64, e->i64b));
    }
    case ExprOp::kScalarRef:
      return Value<B>::F64(
          b.ArrGet(scalars.arr, typename B::I64(e->i64)));
  }
  LB2_CHECK(false);
  return Value<B>::I64(typename B::I64(0));
}

}  // namespace lb2::engine

#endif  // LB2_ENGINE_EXPR_EVAL_H_
