#include "service/fingerprint.h"

#include <cstring>

#include "util/str.h"

namespace lb2::service {

namespace {

/// 64-bit FNV-1a, fed field-by-field. Every variable-length field is
/// prefixed with its length so concatenations can't alias ("ab","c" vs
/// "a","bc"), and every optional field is preceded by a presence tag.
class Hasher {
 public:
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }

  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void I32(int32_t v) { I64(v); }
  void Bool(bool v) { U64(v ? 1 : 0); }
  void F64(double v) {
    // Bit pattern, not value: -0.0 vs 0.0 generate different constants.
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void StrList(const std::vector<std::string>& v) {
    U64(v.size());
    for (const auto& s : v) Str(s);
  }
  void I64List(const std::vector<int64_t>& v) {
    U64(v.size());
    for (int64_t x : v) I64(x);
  }

  uint64_t hash() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

void HashExpr(Hasher* h, const plan::ExprRef& e) {
  if (e == nullptr) {
    h->U64(0);
    return;
  }
  // A parameterized leaf hashes by slot, not by value: the literal is bound
  // into the execution context at Run(), so it is no longer part of the
  // compiled artifact's identity. The distinct presence tag keeps a
  // parameterized leaf from ever aliasing a baked one.
  if (e->param_slot >= 0) {
    h->U64(2);
    h->I32(static_cast<int32_t>(e->op));
    h->I64(e->param_slot);
    // IN-list nodes occupy one slot per element starting at param_slot, so
    // the element count is part of the shape (an IN of 2 and an IN of 3
    // generate different numbers of probes). Values still hash away.
    h->U64(e->str_list.size());
    h->U64(e->int_list.size());
    h->U64(e->children.size());
    for (const auto& c : e->children) HashExpr(h, c);
    return;
  }
  h->U64(1);
  h->I32(static_cast<int32_t>(e->op));
  h->Str(e->str);
  h->I64(e->i64);
  h->I64(e->i64b);
  h->F64(e->f64);
  h->StrList(e->str_list);
  h->I64List(e->int_list);
  h->U64(e->children.size());
  for (const auto& c : e->children) HashExpr(h, c);
}

void HashPlan(Hasher* h, const plan::PlanRef& p) {
  if (p == nullptr) {
    h->U64(0);
    return;
  }
  h->U64(1);
  h->I32(static_cast<int32_t>(p->type));
  h->Str(p->table);
  h->Str(p->date_index_col);
  h->I64(p->date_lo);
  h->I64(p->date_hi);
  HashExpr(h, p->predicate);
  h->U64(p->exprs.size());
  for (const auto& e : p->exprs) HashExpr(h, e);
  h->StrList(p->names);
  h->StrList(p->left_keys);
  h->StrList(p->right_keys);
  h->I32(static_cast<int32_t>(p->join_impl));
  h->Str(p->count_name);
  h->U64(p->group_exprs.size());
  for (const auto& e : p->group_exprs) HashExpr(h, e);
  h->StrList(p->group_names);
  h->U64(p->aggs.size());
  for (const auto& a : p->aggs) {
    h->I32(static_cast<int32_t>(a.kind));
    HashExpr(h, a.expr);
    h->Str(a.out_name);
  }
  h->I64(p->capacity_hint);
  h->Str(p->capacity_hint_table);
  h->U64(p->sort_keys.size());
  for (const auto& k : p->sort_keys) {
    h->Str(k.name);
    h->Bool(k.asc);
  }
  h->I64(p->limit);
  h->U64(p->children.size());
  for (const auto& c : p->children) HashPlan(h, c);
}

void HashDatabase(Hasher* h, const rt::Database& db) {
  h->U64(db.tables().size());
  for (const auto& [name, table] : db.tables()) {
    h->Str(name);
    // Row counts are baked into generated code (hash-table capacity
    // bounds), so data growth must invalidate cached entries.
    h->I64(table->num_rows());
    const schema::Schema& s = table->schema();
    h->U64(static_cast<uint64_t>(s.size()));
    for (const auto& f : s.fields()) {
      h->Str(f.name);
      h->I32(static_cast<int32_t>(f.kind));
      // Which auxiliary structures exist gates index-join and dictionary
      // codegen paths for this column.
      h->Bool(db.pk_index(name, f.name) != nullptr);
      h->Bool(db.fk_index(name, f.name) != nullptr);
      h->Bool(db.date_index(name, f.name) != nullptr);
      h->Bool(db.dictionary(name, f.name) != nullptr);
    }
  }
}

void HashOptions(Hasher* h, const engine::EngineOptions& o) {
  h->Bool(o.use_dict);
  h->Bool(o.hoist_alloc);
  h->Bool(o.row_layout_joins);
  h->I32(o.num_threads);
  // Profiled modules export extra symbols and carry counter code; they must
  // never alias a plain module in any cache tier.
  h->Bool(o.profile);
  // Codegen flavor selects entirely different loop shapes; for the blended
  // flavor the per-site mask is part of the choice. Non-blended flavors
  // hash a zero mask so a stray blend value cannot split their keys.
  h->I32(static_cast<int32_t>(o.flavor));
  h->U64(o.flavor == engine::Flavor::kBlended ? o.blend : 0);
}

/// Path-copying literal hoister. Shared subtrees that contain no hoistable
/// leaf are reused by pointer; everything on the path to a marked leaf is
/// copied, so the caller's original query is never mutated.
class Parameterizer {
 public:
  explicit Parameterizer(bool dict_sensitive)
      : dict_sensitive_(dict_sensitive) {}

  plan::ExprRef RewriteExpr(const plan::ExprRef& e) {
    if (e == nullptr) return e;
    using plan::ExprOp;
    switch (e->op) {
      case ExprOp::kIntConst:
        return MarkLeaf(e, plan::ParamKind::kInt);
      case ExprOp::kDateConst:
        return MarkLeaf(e, plan::ParamKind::kDate);
      case ExprOp::kBoolConst:
        return MarkLeaf(e, plan::ParamKind::kBool);
      case ExprOp::kDoubleConst:
        return MarkLeaf(e, plan::ParamKind::kDouble);
      case ExprOp::kStrConst:
        return MarkLeaf(e, plan::ParamKind::kStr);
      case ExprOp::kInStr:
        // Same guard as string equality below: dictionary-aware engines
        // resolve IN-list members to dictionary codes at compile time, so
        // the values stay baked under a dict-sensitive engine.
        if (dict_sensitive_) {
          guard_fallbacks_ += static_cast<int64_t>(e->str_list.size());
          break;
        }
        return MarkInList(e, plan::ParamKind::kStr);
      case ExprOp::kInInt:
        return MarkInList(e, plan::ParamKind::kInt);
      default:
        break;
    }
    // Guard predicate: under a dictionary-aware engine, `col = 'CONST'` /
    // `col != 'CONST'` specializes to an integer compare against the
    // literal's dictionary code — resolved while the query compiles. That
    // physical choice depends on the constant's value, so the leaf stays
    // baked (and hashes by value: the per-literal-fingerprint fallback).
    bool guard_rhs = dict_sensitive_ &&
                     (e->op == ExprOp::kEq || e->op == ExprOp::kNe) &&
                     e->children.size() == 2 &&
                     e->children[1]->op == ExprOp::kStrConst;
    bool changed = false;
    std::vector<plan::ExprRef> kids;
    kids.reserve(e->children.size());
    for (size_t i = 0; i < e->children.size(); ++i) {
      if (guard_rhs && i == 1) {
        ++guard_fallbacks_;
        kids.push_back(e->children[i]);
        continue;
      }
      plan::ExprRef k = RewriteExpr(e->children[i]);
      changed |= k != e->children[i];
      kids.push_back(std::move(k));
    }
    if (!changed) return e;
    auto copy = std::make_shared<plan::Expr>(*e);
    copy->children = std::move(kids);
    return copy;
  }

  plan::PlanRef RewritePlan(const plan::PlanRef& p) {
    if (p == nullptr) return p;
    bool changed = false;
    plan::ExprRef pred = RewriteExpr(p->predicate);
    changed |= pred != p->predicate;
    std::vector<plan::ExprRef> exprs = RewriteExprs(p->exprs, &changed);
    std::vector<plan::ExprRef> group_exprs =
        RewriteExprs(p->group_exprs, &changed);
    std::vector<plan::AggSpec> aggs = p->aggs;
    for (auto& a : aggs) {
      plan::ExprRef ae = RewriteExpr(a.expr);
      changed |= ae != a.expr;
      a.expr = std::move(ae);
    }
    std::vector<plan::PlanRef> kids;
    kids.reserve(p->children.size());
    for (const auto& c : p->children) {
      plan::PlanRef k = RewritePlan(c);
      changed |= k != c;
      kids.push_back(std::move(k));
    }
    if (!changed) return p;
    auto copy = std::make_shared<plan::PlanNode>(*p);
    copy->predicate = std::move(pred);
    copy->exprs = std::move(exprs);
    copy->group_exprs = std::move(group_exprs);
    copy->aggs = std::move(aggs);
    copy->children = std::move(kids);
    return copy;
  }

  plan::ParamVec TakeParams() { return std::move(params_); }
  int64_t guard_fallbacks() const { return guard_fallbacks_; }

 private:
  plan::ExprRef MarkLeaf(const plan::ExprRef& e, plan::ParamKind kind) {
    plan::ParamValue v;
    v.kind = kind;
    switch (kind) {
      case plan::ParamKind::kDouble:
        v.f64 = e->f64;
        break;
      case plan::ParamKind::kStr:
        v.str = e->str;
        break;
      case plan::ParamKind::kBool:
        v.i64 = e->i64 != 0 ? 1 : 0;
        break;
      default:  // kInt, kDate
        v.i64 = e->i64;
        break;
    }
    auto copy = std::make_shared<plan::Expr>(*e);
    copy->param_slot = static_cast<int64_t>(params_.size());
    params_.push_back(std::move(v));
    return copy;
  }

  /// IN-list hoisting: the node takes `param_slot` = the first of
  /// list-size consecutive slots, one ParamValue per element, so every
  /// IN query of the same shape (same element count) shares one artifact.
  /// Children (the probe expression) are rewritten first, keeping the
  /// element slots contiguous.
  plan::ExprRef MarkInList(const plan::ExprRef& e, plan::ParamKind kind) {
    auto copy = std::make_shared<plan::Expr>(*e);
    std::vector<plan::ExprRef> kids;
    kids.reserve(e->children.size());
    for (const auto& c : e->children) kids.push_back(RewriteExpr(c));
    copy->children = std::move(kids);
    copy->param_slot = static_cast<int64_t>(params_.size());
    if (kind == plan::ParamKind::kStr) {
      for (const auto& s : e->str_list) {
        plan::ParamValue v;
        v.kind = plan::ParamKind::kStr;
        v.str = s;
        params_.push_back(std::move(v));
      }
    } else {
      for (int64_t x : e->int_list) {
        plan::ParamValue v;
        v.kind = plan::ParamKind::kInt;
        v.i64 = x;
        params_.push_back(std::move(v));
      }
    }
    return copy;
  }

  std::vector<plan::ExprRef> RewriteExprs(
      const std::vector<plan::ExprRef>& in, bool* changed) {
    std::vector<plan::ExprRef> out;
    out.reserve(in.size());
    for (const auto& e : in) {
      plan::ExprRef r = RewriteExpr(e);
      *changed |= r != e;
      out.push_back(std::move(r));
    }
    return out;
  }

  bool dict_sensitive_;
  plan::ParamVec params_;
  int64_t guard_fallbacks_ = 0;
};

}  // namespace

ParameterizedQuery ParameterizeQuery(const plan::Query& q,
                                     bool dict_sensitive) {
  Parameterizer pz(dict_sensitive);
  ParameterizedQuery out;
  // Deterministic pre-order — slot order is part of the shape, so two
  // parses of the same statement must assign identical slots.
  out.query.scalar_subqueries.reserve(q.scalar_subqueries.size());
  for (const auto& sq : q.scalar_subqueries) {
    out.query.scalar_subqueries.push_back(pz.RewritePlan(sq));
  }
  out.query.root = pz.RewritePlan(q.root);
  out.params = pz.TakeParams();
  out.guard_fallbacks = pz.guard_fallbacks();
  return out;
}

std::string Fingerprint::ToString() const {
  return StrPrintf("fp:%016llx", static_cast<unsigned long long>(hash));
}

Fingerprint FingerprintQuery(const plan::Query& q,
                             const engine::EngineOptions& opts,
                             const rt::Database& db) {
  Hasher h;
  h.U64(q.scalar_subqueries.size());
  for (const auto& sq : q.scalar_subqueries) HashPlan(&h, sq);
  HashPlan(&h, q.root);
  HashOptions(&h, opts);
  Fingerprint fp;
  fp.shape = h.hash();  // plan + options prefix, before database identity
  fp.db = FingerprintDatabase(db);
  h.U64(fp.db);  // one walk of the tables serves both fp.db and fp.hash
  fp.hash = h.hash();
  return fp;
}

uint64_t FnvHash(const void* data, size_t n) {
  Hasher h;
  h.Bytes(data, n);
  return h.hash();
}

uint64_t FingerprintDatabase(const rt::Database& db) {
  Hasher h;
  HashDatabase(&h, db);
  return h.hash();
}

}  // namespace lb2::service
