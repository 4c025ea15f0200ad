// The data-centric operators with callbacks (paper Figure 6 / §3.1),
// written once against the Backend parameter.
//
// Two paper-critical structural choices live here:
//
//  * exec-with-callback: `op.Prepare()` returns the operator's data path as
//    a function taking a per-record callback. Inter-operator control flow is
//    ordinary (generation-time) function composition, so it disappears from
//    the residual code — the reason data-centric engines specialize well
//    (Figure 4).
//
//  * code motion via the exec signature (§4.4 / Figure 7): Prepare()
//    performs data-structure allocation and returns the data path, so
//    callers can place the timer (or any other code) between allocation and
//    the main loops.
#ifndef LB2_ENGINE_OPS_H_
#define LB2_ENGINE_OPS_H_

#include <functional>
#include <memory>

#include "engine/expr_eval.h"
#include "engine/hashmap.h"
#include "engine/morsel.h"
#include "engine/multimap.h"
#include "engine/profile.h"
#include "engine/sort.h"
#include "plan/validate.h"

namespace lb2::engine {

/// Per-query state shared by the operator tree.
template <typename B>
struct QueryCtx {
  B* b = nullptr;
  const rt::Database* db = nullptr;
  ColumnOptions copts;
  ScalarEnv<B> scalars;
  /// Join build-side materialization layout (paper §4.1 ablation).
  BufferLayout join_layout = BufferLayout::kRow;
  /// Parallel execution (paper §4.5): operators built on the spine (see
  /// engine/parallel.h) partition work across this many threads.
  int num_threads = 1;
  /// Non-null when profiling: BuildOp records one ProfOpMeta per operator
  /// (pre-order; the vector index is the operator's counter slot) and wraps
  /// its data loop with counter updates. See engine/profile.h.
  std::vector<ProfOpMeta>* prof = nullptr;
  int prof_depth = 0;
  /// Codegen flavor (ROADMAP item 2) and, for Flavor::kBlended, the
  /// per-site vectorization mask (bit i = vectorize blend site i). Sites
  /// are numbered pre-order during BuildOp; `vec_sites` counts them and
  /// `vec_suppress` marks Selects interior to an already-analyzed chain so
  /// numbering is deterministic across flavors. See engine/vec_ops.h.
  Flavor flavor = Flavor::kDataCentric;
  uint64_t blend = 0;
  int vec_sites = 0;
  bool vec_suppress = false;

  /// Whether an operator built with BuildOp's on-spine flag `spine` runs
  /// inside a parallel region (one lane per thread).
  bool IsPar(bool spine) const { return spine && num_threads > 1; }
};

/// The one scan loop. Off the spine, a scan is a plain loop over `span()`.
/// On the spine, the loop claims morsels of `span()` from the shared
/// dispenser (B::MorselLoop) — in every worker of a parallel region when
/// the query runs on more than one thread, so idle workers steal the next
/// morsel, and an interpreted prefix and a compiled suffix can split one
/// range. `span()` is evaluated where the loop runs: staged worker
/// functions cannot see the entry's locals.
template <typename B, typename S, typename F>
void ScanLoop(QueryCtx<B>* ctx, bool spine, S span, F body) {
  B& b = *ctx->b;
  auto loop = [&] {
    auto [lo, hi] = span();
    if (spine) {
      b.MorselLoop(lo, hi, body);
    } else {
      body(lo, hi);
    }
  };
  if (ctx->IsPar(spine)) {
    b.ParallelRegion(ctx->num_threads, [&](typename B::I64) { loop(); });
  } else {
    loop();
  }
}

template <typename B>
class Op {
 public:
  using Callback = std::function<void(const Record<B>&)>;
  using DataLoop = std::function<void(const Callback&)>;

  Op(QueryCtx<B>* ctx, schema::Schema schema, DictVec dicts)
      : ctx_(ctx), schema_(std::move(schema)), dicts_(std::move(dicts)) {}
  virtual ~Op() = default;

  /// Allocates operator state and returns the data path.
  virtual DataLoop Prepare() = 0;

  const schema::Schema& schema() const { return schema_; }
  const DictVec& dicts() const { return dicts_; }

 protected:
  Value<B> Eval(const plan::ExprRef& e, const Record<B>& rec) const {
    return EvalExpr(*ctx_->b, e, rec, ctx_->scalars);
  }
  typename B::Bool EvalBool(const plan::ExprRef& e,
                            const Record<B>& rec) const {
    return AsBool(*ctx_->b, Eval(e, rec));
  }

  QueryCtx<B>* ctx_;
  schema::Schema schema_;
  DictVec dicts_;
};

template <typename B>
using OpPtr = std::unique_ptr<Op<B>>;

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// Binds column accessors for a base table and materializes generation-time
/// records for arbitrary row positions. Shared by ScanOp and the index-join
/// operators (which fetch base rows through an index).
template <typename B>
class TableReader {
 public:
  void Bind(B& b, const std::string& table, const schema::Schema& schema,
            const DictVec& dicts) {
    schema_ = schema;
    dicts_ = dicts;
    accs_.clear();
    for (int i = 0; i < schema.size(); ++i) {
      ColumnOptions copts;
      copts.use_dict = dicts[static_cast<size_t>(i)] != nullptr;
      accs_.push_back(b.Column(table, schema.field(i).name, copts));
    }
  }

  Record<B> RecordAt(B& b, typename B::I64 i) const {
    Record<B> rec;
    for (int f = 0; f < schema_.size(); ++f) {
      const auto& acc = accs_[static_cast<size_t>(f)];
      const rt::Dictionary* dict = dicts_[static_cast<size_t>(f)];
      using K = schema::FieldKind;
      switch (schema_.field(f).kind) {
        case K::kInt64:
          rec.Add(schema_.field(f), Value<B>::I64(b.ColI64(acc, i)));
          break;
        case K::kDouble:
          rec.Add(schema_.field(f), Value<B>::F64(b.ColF64(acc, i)));
          break;
        case K::kDate:
          rec.Add(schema_.field(f), Value<B>::I64(b.ColDate(acc, i)));
          break;
        case K::kString:
          if (dict != nullptr) {
            rec.Add(schema_.field(f),
                    Value<B>::DictStr(b.ColDictCode(acc, i), dict));
          } else {
            rec.Add(schema_.field(f), Value<B>::Str(b.ColStr(acc, i)));
          }
          break;
      }
    }
    return rec;
  }

 private:
  schema::Schema schema_;
  DictVec dicts_;
  std::vector<typename B::ColAcc> accs_;
};

template <typename B>
class ScanOp final : public Op<B> {
 public:
  ScanOp(QueryCtx<B>* ctx, const plan::PlanNode& n, schema::Schema schema,
         DictVec dicts, bool spine)
      : Op<B>(ctx, std::move(schema), std::move(dicts)),
        node_(&n),
        spine_(spine) {}

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    // Bind column accessors now — outside any loop in the residual code.
    reader_.Bind(b, node_->table, this->schema_, this->dicts_);
    bool use_date_index = !node_->date_index_col.empty();
    if (use_date_index) {
      date_acc_ = b.DateIdx(node_->table, node_->date_index_col);
    }
    return [this, use_date_index](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      using I64 = typename B::I64;
      // Emits the scan loop over [lo, hi) of either row ids or date-index
      // positions.
      auto span_loop = [&](I64 lo, I64 hi) {
        if (use_date_index) {
          b.For(lo, hi, [&](I64 j) {
            cb(reader_.RecordAt(b, b.DateIdxRow(date_acc_, j)));
          });
        } else {
          b.For(lo, hi, [&](I64 i) { cb(reader_.RecordAt(b, i)); });
        }
      };
      auto span_of = [&]() -> std::pair<I64, I64> {
        if (use_date_index) {
          // §4.3 date indexing: iterate only buckets intersecting the
          // range; residual predicates downstream keep exactness.
          return b.DateBucketSpan(date_acc_, node_->date_lo, node_->date_hi);
        }
        return {I64(0), b.TableRows(node_->table)};
      };
      ScanLoop(this->ctx_, spine_, span_of, span_loop);
    };
  }

 private:
  const plan::PlanNode* node_;
  bool spine_;
  TableReader<B> reader_;
  typename B::DateAcc date_acc_{};
};

// ---------------------------------------------------------------------------
// Select / Project / Limit — stateless pipeline operators
// ---------------------------------------------------------------------------

template <typename B>
class SelectOp final : public Op<B> {
 public:
  SelectOp(QueryCtx<B>* ctx, const plan::PlanNode& n, OpPtr<B> child)
      : Op<B>(ctx, child->schema(), child->dicts()),
        node_(&n),
        child_(std::move(child)) {}

  typename Op<B>::DataLoop Prepare() override {
    auto dl = child_->Prepare();
    return [this, dl](const typename Op<B>::Callback& cb) {
      dl([&](const Record<B>& rec) {
        this->ctx_->b->If(this->EvalBool(node_->predicate, rec),
                          [&] { cb(rec); });
      });
    };
  }

 private:
  const plan::PlanNode* node_;
  OpPtr<B> child_;
};

template <typename B>
class ProjectOp final : public Op<B> {
 public:
  ProjectOp(QueryCtx<B>* ctx, const plan::PlanNode& n, OpPtr<B> child,
            schema::Schema schema, DictVec dicts)
      : Op<B>(ctx, std::move(schema), std::move(dicts)),
        node_(&n),
        child_(std::move(child)) {}

  typename Op<B>::DataLoop Prepare() override {
    auto dl = child_->Prepare();
    return [this, dl](const typename Op<B>::Callback& cb) {
      dl([&](const Record<B>& rec) {
        Record<B> out;
        for (size_t i = 0; i < node_->exprs.size(); ++i) {
          out.Add(this->schema_.field(static_cast<int>(i)),
                  this->Eval(node_->exprs[i], rec));
        }
        cb(out);
      });
    };
  }

 private:
  const plan::PlanNode* node_;
  OpPtr<B> child_;
};

template <typename B>
class LimitOp final : public Op<B> {
 public:
  LimitOp(QueryCtx<B>* ctx, const plan::PlanNode& n, OpPtr<B> child)
      : Op<B>(ctx, child->schema(), child->dicts()),
        limit_(n.limit),
        child_(std::move(child)) {}

  typename Op<B>::DataLoop Prepare() override {
    auto dl = child_->Prepare();
    return [this, dl](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      auto count = b.NewCell(typename B::I64(0));
      dl([&](const Record<B>& rec) {
        b.If(b.Get(count) < typename B::I64(limit_), [&] {
          cb(rec);
          b.Set(count, b.Get(count) + typename B::I64(1));
        });
      });
    };
  }

 private:
  int64_t limit_;
  OpPtr<B> child_;
};

// ---------------------------------------------------------------------------
// Join helpers
// ---------------------------------------------------------------------------

/// True if join key `i` needs decoding to raw bytes so hashing agrees on
/// both sides (different dictionaries — or only one side encoded).
inline bool JoinKeyNeedsRaw(const schema::Schema& ls, const DictVec& ld,
                            const schema::Schema& rs, const DictVec& rd,
                            const std::string& lk, const std::string& rk) {
  int li = ls.IndexOf(lk), ri = rs.IndexOf(rk);
  const rt::Dictionary* a = ld[static_cast<size_t>(li)];
  const rt::Dictionary* bdict = rd[static_cast<size_t>(ri)];
  return a != bdict;
}

/// Record with the given fields decoded to raw strings where flagged.
template <typename B>
Record<B> NormalizeKeys(B& b, const Record<B>& rec,
                        const std::vector<std::string>& keys,
                        const std::vector<bool>& need_raw) {
  Record<B> out;
  for (int i = 0; i < rec.size(); ++i) {
    const auto& f = rec.field(i);
    Value<B> v = rec.value(i);
    for (size_t k = 0; k < keys.size(); ++k) {
      if (need_raw[k] && f.name == keys[k] && v.is_str() &&
          v.str().is_dict) {
        v = Value<B>::Str(AsRawStr(b, v));
      }
    }
    out.Add(f, v);
  }
  return out;
}

/// Probe-side key record (values in key order, normalized where needed).
template <typename B>
Record<B> ProbeKey(B& b, const Record<B>& rec,
                   const std::vector<std::string>& keys,
                   const std::vector<bool>& need_raw) {
  Record<B> key;
  for (size_t k = 0; k < keys.size(); ++k) {
    Value<B> v = rec.Get(keys[k]);
    if (need_raw[k] && v.is_str() && v.str().is_dict) {
      v = Value<B>::Str(AsRawStr(b, v));
    }
    key.Add({"k" + std::to_string(k), schema::FieldKind::kInt64}, v);
  }
  return key;
}

// ---------------------------------------------------------------------------
// HashJoin (builds on the left child — the paper's Figure 5b)
// ---------------------------------------------------------------------------

template <typename B>
class HashJoinOp final : public Op<B> {
 public:
  HashJoinOp(QueryCtx<B>* ctx, const plan::PlanNode& n, OpPtr<B> left,
             OpPtr<B> right, int64_t build_bound)
      : Op<B>(ctx, left->schema().Concat(right->schema()), DictVec{}),
        node_(&n),
        left_(std::move(left)),
        right_(std::move(right)),
        build_bound_(build_bound) {
    this->dicts_ = left_->dicts();
    this->dicts_.insert(this->dicts_.end(), right_->dicts().begin(),
                        right_->dicts().end());
    for (size_t k = 0; k < n.left_keys.size(); ++k) {
      need_raw_.push_back(JoinKeyNeedsRaw(left_->schema(), left_->dicts(),
                                          right_->schema(), right_->dicts(),
                                          n.left_keys[k], n.right_keys[k]));
    }
  }

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    DictVec build_dicts = left_->dicts();
    for (size_t k = 0; k < node_->left_keys.size(); ++k) {
      if (need_raw_[k]) {
        int i = left_->schema().IndexOf(node_->left_keys[k]);
        build_dicts[static_cast<size_t>(i)] = nullptr;
      }
    }
    mm_.Init(b, left_->schema(), build_dicts, node_->left_keys,
             build_bound_, this->ctx_->join_layout);
    auto ldl = left_->Prepare();
    auto rdl = right_->Prepare();
    return [this, ldl, rdl](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      ldl([&](const Record<B>& rec) {
        mm_.Insert(b, NormalizeKeys(b, rec, node_->left_keys, need_raw_));
      });
      rdl([&](const Record<B>& rrec) {
        mm_.Lookup(b, ProbeKey(b, rrec, node_->right_keys, need_raw_),
                   [&](const Record<B>& lrec) {
                     Record<B> merged = Record<B>::Concat(lrec, rrec);
                     if (node_->predicate != nullptr) {
                       b.If(this->EvalBool(node_->predicate, merged),
                            [&] { cb(merged); });
                     } else {
                       cb(merged);
                     }
                   });
      });
    };
  }

 private:
  const plan::PlanNode* node_;
  OpPtr<B> left_;
  OpPtr<B> right_;
  int64_t build_bound_;
  std::vector<bool> need_raw_;
  LB2HashMultiMap<B> mm_;
};

// ---------------------------------------------------------------------------
// Semi / Anti join (builds on the right child)
// ---------------------------------------------------------------------------

template <typename B>
class SemiAntiJoinOp final : public Op<B> {
 public:
  SemiAntiJoinOp(QueryCtx<B>* ctx, const plan::PlanNode& n, OpPtr<B> left,
                 OpPtr<B> right, int64_t build_bound)
      : Op<B>(ctx, left->schema(), left->dicts()),
        node_(&n),
        anti_(n.type == plan::OpType::kAntiJoin),
        left_(std::move(left)),
        right_(std::move(right)),
        build_bound_(build_bound) {
    for (size_t k = 0; k < n.left_keys.size(); ++k) {
      need_raw_.push_back(JoinKeyNeedsRaw(left_->schema(), left_->dicts(),
                                          right_->schema(), right_->dicts(),
                                          n.left_keys[k], n.right_keys[k]));
    }
  }

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    DictVec build_dicts = right_->dicts();
    for (size_t k = 0; k < node_->right_keys.size(); ++k) {
      if (need_raw_[k]) {
        int i = right_->schema().IndexOf(node_->right_keys[k]);
        build_dicts[static_cast<size_t>(i)] = nullptr;
      }
    }
    mm_.Init(b, right_->schema(), build_dicts, node_->right_keys,
             build_bound_, this->ctx_->join_layout);
    auto ldl = left_->Prepare();
    auto rdl = right_->Prepare();
    return [this, ldl, rdl](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      rdl([&](const Record<B>& rec) {
        mm_.Insert(b, NormalizeKeys(b, rec, node_->right_keys, need_raw_));
      });
      ldl([&](const Record<B>& lrec) {
        auto found = b.NewCell(typename B::Bool(false));
        mm_.Lookup(b, ProbeKey(b, lrec, node_->left_keys, need_raw_),
                   [&](const Record<B>& rrec) {
                     if (node_->predicate != nullptr) {
                       Record<B> merged = Record<B>::Concat(lrec, rrec);
                       b.If(this->EvalBool(node_->predicate, merged), [&] {
                         b.Set(found, typename B::Bool(true));
                       });
                     } else {
                       b.Set(found, typename B::Bool(true));
                     }
                   });
        typename B::Bool pass =
            anti_ ? !b.Get(found) : b.Get(found);
        b.If(pass, [&] { cb(lrec); });
      });
    };
  }

 private:
  const plan::PlanNode* node_;
  bool anti_;
  OpPtr<B> left_;
  OpPtr<B> right_;
  int64_t build_bound_;
  std::vector<bool> need_raw_;
  LB2HashMultiMap<B> mm_;
};

// ---------------------------------------------------------------------------
// LeftCountJoin — the outer "group join" used by Q13
// ---------------------------------------------------------------------------

template <typename B>
class LeftCountJoinOp final : public Op<B> {
 public:
  LeftCountJoinOp(QueryCtx<B>* ctx, const plan::PlanNode& n, OpPtr<B> left,
                  OpPtr<B> right, int64_t build_bound)
      : Op<B>(ctx, left->schema(), left->dicts()),
        node_(&n),
        left_(std::move(left)),
        right_(std::move(right)),
        build_bound_(build_bound) {
    this->schema_.Add({n.count_name, schema::FieldKind::kInt64});
    this->dicts_.push_back(nullptr);
  }

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    // Key schema: the right key fields; value: one i64 counter.
    schema::Schema key_schema;
    DictVec key_dicts;
    for (const auto& rk : node_->right_keys) {
      key_schema.Add(right_->schema().Get(rk));
      key_dicts.push_back(
          right_->dicts()[static_cast<size_t>(right_->schema().IndexOf(rk))]);
    }
    schema::Schema val_schema{{node_->count_name, schema::FieldKind::kInt64}};
    hm_.Init(b, key_schema, key_dicts, val_schema, {nullptr}, build_bound_);
    auto ldl = left_->Prepare();
    auto rdl = right_->Prepare();
    return [this, ldl, rdl,
            val_schema](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      rdl([&](const Record<B>& rrec) {
        Record<B> key = rrec.Slice(node_->right_keys);
        Record<B> init;
        init.Add(val_schema.field(0), Value<B>::I64(typename B::I64(0)));
        hm_.Update(b, key, init, [&](const Record<B>& cur) {
          Record<B> next;
          next.Add(val_schema.field(0),
                   Value<B>::I64(AsI64(b, cur.value(0)) +
                                 typename B::I64(1)));
          return next;
        });
      });
      ldl([&](const Record<B>& lrec) {
        auto count = b.NewCell(typename B::I64(0));
        Record<B> key;
        for (size_t k = 0; k < node_->left_keys.size(); ++k) {
          key.Add({"k" + std::to_string(k), schema::FieldKind::kInt64},
                  lrec.Get(node_->left_keys[k]));
        }
        hm_.Find(
            b, key,
            [&](const Record<B>& vals) {
              b.Set(count, AsI64(b, vals.value(0)));
            },
            [] {});
        Record<B> out = lrec;
        out.Add(this->schema_.field(this->schema_.size() - 1),
                Value<B>::I64(b.Get(count)));
        cb(out);
      });
    };
  }

 private:
  const plan::PlanNode* node_;
  OpPtr<B> left_;
  OpPtr<B> right_;
  int64_t build_bound_;
  LB2HashMap<B> hm_;
};

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Aggregate result kind (mirrors plan validation).
inline schema::FieldKind AggKindOf(const plan::AggSpec& a,
                                   const schema::Schema& input) {
  if (a.kind == plan::AggKind::kCountStar) return schema::FieldKind::kInt64;
  return InferKind(a.expr, input);
}

template <typename B>
Value<B> AggInitValue(B& b, const plan::AggSpec& a, schema::FieldKind kind) {
  using plan::AggKind;
  bool is_f64 = kind == schema::FieldKind::kDouble;
  switch (a.kind) {
    case AggKind::kCountStar:
      return Value<B>::I64(typename B::I64(0));
    case AggKind::kSum:
      return is_f64 ? Value<B>::F64(typename B::F64(0.0))
                    : Value<B>::I64(typename B::I64(0));
    case AggKind::kMin:
      return is_f64 ? Value<B>::F64(typename B::F64(1e300))
                    : Value<B>::I64(typename B::I64(INT64_MAX));
    case AggKind::kMax:
      return is_f64 ? Value<B>::F64(typename B::F64(-1e300))
                    : Value<B>::I64(typename B::I64(INT64_MIN));
  }
  return Value<B>::I64(typename B::I64(0));
}

template <typename B>
Value<B> AggStep(B& b, const plan::AggSpec& a, schema::FieldKind kind,
                 const Value<B>& cur, const Value<B>& row_val) {
  using plan::AggKind;
  bool is_f64 = kind == schema::FieldKind::kDouble;
  switch (a.kind) {
    case AggKind::kCountStar:
      return Value<B>::I64(AsI64(b, cur) + typename B::I64(1));
    case AggKind::kSum:
      if (is_f64) {
        return Value<B>::F64(AsF64(b, cur) + AsF64(b, row_val));
      }
      return Value<B>::I64(AsI64(b, cur) + AsI64(b, row_val));
    case AggKind::kMin:
      if (is_f64) {
        auto v = AsF64(b, row_val);
        auto c = AsF64(b, cur);
        return Value<B>::F64(b.SelF64(v < c, v, c));
      } else {
        auto v = AsI64(b, row_val);
        auto c = AsI64(b, cur);
        return Value<B>::I64(b.SelI64(v < c, v, c));
      }
    case AggKind::kMax:
      if (is_f64) {
        auto v = AsF64(b, row_val);
        auto c = AsF64(b, cur);
        return Value<B>::F64(b.SelF64(v > c, v, c));
      } else {
        auto v = AsI64(b, row_val);
        auto c = AsI64(b, cur);
        return Value<B>::I64(b.SelI64(v > c, v, c));
      }
  }
  return cur;
}

/// Combines two partial aggregates (per-thread merge).
template <typename B>
Value<B> AggMerge(B& b, const plan::AggSpec& a, schema::FieldKind kind,
                  const Value<B>& cur, const Value<B>& other) {
  using plan::AggKind;
  bool is_f64 = kind == schema::FieldKind::kDouble;
  switch (a.kind) {
    case AggKind::kCountStar:
      return Value<B>::I64(AsI64(b, cur) + AsI64(b, other));
    case AggKind::kSum:
      if (is_f64) return Value<B>::F64(AsF64(b, cur) + AsF64(b, other));
      return Value<B>::I64(AsI64(b, cur) + AsI64(b, other));
    case AggKind::kMin:
    case AggKind::kMax: {
      // Min/max merge is the same as a min/max step over the other value.
      return AggStep(b, a, kind, cur, other);
    }
  }
  return cur;
}

/// Flat i64 slots per seed row of a morsel handoff (engine/morsel.h): one
/// slot per key field — except raw (undecoded) strings, which travel as a
/// (ptr, len) pair — plus one slot per aggregate value. Doubles ride as bit
/// patterns. Derived independently by the exporting interpreter and the
/// importing compiled build; both see the same plan + dictionaries, so the
/// layouts agree by construction.
inline int MorselSeedStride(const schema::Schema& key_schema,
                            const DictVec& key_dicts,
                            const schema::Schema& val_schema) {
  int stride = 0;
  for (int i = 0; i < key_schema.size(); ++i) {
    bool raw_str = key_schema.field(i).kind == schema::FieldKind::kString &&
                   key_dicts[static_cast<size_t>(i)] == nullptr;
    stride += raw_str ? 2 : 1;
  }
  return stride + val_schema.size();
}

template <typename B>
class GroupAggOp final : public Op<B> {
 public:
  GroupAggOp(QueryCtx<B>* ctx, const plan::PlanNode& n, OpPtr<B> child,
             schema::Schema schema, DictVec dicts, int64_t capacity,
             bool spine)
      : Op<B>(ctx, std::move(schema), std::move(dicts)),
        node_(&n),
        child_(std::move(child)),
        capacity_(capacity),
        spine_(spine) {}

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    int ng = static_cast<int>(node_->group_exprs.size());
    schema::Schema key_schema, val_schema;
    DictVec key_dicts, val_dicts;
    for (int i = 0; i < ng; ++i) {
      key_schema.Add(this->schema_.field(i));
      key_dicts.push_back(this->dicts_[static_cast<size_t>(i)]);
    }
    for (int i = ng; i < this->schema_.size(); ++i) {
      val_schema.Add(this->schema_.field(i));
      val_dicts.push_back(nullptr);
    }
    bool par = this->ctx_->IsPar(spine_);
    int lanes = par ? this->ctx_->num_threads : 1;
    hm_.Init(b, key_schema, key_dicts, val_schema, val_dicts, capacity_,
             lanes);
    auto dl = child_->Prepare();
    return [this, dl, ng, key_schema, key_dicts, val_schema,
            par](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      using I64 = typename B::I64;
      if constexpr (B::kIsStaged) {
        // Seed import for a compiled suffix run: fold the interpreted
        // prefix's partial groups into lane 0 before any morsel is claimed.
        // Emitted for every spine sink but bounded by SeedRows() — zero on
        // a fresh dispenser, so the normal path skips it at run time. Runs
        // before the parallel region (dl spawns it), so the lane-0 updates
        // are race-free, and first-sight merge-with-init equals the seed
        // value exactly for every AggKind.
        if (spine_) {
          const int stride = MorselSeedStride(key_schema, key_dicts,
                                              val_schema);
          b.For(I64(0), b.SeedRows(), [&](I64 r) {
            int slot = 0;
            Record<B> skey;
            for (int i = 0; i < key_schema.size(); ++i) {
              const rt::Dictionary* dict = key_dicts[static_cast<size_t>(i)];
              using K = schema::FieldKind;
              switch (key_schema.field(i).kind) {
                case K::kString:
                  if (dict != nullptr) {
                    skey.Add(key_schema.field(i),
                             Value<B>::DictStr(b.SeedSlot(r, stride, slot++),
                                               dict));
                  } else {
                    auto p = b.BitsPtr(b.SeedSlot(r, stride, slot++));
                    auto n = b.CastI32(b.SeedSlot(r, stride, slot++));
                    skey.Add(key_schema.field(i),
                             Value<B>::Str(typename B::Str{p, n}));
                  }
                  break;
                case K::kDouble:
                  skey.Add(key_schema.field(i),
                           Value<B>::F64(
                               b.BitsF64(b.SeedSlot(r, stride, slot++))));
                  break;
                default:
                  skey.Add(key_schema.field(i),
                           Value<B>::I64(b.SeedSlot(r, stride, slot++)));
                  break;
              }
            }
            Record<B> init;
            std::vector<Value<B>> seed_vals;
            for (size_t a = 0; a < node_->aggs.size(); ++a) {
              schema::FieldKind k = val_schema.field(static_cast<int>(a)).kind;
              init.Add(val_schema.field(static_cast<int>(a)),
                       AggInitValue(b, node_->aggs[a], k));
              if (k == schema::FieldKind::kDouble) {
                seed_vals.push_back(Value<B>::F64(
                    b.BitsF64(b.SeedSlot(r, stride, slot++))));
              } else {
                seed_vals.push_back(
                    Value<B>::I64(b.SeedSlot(r, stride, slot++)));
              }
            }
            hm_.Update(b, I64(0), skey, init, [&](const Record<B>& cur) {
              Record<B> next;
              for (size_t a = 0; a < node_->aggs.size(); ++a) {
                next.Add(val_schema.field(static_cast<int>(a)),
                         AggMerge(b, node_->aggs[a],
                                  val_schema.field(static_cast<int>(a)).kind,
                                  cur.value(static_cast<int>(a)),
                                  seed_vals[a]));
              }
              return next;
            });
          });
        }
      }
      dl([&](const Record<B>& rec) {
        Record<B> key;
        for (int i = 0; i < ng; ++i) {
          key.Add(this->schema_.field(i), this->Eval(node_->group_exprs
                                                         [static_cast<size_t>(
                                                             i)],
                                                     rec));
        }
        // Evaluate agg inputs once per row, outside the probe loop.
        std::vector<Value<B>> row_vals;
        std::vector<schema::FieldKind> kinds;
        Record<B> init;
        for (size_t a = 0; a < node_->aggs.size(); ++a) {
          const auto& spec = node_->aggs[a];
          schema::FieldKind k = val_schema.field(static_cast<int>(a)).kind;
          kinds.push_back(k);
          if (spec.kind == plan::AggKind::kCountStar) {
            row_vals.push_back(Value<B>::I64(typename B::I64(0)));
          } else {
            row_vals.push_back(this->Eval(spec.expr, rec));
          }
          init.Add(val_schema.field(static_cast<int>(a)),
                   AggInitValue(b, spec, k));
        }
        I64 lane = par ? b.CurTid() : I64(0);
        hm_.Update(b, lane, key, init, [&](const Record<B>& cur) {
          Record<B> next;
          for (size_t a = 0; a < node_->aggs.size(); ++a) {
            next.Add(val_schema.field(static_cast<int>(a)),
                     AggStep(b, node_->aggs[a], kinds[a],
                             cur.value(static_cast<int>(a)), row_vals[a]));
          }
          return next;
        });
      });
      if (par) {
        // Fold per-thread partial aggregates into lane 0 (paper §4.5).
        Record<B> init;
        for (size_t a = 0; a < node_->aggs.size(); ++a) {
          init.Add(val_schema.field(static_cast<int>(a)),
                   AggInitValue(b, node_->aggs[a],
                                val_schema.field(static_cast<int>(a)).kind));
        }
        hm_.MergeLanes(
            b,
            [&](const Record<B>& cur, const Record<B>& other) {
              Record<B> next;
              for (size_t a = 0; a < node_->aggs.size(); ++a) {
                next.Add(val_schema.field(static_cast<int>(a)),
                         AggMerge(b, node_->aggs[a],
                                  val_schema.field(static_cast<int>(a)).kind,
                                  cur.value(static_cast<int>(a)),
                                  other.value(static_cast<int>(a))));
              }
              return next;
            },
            init);
      }
      if constexpr (!B::kIsStaged) {
        // Seed export for an interpreted prefix that stopped at a morsel
        // boundary: flatten the (merged) lane-0 groups into the handoff
        // buffer and emit NO output — the compiled suffix folds the seed
        // back in and produces the complete result itself.
        if (spine_) {
          MorselRun* run = b.morsels();
          if (run->stopped) {
            hm_.ForeachLane(b, I64(0), [&](const Record<B>& krec,
                                           const Record<B>& vrec) {
              for (int i = 0; i < krec.size(); ++i) {
                Value<B> v = krec.value(i);
                if (v.is_str() && v.str().is_dict) {
                  run->seed.push_back(v.str().code);
                } else if (v.is_str()) {
                  auto s = v.str().s;
                  run->seed_strings.emplace_back(s.p,
                                                 static_cast<size_t>(s.n));
                  const std::string& owned = run->seed_strings.back();
                  run->seed.push_back(b.PtrBits(owned.data()));
                  run->seed.push_back(
                      static_cast<long long>(owned.size()));
                } else if (v.is_f64()) {
                  run->seed.push_back(b.F64Bits(v.f64()));
                } else {
                  run->seed.push_back(AsI64(b, v));
                }
              }
              for (int i = 0; i < vrec.size(); ++i) {
                Value<B> v = vrec.value(i);
                if (v.is_f64()) {
                  run->seed.push_back(b.F64Bits(v.f64()));
                } else {
                  run->seed.push_back(AsI64(b, v));
                }
              }
              ++run->seed_rows;
            });
            return;
          }
        }
      }
      hm_.Foreach(b, cb);
    };
  }

 private:
  const plan::PlanNode* node_;
  OpPtr<B> child_;
  int64_t capacity_;
  bool spine_;
  LB2HashMap<B> hm_;
};

template <typename B>
class ScalarAggOp final : public Op<B> {
 public:
  ScalarAggOp(QueryCtx<B>* ctx, const plan::PlanNode& n, OpPtr<B> child,
              schema::Schema schema, bool spine)
      : Op<B>(ctx, std::move(schema), DictVec(
                                          static_cast<size_t>(n.aggs.size()),
                                          nullptr)),
        node_(&n),
        child_(std::move(child)),
        spine_(spine) {}

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    using I64 = typename B::I64;
    int lanes = this->ctx_->IsPar(spine_) ? this->ctx_->num_threads : 1;
    // One accumulator slot per lane per aggregate; (file-scope) arrays so
    // parallel workers can update their own lane.
    i64_acc_.clear();
    f64_acc_.clear();
    for (int i = 0; i < this->schema_.size(); ++i) {
      const auto& spec = node_->aggs[static_cast<size_t>(i)];
      Value<B> init = AggInitValue(b, spec, this->schema_.field(i).kind);
      if (this->schema_.field(i).kind == schema::FieldKind::kDouble) {
        auto arr = b.template AllocArr<double>(I64(lanes));
        b.For(I64(0), I64(lanes),
              [&](I64 t) { b.ArrSet(arr, t, init.f64()); });
        f64_acc_.push_back(arr);
        i64_acc_.push_back({});
      } else {
        auto arr = b.template AllocArr<int64_t>(I64(lanes));
        b.For(I64(0), I64(lanes),
              [&](I64 t) { b.ArrSet(arr, t, init.i64()); });
        i64_acc_.push_back(arr);
        f64_acc_.push_back({});
      }
    }
    auto dl = child_->Prepare();
    return [this, dl, lanes](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      using I64 = typename B::I64;
      if constexpr (B::kIsStaged) {
        // Seed import (see GroupAggOp): merge the interpreted prefix's one
        // exported accumulator row into lane 0. SeedRows() is 0 or 1 here.
        if (spine_) {
          const int stride = this->schema_.size();
          b.For(I64(0), b.SeedRows(), [&](I64 r) {
            for (int i = 0; i < this->schema_.size(); ++i) {
              const auto& spec = node_->aggs[static_cast<size_t>(i)];
              schema::FieldKind k = this->schema_.field(i).kind;
              Value<B> sv =
                  k == schema::FieldKind::kDouble
                      ? Value<B>::F64(b.BitsF64(b.SeedSlot(r, stride, i)))
                      : Value<B>::I64(b.SeedSlot(r, stride, i));
              StoreLane(b, i, I64(0),
                        AggMerge(b, spec, k, LaneValue(b, i, I64(0)), sv));
            }
          });
        }
      }
      dl([&](const Record<B>& rec) {
        I64 lane = lanes > 1 ? b.CurTid() : I64(0);
        for (int i = 0; i < this->schema_.size(); ++i) {
          const auto& spec = node_->aggs[static_cast<size_t>(i)];
          schema::FieldKind k = this->schema_.field(i).kind;
          Value<B> row_val = Value<B>::I64(I64(0));
          if (spec.kind != plan::AggKind::kCountStar) {
            row_val = this->Eval(spec.expr, rec);
          }
          Value<B> next = AggStep(b, spec, k, LaneValue(b, i, lane), row_val);
          StoreLane(b, i, lane, next);
        }
      });
      // Reduce lanes 1..n into lane 0 (no-op when sequential).
      for (int t = 1; t < lanes; ++t) {
        for (int i = 0; i < this->schema_.size(); ++i) {
          const auto& spec = node_->aggs[static_cast<size_t>(i)];
          schema::FieldKind k = this->schema_.field(i).kind;
          Value<B> merged = AggMerge(b, spec, k, LaneValue(b, i, I64(0)),
                                     LaneValue(b, i, I64(t)));
          StoreLane(b, i, I64(0), merged);
        }
      }
      if constexpr (!B::kIsStaged) {
        // Seed export on a stopped prefix: one row of lane-0 accumulators.
        // With zero morsels claimed these are the init values — exact merge
        // identities for every AggKind, so a switch at morsel 0 is correct.
        if (spine_) {
          MorselRun* run = b.morsels();
          if (run->stopped) {
            for (int i = 0; i < this->schema_.size(); ++i) {
              Value<B> v = LaneValue(b, i, I64(0));
              if (this->schema_.field(i).kind ==
                  schema::FieldKind::kDouble) {
                run->seed.push_back(b.F64Bits(v.f64()));
              } else {
                run->seed.push_back(AsI64(b, v));
              }
            }
            run->seed_rows = 1;
            return;
          }
        }
      }
      Record<B> out;
      for (int i = 0; i < this->schema_.size(); ++i) {
        out.Add(this->schema_.field(i),
                LaneValue(b, i, typename B::I64(0)));
      }
      cb(out);
    };
  }

 private:
  Value<B> LaneValue(B& b, int i, typename B::I64 lane) const {
    if (this->schema_.field(i).kind == schema::FieldKind::kDouble) {
      return Value<B>::F64(
          b.ArrGet(f64_acc_[static_cast<size_t>(i)], lane));
    }
    return Value<B>::I64(b.ArrGet(i64_acc_[static_cast<size_t>(i)], lane));
  }
  void StoreLane(B& b, int i, typename B::I64 lane, const Value<B>& v) {
    if (this->schema_.field(i).kind == schema::FieldKind::kDouble) {
      b.ArrSet(f64_acc_[static_cast<size_t>(i)], lane, AsF64(b, v));
    } else {
      b.ArrSet(i64_acc_[static_cast<size_t>(i)], lane, AsI64(b, v));
    }
  }

  const plan::PlanNode* node_;
  OpPtr<B> child_;
  bool spine_;
  std::vector<typename B::template Arr<int64_t>> i64_acc_;
  std::vector<typename B::template Arr<double>> f64_acc_;
};

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

template <typename B>
class SortOp final : public Op<B> {
 public:
  SortOp(QueryCtx<B>* ctx, const plan::PlanNode& n, OpPtr<B> child,
         int64_t bound)
      : Op<B>(ctx, child->schema(), child->dicts()),
        node_(&n),
        child_(std::move(child)),
        bound_(bound) {}

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    buf_.Init(b, this->schema_, this->dicts_, typename B::I64(bound_));
    perm_ = b.template AllocArr<int64_t>(typename B::I64(bound_));
    count_ = b.NewCell(typename B::I64(0));
    auto dl = child_->Prepare();
    return [this, dl](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      dl([&](const Record<B>& rec) {
        buf_.Write(b, b.Get(count_), rec);
        b.Set(count_, b.Get(count_) + typename B::I64(1));
      });
      typename B::I64 n = b.Get(count_);
      b.For(typename B::I64(0), n,
            [&](typename B::I64 i) { b.ArrSet(perm_, i, i); });
      Sorter<B>::SortPerm(b, buf_, perm_, n, node_->sort_keys);
      b.For(typename B::I64(0), n, [&](typename B::I64 i) {
        cb(buf_.Read(b, b.ArrGet(perm_, i)));
      });
    };
  }

 private:
  const plan::PlanNode* node_;
  OpPtr<B> child_;
  int64_t bound_;
  ColumnarBuffer<B> buf_;
  typename B::template Arr<int64_t> perm_;
  typename B::template Cell<int64_t> count_;
};

}  // namespace lb2::engine

#endif  // LB2_ENGINE_OPS_H_
