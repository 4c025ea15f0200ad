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

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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
  Value<B> Eval(const BoundExpr& e, const Record<B>& rec) const {
    return EvalExpr(*ctx_->b, e, rec, ctx_->scalars);
  }
  typename B::Bool EvalBool(const BoundExpr& e, const Record<B>& rec) const {
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
/// records for arbitrary row positions into one record it owns. Shared by
/// ScanOp, the vectorized scan and the index-join operators (which fetch
/// base rows through an index).
template <typename B>
class TableReader {
 public:
  /// `schema` (the table's, in column order) must outlive the reader.
  void Bind(B& b, const std::string& table, const schema::Schema* schema,
            const DictVec& dicts) {
    schema_ = schema;
    dicts_ = dicts;
    accs_.clear();
    for (int i = 0; i < schema->size(); ++i) {
      ColumnOptions copts;
      copts.use_dict = dicts[static_cast<size_t>(i)] != nullptr;
      accs_.push_back(b.Column(table, schema->field(i).name, copts));
    }
    rec_ = Record<B>(schema);
  }

  /// Row `i` as a record; valid until the next call.
  const Record<B>& RecordAt(B& b, typename B::I64 i) {
    for (int f = 0; f < schema_->size(); ++f) {
      const auto& acc = accs_[static_cast<size_t>(f)];
      const rt::Dictionary* dict = dicts_[static_cast<size_t>(f)];
      using K = schema::FieldKind;
      switch (schema_->field(f).kind) {
        case K::kInt64:
          rec_.set(f, Value<B>::I64(b.ColI64(acc, i)));
          break;
        case K::kDouble:
          rec_.set(f, Value<B>::F64(b.ColF64(acc, i)));
          break;
        case K::kDate:
          rec_.set(f, Value<B>::I64(b.ColDate(acc, i)));
          break;
        case K::kString:
          if (dict != nullptr) {
            rec_.set(f, Value<B>::DictStr(b.ColDictCode(acc, i), dict));
          } else {
            rec_.set(f, Value<B>::Str(b.ColStr(acc, i)));
          }
          break;
      }
    }
    return rec_;
  }

 private:
  const schema::Schema* schema_ = nullptr;
  DictVec dicts_;
  std::vector<typename B::ColAcc> accs_;
  Record<B> rec_;
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
    reader_.Bind(b, node_->table, &this->schema_, this->dicts_);
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
        pred_(BindExpr(n.predicate, child->schema())),
        child_(std::move(child)) {}

  typename Op<B>::DataLoop Prepare() override {
    auto dl = child_->Prepare();
    return [this, dl](const typename Op<B>::Callback& cb) {
      dl([&](const Record<B>& rec) {
        this->ctx_->b->If(this->EvalBool(pred_, rec), [&] { cb(rec); });
      });
    };
  }

 private:
  BoundExpr pred_;
  OpPtr<B> child_;
};

template <typename B>
class ProjectOp final : public Op<B> {
 public:
  ProjectOp(QueryCtx<B>* ctx, const plan::PlanNode& n, OpPtr<B> child,
            schema::Schema schema, DictVec dicts)
      : Op<B>(ctx, std::move(schema), std::move(dicts)),
        exprs_(BindExprs(n.exprs, child->schema())),
        child_(std::move(child)),
        out_(&this->schema_) {}

  typename Op<B>::DataLoop Prepare() override {
    auto dl = child_->Prepare();
    return [this, dl](const typename Op<B>::Callback& cb) {
      dl([&](const Record<B>& rec) {
        for (size_t i = 0; i < exprs_.size(); ++i) {
          out_.set(static_cast<int>(i), this->Eval(exprs_[i], rec));
        }
        cb(out_);
      });
    };
  }

 private:
  std::vector<BoundExpr> exprs_;
  OpPtr<B> child_;
  Record<B> out_;
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

/// A hash join's keys, resolved when the join is built: the build side's
/// key slots, the probe side's, and which keys travel as raw bytes because
/// the two sides do not share their dictionary (different dictionaries, or
/// only one side encoded), so that hashing agrees on both sides.
template <typename B>
class JoinKeys {
 public:
  JoinKeys(const Op<B>& build, const std::vector<std::string>& build_keys,
           const Op<B>& probe, const std::vector<std::string>& probe_keys)
      : build_slots_(SlotsOf(build.schema(), build_keys)),
        probe_slots_(SlotsOf(probe.schema(), probe_keys)),
        build_dicts_(build.dicts()) {
    for (size_t k = 0; k < build_slots_.size(); ++k) {
      size_t bs = static_cast<size_t>(build_slots_[k]);
      need_raw_.push_back(build.dicts()[bs] !=
                          probe.dicts()[static_cast<size_t>(probe_slots_[k])]);
      if (need_raw_.back()) {
        build_dicts_[bs] = nullptr;
        raw_build_slots_.push_back(build_slots_[k]);
      }
      key_schema_.Add({"k" + std::to_string(k), schema::FieldKind::kInt64});
    }
    std::sort(raw_build_slots_.begin(), raw_build_slots_.end());
    raw_build_slots_.erase(
        std::unique(raw_build_slots_.begin(), raw_build_slots_.end()),
        raw_build_slots_.end());
    build_rec_ = Record<B>(&build.schema());
    probe_key_ = Record<B>(&key_schema_);
  }

  const std::vector<int>& build_slots() const { return build_slots_; }
  /// Dictionaries of the stored build records: null where a key is raw.
  const DictVec& build_dicts() const { return build_dicts_; }

  /// The build record to store: `rec` with its raw keys decoded.
  const Record<B>& Build(B& b, const Record<B>& rec) {
    if (raw_build_slots_.empty()) return rec;
    build_rec_.SetFrom(0, rec);
    for (int s : raw_build_slots_) {
      const Value<B>& v = rec.value(s);
      if (v.is_str() && v.str().is_dict) {
        build_rec_.set(s, Value<B>::Str(AsRawStr(b, v)));
      }
    }
    return build_rec_;
  }

  /// The probe key: `rec`'s key values in key order, decoded where raw.
  const Record<B>& Probe(B& b, const Record<B>& rec) {
    for (size_t k = 0; k < probe_slots_.size(); ++k) {
      const Value<B>& v = rec.value(probe_slots_[k]);
      if (need_raw_[k] && v.is_str() && v.str().is_dict) {
        probe_key_.set(static_cast<int>(k), Value<B>::Str(AsRawStr(b, v)));
      } else {
        probe_key_.set(static_cast<int>(k), v);
      }
    }
    return probe_key_;
  }

 private:
  std::vector<int> build_slots_;
  std::vector<int> probe_slots_;
  DictVec build_dicts_;
  std::vector<bool> need_raw_;
  std::vector<int> raw_build_slots_;  // ascending
  schema::Schema key_schema_;         // k0..kn
  Record<B> build_rec_;
  Record<B> probe_key_;
};

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
        build_bound_(build_bound),
        keys_(*left_, n.left_keys, *right_, n.right_keys),
        merged_(&this->schema_) {
    this->dicts_ = left_->dicts();
    this->dicts_.insert(this->dicts_.end(), right_->dicts().begin(),
                        right_->dicts().end());
    if (n.predicate != nullptr) pred_ = BindExpr(n.predicate, this->schema_);
  }

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    mm_.Init(b, left_->schema(), keys_.build_dicts(), keys_.build_slots(),
             build_bound_, this->ctx_->join_layout);
    auto ldl = left_->Prepare();
    auto rdl = right_->Prepare();
    return [this, ldl, rdl](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      ldl([&](const Record<B>& rec) { mm_.Insert(b, keys_.Build(b, rec)); });
      const int nl = left_->schema().size();
      rdl([&](const Record<B>& rrec) {
        merged_.SetFrom(nl, rrec);
        mm_.Lookup(b, keys_.Probe(b, rrec), [&](const Record<B>& lrec) {
          merged_.SetFrom(0, lrec);
          if (node_->predicate != nullptr) {
            b.If(this->EvalBool(pred_, merged_), [&] { cb(merged_); });
          } else {
            cb(merged_);
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
  JoinKeys<B> keys_;
  BoundExpr pred_;  // over left ++ right
  Record<B> merged_;
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
        build_bound_(build_bound),
        keys_(*right_, n.right_keys, *left_, n.left_keys) {
    if (n.predicate != nullptr) {
      // The residual predicate sees left ++ right; without one the two
      // sides may share field names.
      joint_ = left_->schema().Concat(right_->schema());
      pred_ = BindExpr(n.predicate, joint_);
      merged_ = Record<B>(&joint_);
    }
  }

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    mm_.Init(b, right_->schema(), keys_.build_dicts(), keys_.build_slots(),
             build_bound_, this->ctx_->join_layout);
    auto ldl = left_->Prepare();
    auto rdl = right_->Prepare();
    return [this, ldl, rdl](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      rdl([&](const Record<B>& rec) { mm_.Insert(b, keys_.Build(b, rec)); });
      const int nl = left_->schema().size();
      ldl([&](const Record<B>& lrec) {
        auto found = b.NewCell(typename B::Bool(false));
        if (node_->predicate != nullptr) merged_.SetFrom(0, lrec);
        mm_.Lookup(b, keys_.Probe(b, lrec), [&](const Record<B>& rrec) {
          if (node_->predicate != nullptr) {
            merged_.SetFrom(nl, rrec);
            b.If(this->EvalBool(pred_, merged_),
                 [&] { b.Set(found, typename B::Bool(true)); });
          } else {
            b.Set(found, typename B::Bool(true));
          }
        });
        typename B::Bool pass = anti_ ? !b.Get(found) : b.Get(found);
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
  JoinKeys<B> keys_;
  schema::Schema joint_;  // left ++ right, only with a predicate
  BoundExpr pred_;
  Record<B> merged_;
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
        left_(std::move(left)),
        right_(std::move(right)),
        build_bound_(build_bound),
        left_slots_(SlotsOf(left_->schema(), n.left_keys)),
        right_slots_(SlotsOf(right_->schema(), n.right_keys)),
        val_schema_{{n.count_name, schema::FieldKind::kInt64}} {
    this->schema_.Add({n.count_name, schema::FieldKind::kInt64});
    this->dicts_.push_back(nullptr);
    // Key schema: the right key fields; value: one i64 counter. A probe
    // key is a record of the same layout, filled from the left keys.
    for (int s : right_slots_) {
      key_schema_.Add(right_->schema().field(s));
      key_dicts_.push_back(right_->dicts()[static_cast<size_t>(s)]);
    }
    key_ = Record<B>(&key_schema_);
    init_ = Record<B>(&val_schema_);
    next_ = Record<B>(&val_schema_);
    out_ = Record<B>(&this->schema_);
  }

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    hm_.Init(b, key_schema_, key_dicts_, val_schema_, {nullptr}, build_bound_);
    init_.set(0, Value<B>::I64(typename B::I64(0)));
    auto ldl = left_->Prepare();
    auto rdl = right_->Prepare();
    return [this, ldl, rdl](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      rdl([&](const Record<B>& rrec) {
        for (size_t k = 0; k < right_slots_.size(); ++k) {
          key_.set(static_cast<int>(k), rrec.value(right_slots_[k]));
        }
        hm_.Update(b, key_, init_,
                   [&](const Record<B>& cur) -> const Record<B>& {
                     next_.set(0, Value<B>::I64(AsI64(b, cur.value(0)) +
                                                typename B::I64(1)));
                     return next_;
                   });
      });
      const int last = this->schema_.size() - 1;
      ldl([&](const Record<B>& lrec) {
        auto count = b.NewCell(typename B::I64(0));
        for (size_t k = 0; k < left_slots_.size(); ++k) {
          key_.set(static_cast<int>(k), lrec.value(left_slots_[k]));
        }
        hm_.Find(
            b, key_,
            [&](const Record<B>& vals) {
              b.Set(count, AsI64(b, vals.value(0)));
            },
            [] {});
        out_.SetFrom(0, lrec);
        out_.set(last, Value<B>::I64(b.Get(count)));
        cb(out_);
      });
    };
  }

 private:
  OpPtr<B> left_;
  OpPtr<B> right_;
  int64_t build_bound_;
  std::vector<int> left_slots_;
  std::vector<int> right_slots_;
  schema::Schema key_schema_;
  DictVec key_dicts_;
  schema::Schema val_schema_;
  Record<B> key_;
  Record<B> init_;
  Record<B> next_;
  Record<B> out_;
  LB2HashMap<B> hm_;
};

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

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

/// Aggregate inputs bound against the aggregation's input schema, in
/// `aggs` order; COUNT(*) has none (an empty BoundExpr).
inline std::vector<BoundExpr> BindAggInputs(
    const std::vector<plan::AggSpec>& aggs, const schema::Schema& input) {
  std::vector<BoundExpr> out(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind != plan::AggKind::kCountStar) {
      out[a] = BindExpr(aggs[a].expr, input);
    }
  }
  return out;
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
        spine_(spine),
        groups_(BindExprs(n.group_exprs, child_->schema())),
        inputs_(BindAggInputs(n.aggs, child_->schema())) {
    const int ng = static_cast<int>(n.group_exprs.size());
    for (int i = 0; i < ng; ++i) {
      key_schema_.Add(this->schema_.field(i));
      key_dicts_.push_back(this->dicts_[static_cast<size_t>(i)]);
    }
    for (int i = ng; i < this->schema_.size(); ++i) {
      val_schema_.Add(this->schema_.field(i));
      kinds_.push_back(this->schema_.field(i).kind);
    }
    key_ = Record<B>(&key_schema_);
    init_ = Record<B>(&val_schema_);
    next_ = Record<B>(&val_schema_);
    out_ = Record<B>(&this->schema_);
    row_vals_.resize(n.aggs.size());
  }

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    bool par = this->ctx_->IsPar(spine_);
    int lanes = par ? this->ctx_->num_threads : 1;
    hm_.Init(b, key_schema_, key_dicts_, val_schema_,
             DictVec(static_cast<size_t>(val_schema_.size()), nullptr),
             capacity_, lanes);
    // Per-aggregate constants, computed once: the init row, and the
    // (ignored) input of each COUNT(*).
    for (size_t a = 0; a < node_->aggs.size(); ++a) {
      init_.set(static_cast<int>(a),
                AggInitValue(b, node_->aggs[a], kinds_[a]));
      if (node_->aggs[a].kind == plan::AggKind::kCountStar) {
        row_vals_[a] = Value<B>::I64(typename B::I64(0));
      }
    }
    auto dl = child_->Prepare();
    return [this, dl, par](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      using I64 = typename B::I64;
      const int ng = key_schema_.size();
      const size_t na = node_->aggs.size();
      if constexpr (B::kIsStaged) {
        // Seed import for a compiled suffix run: fold the interpreted
        // prefix's partial groups into lane 0 before any morsel is claimed.
        // Emitted for every spine sink but bounded by SeedRows() — zero on
        // a fresh dispenser, so the normal path skips it at run time. Runs
        // before the parallel region (dl spawns it), so the lane-0 updates
        // are race-free, and first-sight merge-with-init equals the seed
        // value exactly for every AggKind.
        if (spine_) {
          const int stride = MorselSeedStride(key_schema_, key_dicts_,
                                              val_schema_);
          b.For(I64(0), b.SeedRows(), [&](I64 r) {
            int slot = 0;
            for (int i = 0; i < ng; ++i) {
              const rt::Dictionary* dict = key_dicts_[static_cast<size_t>(i)];
              using K = schema::FieldKind;
              switch (key_schema_.field(i).kind) {
                case K::kString:
                  if (dict != nullptr) {
                    key_.set(i, Value<B>::DictStr(
                                    b.SeedSlot(r, stride, slot++), dict));
                  } else {
                    auto p = b.BitsPtr(b.SeedSlot(r, stride, slot++));
                    auto n = b.CastI32(b.SeedSlot(r, stride, slot++));
                    key_.set(i, Value<B>::Str(typename B::Str{p, n}));
                  }
                  break;
                case K::kDouble:
                  key_.set(i, Value<B>::F64(
                                  b.BitsF64(b.SeedSlot(r, stride, slot++))));
                  break;
                default:
                  key_.set(i, Value<B>::I64(b.SeedSlot(r, stride, slot++)));
                  break;
              }
            }
            Record<B> seed(&val_schema_);
            for (size_t a = 0; a < na; ++a) {
              int i = static_cast<int>(a);
              if (kinds_[a] == schema::FieldKind::kDouble) {
                seed.set(i, Value<B>::F64(
                                b.BitsF64(b.SeedSlot(r, stride, slot++))));
              } else {
                seed.set(i, Value<B>::I64(b.SeedSlot(r, stride, slot++)));
              }
            }
            hm_.Update(b, I64(0), key_, init_,
                       [&](const Record<B>& cur) -> const Record<B>& {
                         return Merge(b, cur, seed);
                       });
          });
        }
      }
      dl([&](const Record<B>& rec) {
        for (int i = 0; i < ng; ++i) {
          key_.set(i, this->Eval(groups_[static_cast<size_t>(i)], rec));
        }
        // Evaluate agg inputs once per row, outside the probe loop.
        for (size_t a = 0; a < na; ++a) {
          if (node_->aggs[a].kind != plan::AggKind::kCountStar) {
            row_vals_[a] = this->Eval(inputs_[a], rec);
          }
        }
        I64 lane = par ? b.CurTid() : I64(0);
        hm_.Update(b, lane, key_, init_,
                   [&](const Record<B>& cur) -> const Record<B>& {
                     for (size_t a = 0; a < na; ++a) {
                       next_.set(static_cast<int>(a),
                                 AggStep(b, node_->aggs[a], kinds_[a],
                                         cur.value(static_cast<int>(a)),
                                         row_vals_[a]));
                     }
                     return next_;
                   });
      });
      if (par) {
        // Fold per-thread partial aggregates into lane 0 (paper §4.5).
        hm_.MergeLanes(
            b,
            [&](const Record<B>& cur, const Record<B>& other)
                -> const Record<B>& { return Merge(b, cur, other); },
            init_);
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
                const Value<B>& v = krec.value(i);
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
                const Value<B>& v = vrec.value(i);
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
      // Emit lane 0's groups in insertion order: key ++ aggregates.
      hm_.ForeachLane(b, I64(0),
                      [&](const Record<B>& k, const Record<B>& v) {
                        out_.SetFrom(0, k);
                        out_.SetFrom(ng, v);
                        cb(out_);
                      });
    };
  }

 private:
  /// next_ = the per-aggregate merge of two partial value rows.
  const Record<B>& Merge(B& b, const Record<B>& cur, const Record<B>& other) {
    for (size_t a = 0; a < node_->aggs.size(); ++a) {
      int i = static_cast<int>(a);
      next_.set(i, AggMerge(b, node_->aggs[a], kinds_[a], cur.value(i),
                            other.value(i)));
    }
    return next_;
  }

  const plan::PlanNode* node_;
  OpPtr<B> child_;
  int64_t capacity_;
  bool spine_;
  std::vector<BoundExpr> groups_;
  std::vector<BoundExpr> inputs_;  // per aggregate; empty for COUNT(*)
  schema::Schema key_schema_;
  schema::Schema val_schema_;
  DictVec key_dicts_;
  std::vector<schema::FieldKind> kinds_;  // per aggregate
  Record<B> key_;
  Record<B> init_;
  Record<B> next_;
  Record<B> out_;
  std::vector<Value<B>> row_vals_;  // per aggregate, refilled per row
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
        spine_(spine),
        inputs_(BindAggInputs(n.aggs, child_->schema())),
        out_(&this->schema_) {}

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
            row_val = this->Eval(inputs_[static_cast<size_t>(i)], rec);
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
      for (int i = 0; i < this->schema_.size(); ++i) {
        out_.set(i, LaneValue(b, i, typename B::I64(0)));
      }
      cb(out_);
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
  std::vector<BoundExpr> inputs_;  // per aggregate; empty for COUNT(*)
  Record<B> out_;
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
    row_ = Record<B>(&buf_.schema());
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
        buf_.Read(b, b.ArrGet(perm_, i), &row_);
        cb(row_);
      });
    };
  }

 private:
  const plan::PlanNode* node_;
  OpPtr<B> child_;
  int64_t bound_;
  ColumnarBuffer<B> buf_;
  Record<B> row_;
  typename B::template Arr<int64_t> perm_;
  typename B::template Cell<int64_t> count_;
};

}  // namespace lb2::engine

#endif  // LB2_ENGINE_OPS_H_
