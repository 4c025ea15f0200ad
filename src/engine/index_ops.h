// Index-join operators (paper §4.3). In LB2, using an index is a *plan*
// decision (JoinImpl::kPkIndex / kFkIndex on the join node): the build-side
// pipeline — which must be a base-table access chain, optionally filtered
// and projected — is replaced by direct index probes into the base table,
// with the chain's predicates applied to each fetched row.
#ifndef LB2_ENGINE_INDEX_OPS_H_
#define LB2_ENGINE_INDEX_OPS_H_

#include "engine/ops.h"

namespace lb2::engine {

/// The build-side shape index joins accept: Project?(Select*(Scan)).
struct BaseChain {
  std::string table;
  std::vector<plan::ExprRef> preds;       // applied innermost-first
  const plan::PlanNode* project = nullptr;  // optional top projection
};

inline BaseChain ExtractBaseChain(const plan::PlanRef& p) {
  BaseChain chain;
  const plan::PlanNode* cur = p.get();
  if (cur->type == plan::OpType::kProject) {
    chain.project = cur;
    cur = cur->children[0].get();
  }
  while (cur->type == plan::OpType::kSelect) {
    chain.preds.push_back(cur->predicate);
    cur = cur->children[0].get();
  }
  LB2_CHECK_MSG(cur->type == plan::OpType::kScan,
                "index join build side must be Project?(Select*(Scan))");
  // A date-index annotation on the scan is irrelevant here: rows are
  // fetched through the join index, and the chain keeps its explicit date
  // predicates, so pruning by month bucket would be redundant.
  chain.table = cur->table;
  std::reverse(chain.preds.begin(), chain.preds.end());
  return chain;
}

/// Shared machinery: fetch base row `row`, run the chain's filters and
/// projection, and hand the shaped record to `sink`. The chain's
/// expressions are bound against the base table's schema when the join is
/// built.
template <typename B>
class BaseChainAccess {
 public:
  void Init(QueryCtx<B>* ctx, const plan::PlanRef& side,
            const schema::Schema& out_schema) {
    ctx_ = ctx;
    chain_ = ExtractBaseChain(side);
    out_schema_ = out_schema;
    const rt::Table& t = ctx->db->table(chain_.table);
    base_schema_ = t.schema();
    for (int i = 0; i < base_schema_.size(); ++i) {
      const rt::Column& c = t.column(i);
      base_dicts_.push_back(
          ctx->copts.use_dict && c.has_dict() ? c.dict() : nullptr);
    }
    preds_ = BindExprs(chain_.preds, base_schema_);
    if (chain_.project != nullptr) {
      project_ = BindExprs(chain_.project->exprs, base_schema_);
    }
    out_ = Record<B>(&out_schema_);
  }

  void Bind(B& b) {
    reader_.Bind(b, chain_.table, &base_schema_, base_dicts_);
  }

  const std::string& table() const { return chain_.table; }
  const schema::Schema& base_schema() const { return base_schema_; }

  /// Fetches row `row`, applies filters, projects, calls sink at most once.
  template <typename F>
  void Fetch(B& b, typename B::I64 row, F& sink) {
    ApplyPreds(b, reader_.RecordAt(b, row), 0, sink);
  }

 private:
  template <typename F>
  void ApplyPreds(B& b, const Record<B>& rec, size_t i, F& sink) {
    if (i == preds_.size()) {
      if (chain_.project != nullptr) {
        for (size_t e = 0; e < project_.size(); ++e) {
          out_.set(static_cast<int>(e),
                   EvalExpr(b, project_[e], rec, ctx_->scalars));
        }
        sink(out_);
      } else {
        sink(rec);
      }
      return;
    }
    typename B::Bool pass =
        AsBool(b, EvalExpr(b, preds_[i], rec, ctx_->scalars));
    b.If(pass, [&] { ApplyPreds(b, rec, i + 1, sink); });
  }

  QueryCtx<B>* ctx_ = nullptr;
  BaseChain chain_;
  schema::Schema out_schema_;
  schema::Schema base_schema_;
  DictVec base_dicts_;
  std::vector<BoundExpr> preds_;    // applied innermost-first
  std::vector<BoundExpr> project_;  // empty without a projection
  Record<B> out_;
  TableReader<B> reader_;
};

/// Inner join whose build (left) side is accessed through a PK/FK index.
template <typename B>
class IndexJoinOp final : public Op<B> {
 public:
  IndexJoinOp(QueryCtx<B>* ctx, const plan::PlanNode& n,
              const plan::PlanRef& left_plan, schema::Schema left_schema,
              DictVec left_dicts, OpPtr<B> right)
      : Op<B>(ctx, left_schema.Concat(right->schema()), DictVec{}),
        node_(&n),
        right_(std::move(right)),
        right_key_(SlotOf(right_->schema(), n.right_keys[0])),
        merged_(&this->schema_) {
    this->dicts_ = left_dicts;
    this->dicts_.insert(this->dicts_.end(), right_->dicts().begin(),
                        right_->dicts().end());
    LB2_CHECK_MSG(n.left_keys.size() == 1,
                  "index joins support single-column keys");
    access_.Init(ctx, left_plan, left_schema);
    LB2_CHECK_MSG(
        access_.base_schema().Has(n.left_keys[0]),
        "index join key must be an unrenamed base-table column");
    if (n.predicate != nullptr) pred_ = BindExpr(n.predicate, this->schema_);
  }

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    access_.Bind(b);
    bool pk = node_->join_impl == plan::JoinImpl::kPkIndex;
    if (pk) {
      pk_ = b.Pk(access_.table(), node_->left_keys[0]);
    } else {
      fk_ = b.Fk(access_.table(), node_->left_keys[0]);
    }
    auto rdl = right_->Prepare();
    return [this, rdl, pk](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      const int nl = this->schema_.size() - right_->schema().size();
      rdl([&](const Record<B>& rrec) {
        typename B::I64 key = AsI64(b, rrec.value(right_key_));
        merged_.SetFrom(nl, rrec);
        auto emit = [&](const Record<B>& lrec) {
          merged_.SetFrom(0, lrec);
          if (node_->predicate != nullptr) {
            b.If(this->EvalBool(pred_, merged_), [&] { cb(merged_); });
          } else {
            cb(merged_);
          }
        };
        if (pk) {
          typename B::I64 pos = b.PkLookup(pk_, key);
          b.If(pos >= typename B::I64(0),
               [&] { access_.Fetch(b, pos, emit); });
        } else {
          auto [lo, hi] = b.FkRange(fk_, key);
          b.For(lo, hi, [&](typename B::I64 j) {
            access_.Fetch(b, b.FkRow(fk_, j), emit);
          });
        }
      });
    };
  }

 private:
  const plan::PlanNode* node_;
  OpPtr<B> right_;
  int right_key_;
  BoundExpr pred_;  // over left ++ right
  Record<B> merged_;
  BaseChainAccess<B> access_;
  typename B::PkAcc pk_{};
  typename B::FkAcc fk_{};
};

/// Semi/anti join whose existence (right) side is accessed through an index.
template <typename B>
class IndexSemiAntiJoinOp final : public Op<B> {
 public:
  IndexSemiAntiJoinOp(QueryCtx<B>* ctx, const plan::PlanNode& n,
                      OpPtr<B> left, const plan::PlanRef& right_plan,
                      const schema::Schema& right_schema)
      : Op<B>(ctx, left->schema(), left->dicts()),
        node_(&n),
        anti_(n.type == plan::OpType::kAntiJoin),
        left_(std::move(left)),
        left_key_(SlotOf(left_->schema(), n.left_keys[0])) {
    LB2_CHECK_MSG(n.right_keys.size() == 1,
                  "index joins support single-column keys");
    access_.Init(ctx, right_plan, right_schema);
    LB2_CHECK_MSG(
        access_.base_schema().Has(n.right_keys[0]),
        "index join key must be an unrenamed base-table column");
    if (n.predicate != nullptr) {
      // The residual predicate sees left ++ right; without one the two
      // sides may share field names.
      joint_ = left_->schema().Concat(right_schema);
      pred_ = BindExpr(n.predicate, joint_);
      merged_ = Record<B>(&joint_);
    }
  }

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    access_.Bind(b);
    bool pk = node_->join_impl == plan::JoinImpl::kPkIndex;
    if (pk) {
      pk_ = b.Pk(access_.table(), node_->right_keys[0]);
    } else {
      fk_ = b.Fk(access_.table(), node_->right_keys[0]);
    }
    auto ldl = left_->Prepare();
    return [this, ldl, pk](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      const int nl = this->schema_.size();
      ldl([&](const Record<B>& lrec) {
        typename B::I64 key = AsI64(b, lrec.value(left_key_));
        auto found = b.NewCell(typename B::Bool(false));
        if (node_->predicate != nullptr) merged_.SetFrom(0, lrec);
        auto test = [&](const Record<B>& rrec) {
          if (node_->predicate != nullptr) {
            merged_.SetFrom(nl, rrec);
            b.If(this->EvalBool(pred_, merged_),
                 [&] { b.Set(found, typename B::Bool(true)); });
          } else {
            b.Set(found, typename B::Bool(true));
          }
        };
        if (pk) {
          typename B::I64 pos = b.PkLookup(pk_, key);
          b.If(pos >= typename B::I64(0),
               [&] { access_.Fetch(b, pos, test); });
        } else {
          auto [lo, hi] = b.FkRange(fk_, key);
          b.For(lo, hi, [&](typename B::I64 j) {
            access_.Fetch(b, b.FkRow(fk_, j), test);
          });
        }
        typename B::Bool pass = anti_ ? !b.Get(found) : b.Get(found);
        b.If(pass, [&] { cb(lrec); });
      });
    };
  }

 private:
  const plan::PlanNode* node_;
  bool anti_;
  OpPtr<B> left_;
  int left_key_;
  schema::Schema joint_;  // left ++ right, only with a predicate
  BoundExpr pred_;
  Record<B> merged_;
  BaseChainAccess<B> access_;
  typename B::PkAcc pk_{};
  typename B::FkAcc fk_{};
};

}  // namespace lb2::engine

#endif  // LB2_ENGINE_INDEX_OPS_H_
