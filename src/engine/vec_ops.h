// The vectorized codegen flavor (ROADMAP item 2): batch-at-a-time
// scan/filter prefixes, written once against the Backend parameter like
// every other operator — a second *programming choice* in the staged
// interpreter, not an IR pass.
//
// Structure of the emitted (or interpreted) code:
//
//   for each batch of kVecBatch rows:
//     flags[i] = col[i] OP rhs          -- SIMD-friendly kernel, no branches
//     sel     <- compact(flags)          -- branch-free selection vector
//     sel     <- refine(sel, col2, ...)  -- later kernelizable conjuncts
//     for j in sel:                      -- blend boundary
//       rec = RecordAt(base + sel[j])    -- materialize the selected row
//       residual predicates, then cb(rec)
//
// The per-row callback at the end is exactly the data-centric contract, so
// everything downstream (joins, group-by, sort, output) is completely
// unchanged: the selection-vector batch loop *is* the blend boundary.
//
// What qualifies as a kernel conjunct is deliberately narrow — int64, date,
// or double column compared against a literal of the same family (or its
// parameter slot). Everything else (strings, dict codes, arithmetic, OR,
// mixed-type compares) stays a residual predicate evaluated through the
// ordinary expression interpreter on the selected rows, which keeps the
// flavor exactly as precise as the data-centric one.
#ifndef LB2_ENGINE_VEC_OPS_H_
#define LB2_ENGINE_VEC_OPS_H_

#include <string>
#include <vector>

#include "engine/ops.h"

namespace lb2::engine {

/// Rows per batch: large enough to amortize the per-batch record loop,
/// small enough that flags + selection vector stay L1-resident.
constexpr int64_t kVecBatch = 1024;

/// Flattens nested kAnd nodes into their conjunct leaves.
inline void SplitAnd(const plan::ExprRef& e, std::vector<plan::ExprRef>* out) {
  if (e->op == plan::ExprOp::kAnd) {
    SplitAnd(e->children[0], out);
    SplitAnd(e->children[1], out);
    return;
  }
  out->push_back(e);
}

/// A vectorizable scan/filter prefix: the terminal scan plus the predicate
/// conjuncts of every Select in the chain above it, split into kernel
/// conjuncts (batch comparison kernels) and residual conjuncts (row-at-a-
/// time evaluation on the selected rows).
struct VecSiteInfo {
  plan::PlanRef scan;
  std::vector<plan::ExprRef> kernel;
  std::vector<plan::ExprRef> residual;
};

/// True when the comparison `e` can run as a batch kernel over a raw column:
/// `col OP literal` with OP in {<, <=, >, >=, =, <>} and the column/literal
/// kinds matching one of the int64/date/double kernel families. Mixed-type
/// compares (e.g. int column vs double literal) promote through the
/// expression evaluator's rules, so they stay residual.
inline bool KernelizableConjunct(const plan::ExprRef& e,
                                 const schema::Schema& scan_schema) {
  using plan::ExprOp;
  switch (e->op) {
    case ExprOp::kLt: case ExprOp::kLe: case ExprOp::kGt:
    case ExprOp::kGe: case ExprOp::kEq: case ExprOp::kNe: break;
    default: return false;
  }
  const plan::ExprRef& lhs = e->children[0];
  const plan::ExprRef& rhs = e->children[1];
  if (lhs->op != ExprOp::kColRef) return false;
  int i = scan_schema.IndexOf(lhs->str);
  if (i < 0) return false;
  switch (scan_schema.field(i).kind) {
    case schema::FieldKind::kInt64:
      return rhs->op == ExprOp::kIntConst;
    case schema::FieldKind::kDate:
      return rhs->op == ExprOp::kDateConst || rhs->op == ExprOp::kIntConst;
    case schema::FieldKind::kDouble:
      return rhs->op == ExprOp::kDoubleConst;
    default:
      return false;
  }
}

/// Analyzes the Select chain rooted at `top` (which must be a kSelect). A
/// site exists when the chain bottoms out in a plain kScan (no date index —
/// that access path already prunes batches its own way) and at least one
/// conjunct is kernelizable. Flavor-independent, so site numbering is
/// identical across flavors and a blend mask bit always names the same site.
inline bool AnalyzeVecSite(const plan::PlanRef& top, const rt::Database& db,
                           VecSiteInfo* out) {
  std::vector<plan::ExprRef> conjuncts;
  plan::PlanRef cur = top;
  while (cur->type == plan::OpType::kSelect) {
    SplitAnd(cur->predicate, &conjuncts);
    cur = cur->children[0];
  }
  if (cur->type != plan::OpType::kScan || !cur->date_index_col.empty()) {
    return false;
  }
  schema::Schema scan_schema = plan::OutputSchema(cur, db);
  out->scan = cur;
  out->kernel.clear();
  out->residual.clear();
  for (const auto& c : conjuncts) {
    if (KernelizableConjunct(c, scan_schema)) {
      out->kernel.push_back(c);
    } else {
      out->residual.push_back(c);
    }
  }
  return !out->kernel.empty();
}

/// Fused scan+filter over batches of kVecBatch rows: flag kernels and
/// selection-vector compaction for the kernel conjuncts, then per-selected-
/// row materialization and residual evaluation feeding the ordinary
/// data-centric callback. Parallel scans give each worker a private
/// kVecBatch-sized slice of the shared flags/sel scratch (scratch lives in
/// lb2_exec_ctx under the staged backend, so lanes must not overlap).
template <typename B>
class VecScanFilterOp final : public Op<B> {
 public:
  VecScanFilterOp(QueryCtx<B>* ctx, schema::Schema schema, DictVec dicts,
                  VecSiteInfo site, bool spine)
      : Op<B>(ctx, std::move(schema), std::move(dicts)),
        site_(std::move(site)),
        scan_(site_.scan.get()),
        spine_(spine),
        residual_(BindExprs(site_.residual, this->schema_)) {}

  typename Op<B>::DataLoop Prepare() override {
    B& b = *this->ctx_->b;
    using I64 = typename B::I64;
    reader_.Bind(b, scan_->table, &this->schema_, this->dicts_);
    // Kernel columns are bound raw (never dict-coded: numeric kinds only).
    kacc_.clear();
    for (const auto& e : site_.kernel) {
      kacc_.push_back(b.Column(scan_->table, e->children[0]->str,
                               ColumnOptions{}));
    }
    bool par = this->ctx_->IsPar(spine_);
    int lanes = par ? this->ctx_->num_threads : 1;
    flags_ = b.template AllocArr<uint8_t>(I64(lanes * kVecBatch));
    sel_ = b.template AllocArr<int32_t>(I64(lanes * kVecBatch));
    return [this, par](const typename Op<B>::Callback& cb) {
      B& b = *this->ctx_->b;
      // Batch loop over [lo, hi); `off` is this lane's scratch offset.
      auto batch_range = [&](I64 lo, I64 hi, I64 off) {
        auto cur = b.NewCell(lo);
        b.While([&] { return b.Get(cur) < hi; }, [&] {
          I64 base = b.Get(cur);
          I64 rem = hi - base;
          I64 n = b.SelI64(rem < I64(kVecBatch), rem, I64(kVecBatch));
          EmitFlags(b, 0, base, n, off);
          auto cnt = b.NewCell(b.VecCompact(flags_, off, n, sel_));
          for (size_t k = 1; k < site_.kernel.size(); ++k) {
            b.Set(cnt, EmitRefine(b, k, base, off, b.Get(cnt)));
          }
          b.For(I64(0), b.Get(cnt), [&](I64 j) {
            I64 row = base + b.I32ToI64(b.ArrGet(sel_, off + j));
            const Record<B>& rec = reader_.RecordAt(b, row);
            if (residual_.empty()) {
              cb(rec);
            } else {
              // Non-short-circuit conjunction: expression evaluation has no
              // side effects or traps, and one branch per row beats one
              // branch per conjunct.
              typename B::Bool pass = this->EvalBool(residual_[0], rec);
              for (size_t r = 1; r < residual_.size(); ++r) {
                pass = pass && this->EvalBool(residual_[r], rec);
              }
              b.If(pass, [&] { cb(rec); });
            }
          });
          b.Set(cur, base + I64(kVecBatch));
        });
      };
      // Morsel bounds need not align to kVecBatch: batch_range clips the
      // final partial batch, and the scratch slice stays keyed by tid, not
      // morsel, so lanes never overlap.
      ScanLoop(
          this->ctx_, spine_,
          [&]() -> std::pair<I64, I64> {
            return {I64(0), b.TableRows(scan_->table)};
          },
          [&](I64 lo, I64 hi) {
            batch_range(lo, hi, par ? b.CurTid() * I64(kVecBatch) : I64(0));
          });
    };
  }

 private:
  using I64 = typename B::I64;

  /// RHS of kernel conjunct k: the literal, or its bound parameter slot.
  bool RhsIsF64(size_t k) const {
    return site_.kernel[k]->children[1]->op == plan::ExprOp::kDoubleConst;
  }
  typename B::I64 RhsI64(B& b, size_t k) const {
    const plan::ExprRef& r = site_.kernel[k]->children[1];
    return r->param_slot >= 0
               ? b.ParamI64(static_cast<int>(r->param_slot), r->i64)
               : I64(r->i64);
  }
  typename B::F64 RhsF64(B& b, size_t k) const {
    const plan::ExprRef& r = site_.kernel[k]->children[1];
    return r->param_slot >= 0
               ? b.ParamF64(static_cast<int>(r->param_slot), r->f64)
               : typename B::F64(r->f64);
  }

  void EmitFlags(B& b, size_t k, I64 base, I64 n, I64 off) {
    plan::ExprOp op = site_.kernel[k]->op;
    if (RhsIsF64(k)) {
      b.VecFlagsF64(kacc_[k], op, base, n, RhsF64(b, k), flags_, off);
    } else {
      b.VecFlagsI64(kacc_[k], op, base, n, RhsI64(b, k), flags_, off);
    }
  }
  I64 EmitRefine(B& b, size_t k, I64 base, I64 off, I64 cnt) {
    plan::ExprOp op = site_.kernel[k]->op;
    if (RhsIsF64(k)) {
      return b.VecRefineF64(kacc_[k], op, base, sel_, off, cnt, RhsF64(b, k));
    }
    return b.VecRefineI64(kacc_[k], op, base, sel_, off, cnt, RhsI64(b, k));
  }

  VecSiteInfo site_;
  const plan::PlanNode* scan_;
  bool spine_;
  std::vector<BoundExpr> residual_;  // site_.residual, bound to the scan
  TableReader<B> reader_;
  std::vector<typename B::ColAcc> kacc_;
  typename B::template Arr<uint8_t> flags_;
  typename B::template Arr<int32_t> sel_;
};

}  // namespace lb2::engine

#endif  // LB2_ENGINE_VEC_OPS_H_
