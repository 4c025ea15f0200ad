// Plan → operator tree construction and the query driver, shared by the
// interpreter (InterpBackend) and the compiler (StageBackend). The driver
// *is* the "staged interpreter" of Figure 2c: run it with real values and it
// evaluates the query; run it with symbolic values and it emits the query's
// C program.
#ifndef LB2_ENGINE_EXEC_H_
#define LB2_ENGINE_EXEC_H_

#include <string>

#include "engine/hoist.h"
#include "engine/index_ops.h"
#include "engine/ops.h"
#include "engine/parallel.h"
#include "engine/vec_ops.h"

namespace lb2::engine {

/// Knobs shared by the interpreted and compiled engines.
struct EngineOptions {
  /// Use dictionary codes for dictionary-encoded columns (requires the
  /// database to have been loaded with string_dicts).
  bool use_dict = false;
  /// Paper §4.4: allocate operator state before the timed region.
  bool hoist_alloc = true;
  /// Paper §4.1: materialize join build sides row-wise (default) or
  /// column-wise (ablation).
  bool row_layout_joins = true;
  /// Number of worker threads for parallel pipelines (compiled engine only;
  /// 1 = sequential code).
  int num_threads = 1;
  /// Per-operator row/ns counters (EXPLAIN ANALYZE). Under the staged
  /// backend the counters are emitted *into* the generated C as
  /// lb2_exec_ctx fields — same single generation pass, no IR. Forces
  /// sequential execution (the counters are not lane-aware). When false,
  /// the generated code is byte-identical to a build without profiling.
  bool profile = false;
  /// Codegen flavor (ROADMAP item 2): how scan/filter prefixes are emitted.
  /// kDataCentric = classic tuple-at-a-time pipelines; kVectorized = every
  /// eligible prefix runs as selection-vector batches (engine/vec_ops.h);
  /// kBlended = per-site choice via `blend` (bit i = vectorize site i).
  /// Everything downstream of a vectorized prefix stays data-centric —
  /// the selection-vector handoff is the blend boundary.
  Flavor flavor = Flavor::kDataCentric;
  uint64_t blend = 0;
};

template <typename B>
DictVec OutputDicts(QueryCtx<B>* ctx, const plan::PlanRef& p);

template <typename B>
OpPtr<B> BuildOp(QueryCtx<B>* ctx, const plan::PlanRef& p, bool spine);

/// Builds the operator tree for `p`. Honors JoinImpl flags (index joins).
/// `spine` marks this occurrence of `p` as part of the query's spine
/// (engine/parallel.h): it is passed on to SpineChild(*p) only — the input
/// of a unary operator, the probe side of a join, never a build side — so a
/// subtree shared between the two is built once per occurrence, each with
/// its own role.
template <typename B>
OpPtr<B> BuildOpNode(QueryCtx<B>* ctx, const plan::PlanRef& p, bool spine) {
  using plan::OpType;
  const rt::Database& db = *ctx->db;
  schema::Schema out = plan::OutputSchema(p, db);

  // Child i inherits the on-spine flag only if it is the SpineChild.
  auto child_op = [&](int i) {
    return BuildOp<B>(ctx, p->children[static_cast<size_t>(i)],
                      spine && i == SpineChild(*p));
  };

  switch (p->type) {
    case OpType::kScan: {
      const rt::Table& t = db.table(p->table);
      DictVec dicts;
      for (int i = 0; i < out.size(); ++i) {
        const rt::Column& c = t.column(i);
        dicts.push_back(ctx->copts.use_dict && c.has_dict() ? c.dict()
                                                            : nullptr);
      }
      return std::make_unique<ScanOp<B>>(ctx, *p, out, dicts, spine);
    }
    case OpType::kSelect: {
      // A Select atop a Select chain ending in a plain scan is a potential
      // blend site. The site is *counted* whenever it analyzes (numbering
      // must not depend on the flavor), then vectorized or not per flavor.
      bool interior = ctx->vec_suppress;
      ctx->vec_suppress = false;
      if (!interior) {
        VecSiteInfo site;
        if (AnalyzeVecSite(p, db, &site)) {
          int s = ctx->vec_sites++;
          bool vec = ctx->flavor == Flavor::kVectorized ||
                     (ctx->flavor == Flavor::kBlended &&
                      ((ctx->blend >> (s & 63)) & 1) != 0);
          if (vec) {
            const rt::Table& t = db.table(site.scan->table);
            schema::Schema sschema = plan::OutputSchema(site.scan, db);
            DictVec sdicts;
            for (int i = 0; i < sschema.size(); ++i) {
              const rt::Column& c = t.column(i);
              sdicts.push_back(ctx->copts.use_dict && c.has_dict() ? c.dict()
                                                                   : nullptr);
            }
            return std::make_unique<VecScanFilterOp<B>>(
                ctx, sschema, sdicts, std::move(site), spine);
          }
        }
      }
      // Data-centric fallback: interior Selects of this chain must not be
      // re-analyzed as fresh sites.
      if (p->children[0]->type == OpType::kSelect) ctx->vec_suppress = true;
      auto child = child_op(0);
      ctx->vec_suppress = false;
      return std::make_unique<SelectOp<B>>(ctx, *p, std::move(child));
    }
    case OpType::kProject: {
      auto child = child_op(0);
      DictVec dicts;
      for (const auto& e : p->exprs) {
        const rt::Dictionary* d = nullptr;
        if (e->op == plan::ExprOp::kColRef) {
          int i = child->schema().IndexOf(e->str);
          d = child->dicts()[static_cast<size_t>(i)];
        }
        dicts.push_back(d);
      }
      return std::make_unique<ProjectOp<B>>(ctx, *p, std::move(child), out,
                                            dicts);
    }
    case OpType::kHashJoin: {
      if (p->join_impl != plan::JoinImpl::kHash) {
        // Build side replaced by index probes into its base table.
        schema::Schema lschema = plan::OutputSchema(p->children[0], db);
        DictVec ldicts = OutputDicts<B>(ctx, p->children[0]);
        return std::make_unique<IndexJoinOp<B>>(
            ctx, *p, p->children[0], lschema, ldicts, child_op(1));
      }
      int64_t bound = plan::RowBound(p->children[0], db);
      return std::make_unique<HashJoinOp<B>>(ctx, *p, child_op(0),
                                             child_op(1), bound);
    }
    case OpType::kSemiJoin:
    case OpType::kAntiJoin: {
      if (p->join_impl != plan::JoinImpl::kHash) {
        schema::Schema rschema = plan::OutputSchema(p->children[1], db);
        return std::make_unique<IndexSemiAntiJoinOp<B>>(
            ctx, *p, child_op(0), p->children[1], rschema);
      }
      int64_t bound = plan::RowBound(p->children[1], db);
      return std::make_unique<SemiAntiJoinOp<B>>(ctx, *p, child_op(0),
                                                 child_op(1), bound);
    }
    case OpType::kLeftCountJoin: {
      int64_t bound = plan::RowBound(p->children[1], db);
      return std::make_unique<LeftCountJoinOp<B>>(ctx, *p, child_op(0),
                                                  child_op(1), bound);
    }
    case OpType::kGroupAgg: {
      auto child = child_op(0);
      DictVec dicts;
      for (size_t i = 0; i < p->group_exprs.size(); ++i) {
        const rt::Dictionary* d = nullptr;
        if (p->group_exprs[i]->op == plan::ExprOp::kColRef) {
          int ci = child->schema().IndexOf(p->group_exprs[i]->str);
          d = child->dicts()[static_cast<size_t>(ci)];
        }
        dicts.push_back(d);
      }
      for (size_t i = 0; i < p->aggs.size(); ++i) dicts.push_back(nullptr);
      int64_t capacity = plan::RowBound(p, db);
      return std::make_unique<GroupAggOp<B>>(ctx, *p, std::move(child), out,
                                             dicts, capacity, spine);
    }
    case OpType::kScalarAgg:
      return std::make_unique<ScalarAggOp<B>>(ctx, *p, child_op(0), out,
                                              spine);
    case OpType::kSort: {
      int64_t bound = plan::RowBound(p->children[0], db);
      return std::make_unique<SortOp<B>>(ctx, *p, child_op(0), bound);
    }
    case OpType::kLimit:
      return std::make_unique<LimitOp<B>>(ctx, *p, child_op(0));
  }
  LB2_CHECK(false);
  return nullptr;
}

/// Wraps an operator's data loop with profiling-slot updates: rows
/// produced and inclusive wall time. Written once against the backend, so
/// the interpreter counts natively and the staged backend emits the counter
/// updates into the generated C — profiling is a programming choice in the
/// interpreter, not an IR pass.
template <typename B>
class ProfiledOp final : public Op<B> {
 public:
  ProfiledOp(QueryCtx<B>* ctx, OpPtr<B> inner, int slot)
      : Op<B>(ctx, inner->schema(), inner->dicts()),
        inner_(std::move(inner)),
        slot_(slot) {}

  typename Op<B>::DataLoop Prepare() override {
    auto dl = inner_->Prepare();
    int slot = slot_;
    B* b = this->ctx_->b;
    return [b, dl, slot](const typename Op<B>::Callback& cb) {
      auto t0 = b->ProfNow();
      dl([&](const Record<B>& rec) {
        b->ProfRowOut(slot);
        cb(rec);
      });
      b->ProfAddNs(slot, b->ProfNow() - t0);
    };
  }

 private:
  OpPtr<B> inner_;
  int slot_;
};

/// BuildOpNode plus profiling: when the query context carries a profile
/// vector, every operator is registered (pre-order) and wrapped. The
/// recursion goes through here, so child operators are wrapped too.
template <typename B>
OpPtr<B> BuildOp(QueryCtx<B>* ctx, const plan::PlanRef& p, bool spine) {
  if (ctx->prof == nullptr) return BuildOpNode<B>(ctx, p, spine);
  int slot = static_cast<int>(ctx->prof->size());
  ctx->prof->push_back({ProfOpLabel(*p), ctx->prof_depth});
  ++ctx->prof_depth;
  OpPtr<B> op = BuildOpNode<B>(ctx, p, spine);
  --ctx->prof_depth;
  return std::make_unique<ProfiledOp<B>>(ctx, std::move(op), slot);
}

/// Output dictionary vector of a plan without building its operators (used
/// for index-join build sides, whose operator tree is never constructed).
template <typename B>
DictVec OutputDicts(QueryCtx<B>* ctx, const plan::PlanRef& p) {
  // Cheap route: build the op tree and read its dicts. Index-join build
  // sides are tiny chains, so this costs nothing at generation time.
  // Profiling is suspended: these throwaway trees never execute, and
  // phantom slots would pollute the rendered profile. Blend-site state is
  // saved for the same reason — a throwaway tree must not shift the site
  // numbering of operators that do execute.
  auto* saved = ctx->prof;
  int saved_sites = ctx->vec_sites;
  bool saved_suppress = ctx->vec_suppress;
  ctx->prof = nullptr;
  DictVec dicts = BuildOp<B>(ctx, p, /*spine=*/false)->dicts();
  ctx->prof = saved;
  ctx->vec_sites = saved_sites;
  ctx->vec_suppress = saved_suppress;
  return dicts;
}

/// Emits one result row in the canonical '|'-separated format.
template <typename B>
void PrintRecord(B& b, const Record<B>& rec) {
  for (int i = 0; i < rec.size(); ++i) {
    if (i > 0) b.EmitSep();
    const Value<B>& v = rec.value(i);
    using K = schema::FieldKind;
    switch (rec.schema().field(i).kind) {
      case K::kInt64: b.EmitI64(AsI64(b, v)); break;
      case K::kDouble: b.EmitF64(AsF64(b, v)); break;
      case K::kDate: b.EmitDate(AsI64(b, v)); break;
      case K::kString: b.EmitStr(AsRawStr(b, v)); break;
    }
  }
  b.EndRow();
}

/// Runs (or stages) a whole query: scalar subqueries first, then the main
/// pipeline, printing rows through the backend's output sink. Timer
/// placement implements the §4.4 code-motion experiment.
template <typename B>
void DriveQuery(B& b, QueryCtx<B>& qctx, const plan::Query& q,
                const EngineOptions& opts) {
  qctx.join_layout = opts.row_layout_joins ? BufferLayout::kRow
                                           : BufferLayout::kColumnar;
  qctx.flavor = opts.flavor;
  qctx.blend = opts.blend;
  qctx.num_threads = opts.num_threads;
  // The spine runs morsel-driven whatever the thread count, so one artifact
  // serves work-stealing runs and the sequential compiled suffix of a
  // mid-query switch alike. A profiled build has no spine: its counters are
  // plain `+=` updates that are not lane-aware (EngineOptions::profile).
  const bool spine = !opts.profile && HasSpine(q);
  if (!q.scalar_subqueries.empty()) {
    qctx.scalars.arr = b.template AllocArr<double>(
        typename B::I64(static_cast<int64_t>(q.scalar_subqueries.size())));
  }
  // Scalar subqueries are off the spine: plain sequential loops, even over
  // subtrees they share with it.
  for (size_t i = 0; i < q.scalar_subqueries.size(); ++i) {
    auto op = BuildOp<B>(&qctx, q.scalar_subqueries[i], /*spine=*/false);
    auto dl = op->Prepare();
    dl([&](const Record<B>& rec) {
      b.ArrSet(qctx.scalars.arr, typename B::I64(static_cast<int64_t>(i)),
               AsF64(b, rec.value(0)));
    });
  }
  auto root = BuildOp<B>(&qctx, q.root, spine);
  RunWithAllocationPolicy(
      b, opts.hoist_alloc, [&] { return root->Prepare(); },
      [&](const typename Op<B>::DataLoop& dl) {
        dl([&](const Record<B>& rec) { PrintRecord(b, rec); });
      });
}

/// Interpreted execution result.
struct InterpResult {
  std::string text;
  int64_t rows = 0;
  double exec_ms = 0.0;
  /// Filled when opts.profile: one ProfOpMeta per operator (pre-order) and
  /// the paired counters (rows, ns) — see engine/profile.h.
  std::vector<ProfOpMeta> prof_nodes;
  std::vector<int64_t> prof;
};

/// Runs `q` on the data-centric interpreter (the InterpBackend engine).
/// `params` optionally binds values for canonicalized constant leaves
/// (Expr::param_slot >= 0); when null, marked leaves fall back to their
/// original in-plan literals, so the same call serves both the plain path
/// and the parameterized-oracle path of the differential tests.
/// The spine always claims its row ranges from a dispenser: `morsels`, or
/// a fresh one of min(kDefaultMorselRows, LaneMorselCap) rows when null. A
/// caller-supplied dispenser must have morsel_rows > 0; if its stop_poll
/// fires, the run stops at a morsel boundary with partial aggregate state
/// exported into morsels->seed (see engine/morsel.h).
InterpResult ExecuteInterp(const plan::Query& q, const rt::Database& db,
                           const EngineOptions& opts = {},
                           const plan::ParamVec* params = nullptr,
                           MorselRun* morsels = nullptr);

/// Number of blend sites in `q` — vectorizable scan/filter prefixes, in the
/// deterministic pre-order numbering BuildOp uses. A blend mask for this
/// query is meaningful in its low CountVecSites bits; the flavor explorer
/// uses the count to enumerate candidate blends.
int CountVecSites(const plan::Query& q, const rt::Database& db,
                  const EngineOptions& opts = {});

}  // namespace lb2::engine

#endif  // LB2_ENGINE_EXEC_H_
