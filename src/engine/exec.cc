#include "engine/exec.h"

#include <algorithm>

#include "engine/interp_backend.h"
#include "plan/validate.h"

namespace lb2::engine {

InterpResult ExecuteInterp(const plan::Query& q, const rt::Database& db,
                           const EngineOptions& opts,
                           const plan::ParamVec* params, MorselRun* morsels) {
  plan::ValidateQuery(q, db);
  MorselRun fresh(std::min(kDefaultMorselRows,
                           LaneMorselCap(q, db, opts.num_threads)));
  if (morsels == nullptr) morsels = &fresh;
  LB2_CHECK_MSG(morsels->source.morsel_rows > 0,
                "morsel dispenser needs morsel_rows > 0");
  InterpBackend b(&db);
  b.set_params(params);
  b.set_morsels(morsels);
  QueryCtx<InterpBackend> qctx;
  qctx.b = &b;
  qctx.db = &db;
  qctx.copts.use_dict = opts.use_dict;
  InterpResult r;
  if (opts.profile) qctx.prof = &r.prof_nodes;
  DriveQuery(b, qctx, q, opts);
  r.text = b.output();
  r.rows = b.rows();
  r.exec_ms = b.exec_ms();
  if (opts.profile) r.prof = b.prof_counters();
  return r;
}

int CountVecSites(const plan::Query& q, const rt::Database& db,
                  const EngineOptions& opts) {
  plan::ValidateQuery(q, db);
  InterpBackend b(&db);
  QueryCtx<InterpBackend> qctx;
  qctx.b = &b;
  qctx.db = &db;
  qctx.copts.use_dict = opts.use_dict;
  // Counting pass: build (never prepare or run) every operator tree with
  // the data-centric flavor, which numbers all sites without fusing any.
  qctx.flavor = Flavor::kDataCentric;
  for (const auto& sub : q.scalar_subqueries) {
    (void)BuildOp(&qctx, sub, /*spine=*/false);
  }
  (void)BuildOp(&qctx, q.root, /*spine=*/false);
  return qctx.vec_sites;
}

}  // namespace lb2::engine
