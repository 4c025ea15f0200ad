// The spine (paper §4.5): the main pipeline of a query, from its root
// aggregation down the probe sides of joins to the source scan. Every scan
// on the spine claims morsels from the shared dispenser (engine/morsel.h),
// across a pthread parallel region when the query runs on more than one
// thread: stateless operators and read-only join probes run unchanged
// inside workers, and the sink aggregation keeps one hash-table lane per
// thread, merged after the region (see hashmap.h / ops.h). Build sides and
// scalar subqueries run sequentially before the spine starts.
//
// The spine is a path of *occurrences*, not a set of plan nodes: BuildOp
// carries an on-spine flag down from the root, to SpineChild only, so a
// subtree that a build side or a scalar subquery shares with the spine
// (TPC-H Q17 reuses one part ⋈ lineitem PlanRef on both sides of a join) is
// built there as a plain sequential loop and never touches the dispenser.
#ifndef LB2_ENGINE_PARALLEL_H_
#define LB2_ENGINE_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <limits>

#include "plan/plan.h"
#include "runtime/database.h"

namespace lb2::engine {

/// Index of the child of `p` that continues the spine when `p` is on it:
/// the probe side of a join (HashJoin builds on the left and probes the
/// right; semi/anti/left-count joins probe with the left), the input of
/// every other operator, -1 for a scan. The one place that knows which
/// side of a join carries the spine — HasSpine walks it and BuildOp passes
/// its on-spine flag down it.
inline int SpineChild(const plan::PlanNode& p) {
  switch (p.type) {
    case plan::OpType::kScan:
      return -1;
    case plan::OpType::kHashJoin:
      return 1;
    default:
      return 0;
  }
}

/// The base scan that sources `q`'s spine, or null when `q` has none. A
/// spine exists when the root, below any Sort/Limit/Project/Select tail
/// (which runs sequentially on collapsed data), is an aggregation whose
/// input reaches a base scan through Selects, Projects and joins along
/// SpineChild. Only such plans run morsel-driven — the aggregate is the
/// merge-safe sink an interpreted prefix's partial state folds into, which
/// is the precondition for a mid-query interpreted→compiled switch.
inline const plan::PlanNode* SpineScan(const plan::Query& q) {
  using plan::OpType;
  const plan::PlanNode* p = q.root.get();
  while (p->type == OpType::kSort || p->type == OpType::kLimit ||
         p->type == OpType::kProject || p->type == OpType::kSelect) {
    p = p->children[0].get();
  }
  if (p->type != OpType::kGroupAgg && p->type != OpType::kScalarAgg) {
    return nullptr;
  }
  for (p = p->children[0].get(); p->type != OpType::kScan;
       p = p->children[static_cast<size_t>(SpineChild(*p))].get()) {
    switch (p->type) {
      case OpType::kHashJoin:
      case OpType::kSelect:
      case OpType::kProject:
      case OpType::kSemiJoin:
      case OpType::kAntiJoin:
      case OpType::kLeftCountJoin:
        break;
      default:
        return nullptr;  // aggregates/sorts cannot source a morsel loop
    }
  }
  return p;
}

/// True when `q` has a spine (see SpineScan).
inline bool HasSpine(const plan::Query& q) { return SpineScan(q) != nullptr; }

/// Morsels per thread a parallel run aims for on a small spine: enough that
/// every lane has work even when one worker starts late, few enough that a
/// claim stays noise next to the rows it hands out.
inline constexpr int64_t kMorselsPerLane = 4;

/// Largest morsel size at which each of `threads` lanes still gets
/// kMorselsPerLane morsels of `q`'s spine table; INT64_MAX on one thread or
/// without a spine. A dispenser for a run of `q` takes the smaller of this
/// and its configured size, so a small spine spreads over every lane while
/// a large one keeps the configured size.
inline int64_t LaneMorselCap(const plan::Query& q, const rt::Database& db,
                             int threads) {
  const plan::PlanNode* scan = threads > 1 ? SpineScan(q) : nullptr;
  if (scan == nullptr) return std::numeric_limits<int64_t>::max();
  const int64_t rows = db.table(scan->table).num_rows();
  const int64_t morsels = kMorselsPerLane * threads;
  return std::max<int64_t>(1, (rows + morsels - 1) / morsels);
}

}  // namespace lb2::engine

#endif  // LB2_ENGINE_PARALLEL_H_
