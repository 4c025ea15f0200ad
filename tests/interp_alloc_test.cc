// Heap allocations of the data-centric interpreter per row. Records point
// at schemas their operators own, column references are bound to slots when
// the operator tree is built, and every per-row record lives in storage the
// operator sized up front — so a scan → filter → aggregate pipeline should
// allocate a fixed number of times per query, not per row.
//
// This binary replaces the global operator new/delete with counting
// versions, which is why it is its own test executable: the counting
// allocator stays out of every other suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "engine/exec.h"
#include "plan/plan.h"
#include "tpch/dbgen.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long long> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lb2 {
namespace {

using namespace lb2::plan;  // NOLINT: test readability

/// Q6's shape: scan lineitem, filter on date, discount and quantity, two
/// scalar sums.
Query Q6Shape() {
  PlanRef p = Filter(Scan("lineitem"),
                     And({Ge(Col("l_shipdate"), Dt("1994-01-01")),
                          Lt(Col("l_shipdate"), Dt("1995-01-01")),
                          Ge(Col("l_discount"), D(0.05)),
                          Le(Col("l_discount"), D(0.07)),
                          Lt(Col("l_quantity"), D(24.0))}));
  return {{},
          ScalarAggPlan(p, {Sum(Mul(Col("l_extendedprice"),
                                    Col("l_discount")),
                                "revenue"),
                            Sum(Col("l_quantity"), "qty")})};
}

/// Q1's shape: scan lineitem, filter on date, group by two string keys
/// with sums and a count, then sort.
Query Q1Shape() {
  PlanRef p = Filter(Scan("lineitem"), Le(Col("l_shipdate"), Dt("1998-09-02")));
  PlanRef g = GroupBy(
      p, {"l_returnflag", "l_linestatus"},
      {Col("l_returnflag"), Col("l_linestatus")},
      {Sum(Col("l_quantity"), "sum_qty"),
       Sum(Mul(Col("l_extendedprice"), Sub(D(1.0), Col("l_discount"))),
           "sum_disc_price"),
       CountStar("count_order")});
  return {{}, OrderBy(g, {{"l_returnflag", true}, {"l_linestatus", true}})};
}

struct Counted {
  long long allocs = 0;
  int64_t rows = 0;
};

/// Allocations made inside one ExecuteInterp call.
Counted CountAllocs(const Query& q, const rt::Database& db) {
  g_allocs.store(0);
  g_counting.store(true);
  engine::InterpResult r = engine::ExecuteInterp(q, db);
  g_counting.store(false);
  return {g_allocs.load(), r.rows};
}

class InterpAllocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    small_ = new rt::Database();
    large_ = new rt::Database();
    tpch::Generate(0.005, 7, small_);
    tpch::Generate(0.01, 7, large_);
  }
  static void TearDownTestSuite() {
    delete small_;
    delete large_;
  }

  /// The larger database reads ~30k more lineitem rows; a pipeline that
  /// allocates per row (or per qualifying row) shows up as thousands of
  /// extra allocations, a per-query one as none.
  static void ExpectNoPerRowAllocs(const Query& q) {
    Counted s = CountAllocs(q, *small_);
    Counted l = CountAllocs(q, *large_);
    int64_t extra_rows = large_->table("lineitem").num_rows() -
                         small_->table("lineitem").num_rows();
    ASSERT_GT(extra_rows, 20000);
    EXPECT_GT(s.rows, 0);
    EXPECT_GT(s.allocs, 0) << "the counting allocator saw nothing";
    EXPECT_LT(l.allocs - s.allocs, 100)
        << "SF 0.005: " << s.allocs << " allocations, SF 0.01: " << l.allocs
        << " allocations, over " << extra_rows << " more lineitem rows";
  }

  static rt::Database* small_;
  static rt::Database* large_;
};

rt::Database* InterpAllocTest::small_ = nullptr;
rt::Database* InterpAllocTest::large_ = nullptr;

TEST_F(InterpAllocTest, ScanFilterScalarSumsAllocateOncePerQuery) {
  ExpectNoPerRowAllocs(Q6Shape());
}

TEST_F(InterpAllocTest, ScanFilterGroupBySortAllocatesOncePerQuery) {
  ExpectNoPerRowAllocs(Q1Shape());
}

}  // namespace
}  // namespace lb2
