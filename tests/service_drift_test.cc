// Database-identity drift tests: when data grows under a served plan, the
// fingerprint moves, the stale compiled entry is retired, clients are
// served interpreted (and correct — differentially checked against the
// Volcano oracle over the *new* data) while exactly one background JIT
// rebuilds the entry, after which serving returns to compiled execution.
//
// The tables here are int64/double only: string columns pin their arenas at
// Finalize() and cannot grow, which is fine — drift is about row counts and
// auxiliary structures, and numeric columns exercise both.
//
// These carry the ctest label `service`; the CI sanitizer flow runs them
// under ThreadSanitizer (`cmake -DLB2_SANITIZE=thread`, `ctest -L service`).
#include <gtest/gtest.h>

#include <ftw.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/database.h"
#include "service/service.h"
#include "sql/sql.h"
#include "tpch/answers.h"
#include "volcano/volcano.h"

namespace lb2::service {
namespace {

constexpr const char* kSql =
    "select count(*) as n, sum(v) as total from t where k < 25";

/// A small growable table: deterministic contents, no string columns.
std::unique_ptr<rt::Database> MakeDb(int rows) {
  auto db = std::make_unique<rt::Database>();
  rt::Table& t = db->AddTable(
      "t", schema::Schema{{"k", schema::FieldKind::kInt64},
                          {"v", schema::FieldKind::kDouble}});
  for (int i = 0; i < rows; ++i) {
    t.column("k").AppendInt64(i % 50);
    t.column("v").AppendDouble(static_cast<double>(i) * 0.5);
    t.RowAppended();
  }
  t.Finalize();
  return db;
}

void Grow(rt::Database* db, int start, int rows) {
  rt::Table& t = db->table("t");
  for (int i = start; i < start + rows; ++i) {
    t.column("k").AppendInt64(i % 50);
    t.column("v").AppendDouble(static_cast<double>(i) * 0.5);
    t.RowAppended();
  }
}

/// Disk tier off: drift behavior must be identical with or without it, and
/// off keeps these tests deterministic under CI's shared LB2_CACHE_DIR.
ServiceOptions NoDiskOpts() {
  ServiceOptions opts;
  opts.cache_dir = "";
  return opts;
}

TEST(ServiceDriftTest, GrowthServesInterpretedThenBackgroundRecompiles) {
  std::unique_ptr<rt::Database> db = MakeDb(1000);
  QueryService svc(*db, NoDiskOpts());
  plan::Query q = sql::ParseQuery(kSql, *db);

  ServiceResult before = svc.Execute(q);
  ASSERT_EQ(before.path, ServiceResult::Path::kCompiledCold);
  EXPECT_EQ(tpch::DiffResults(volcano::Execute(q, *db), before.text,
                              /*order_sensitive=*/true),
            "");

  Grow(db.get(), 1000, 500);
  const std::string want = volcano::Execute(q, *db);

  // Same plan, drifted data: the key moved, the request must not block on
  // a recompile and must answer over the NEW data.
  ServiceResult drifted = svc.Execute(q);
  EXPECT_EQ(drifted.path, ServiceResult::Path::kInterpreted);
  EXPECT_NE(drifted.fingerprint.hash, before.fingerprint.hash);
  EXPECT_EQ(drifted.fingerprint.shape, before.fingerprint.shape);
  EXPECT_EQ(tpch::DiffResults(want, drifted.text, /*order_sensitive=*/true),
            "");

  svc.DrainBackground();
  ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.drift_recompiles, 1);
  EXPECT_EQ(stats.compiles, 2);  // the cold build + the background rebuild
  EXPECT_GE(stats.interp_while_compiling, 1);
  // The stale entry was retired; only the rebuilt one remains.
  EXPECT_EQ(stats.cache_entries, 1);

  // The background JIT landed: serving is compiled again, still correct.
  ServiceResult after = svc.Execute(q);
  EXPECT_EQ(after.path, ServiceResult::Path::kCompiledCached);
  EXPECT_EQ(tpch::DiffResults(want, after.text, /*order_sensitive=*/true),
            "");
}

TEST(ServiceDriftTest, AuxStructureChangeAlsoDrifts) {
  // Drift is identity, not just row count: building an index shifts the db
  // component of the key and takes the same background path.
  std::unique_ptr<rt::Database> db = MakeDb(600);
  QueryService svc(*db, NoDiskOpts());
  plan::Query q = sql::ParseQuery(kSql, *db);
  ASSERT_EQ(svc.Execute(q).path, ServiceResult::Path::kCompiledCold);

  db->BuildFkIndex("t", "k");  // FK index: `k` has duplicates by design
  ServiceResult drifted = svc.Execute(q);
  EXPECT_EQ(drifted.path, ServiceResult::Path::kInterpreted);
  svc.DrainBackground();
  EXPECT_EQ(svc.Stats().drift_recompiles, 1);
  EXPECT_EQ(svc.Execute(q).path, ServiceResult::Path::kCompiledCached);
}

TEST(ServiceDriftTest, EightConcurrentDriftedRequestsSingleCompile) {
  std::unique_ptr<rt::Database> db = MakeDb(1000);
  QueryService svc(*db, NoDiskOpts());
  plan::Query q = sql::ParseQuery(kSql, *db);
  ASSERT_EQ(svc.Execute(q).path, ServiceResult::Path::kCompiledCold);

  Grow(db.get(), 1000, 500);
  const std::string want = volcano::Execute(q, *db);

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::atomic<int> blocked_on_cc{0};
  std::vector<ServiceResult> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        ServiceResult r = svc.Execute(q);
        results[static_cast<size_t>(i)] = r;
        if (tpch::DiffResults(want, r.text, /*order_sensitive=*/true) != "") {
          ++mismatches;
        }
        // No drifted request may pay the compiler: it is served interpreted
        // while the background worker rebuilds, or — if it arrives after
        // the rebuild landed — straight from the cache.
        if (r.path != ServiceResult::Path::kInterpreted &&
            r.path != ServiceResult::Path::kCompiledCached) {
          ++blocked_on_cc;
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(blocked_on_cc.load(), 0);

  svc.DrainBackground();
  ServiceStats stats = svc.Stats();
  // Single-flight held under concurrency: one background rebuild, total
  // two external compiles ever (cold + drift), no matter the interleaving.
  EXPECT_EQ(stats.drift_recompiles, 1);
  EXPECT_EQ(stats.compiles, 2);
  EXPECT_EQ(stats.compile_failures, 0);
  EXPECT_EQ(svc.Execute(q).path, ServiceResult::Path::kCompiledCached);
}

TEST(ServiceDriftTest, DriftRecompilePersistsNewArtifact) {
  // Drift + disk tier: the background rebuild writes the new key's
  // artifact, so a later process starts warm on the *drifted* database.
  char tmpl[] = "/tmp/lb2_drift_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  ServiceOptions opts;
  opts.cache_dir = dir;

  std::unique_ptr<rt::Database> db = MakeDb(1000);
  plan::Query q = sql::ParseQuery(kSql, *db);
  {
    QueryService svc(*db, opts);
    ASSERT_EQ(svc.Execute(q).path, ServiceResult::Path::kCompiledCold);
    Grow(db.get(), 1000, 500);
    ASSERT_EQ(svc.Execute(q).path, ServiceResult::Path::kInterpreted);
    svc.DrainBackground();
    ServiceStats stats = svc.Stats();
    EXPECT_EQ(stats.drift_recompiles, 1);
    EXPECT_EQ(stats.disk_writes, 2);  // old key's artifact + new key's
  }

  QueryService restarted(*db, opts);
  ServiceResult r = restarted.Execute(q);
  EXPECT_EQ(r.path, ServiceResult::Path::kCompiledDisk);
  EXPECT_EQ(tpch::DiffResults(volcano::Execute(q, *db), r.text,
                              /*order_sensitive=*/true),
            "");
  EXPECT_EQ(restarted.Stats().compiles, 0);

  nftw(
      dir,
      [](const char* p, const struct stat*, int, struct FTW*) {
        return ::remove(p);
      },
      16, FTW_DEPTH | FTW_PHYS);
}

}  // namespace
}  // namespace lb2::service
