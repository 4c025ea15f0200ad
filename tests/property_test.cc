// Property-based tests:
//
//  * Randomized differential fuzzing: seeded random plans (filters,
//    projections, group-bys, joins with random keys) over the TPC-H tables
//    must produce identical results on the Volcano oracle, the data-centric
//    interpreter, and the LB2 compiler.
//  * LB2HashMap against a std::unordered_map model under random
//    insert/update streams (including multi-lane merge).
//  * Staged sort against std::sort on random key configurations.
//  * Engine-matrix fuzzing: plans with dictionary-coded string equality
//    predicates and OrderBy/Limit tails, each executed under
//    use_dict ∈ {off, on} × num_threads ∈ {1, 4}, must agree with the
//    Volcano oracle row-for-row.
//  * DAG fuzzing: plans that reuse one generated subtree in two places —
//    both sides of a join (TPC-H Q17's Join(GroupBy(shared), shared)) and
//    inside a scalar subquery — must agree across engines at 1 and 4
//    threads, and across an interpreted→compiled handoff on one dispenser.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <unordered_map>

#include "compile/lb2_compiler.h"
#include "engine/exec.h"
#include "engine/interp_backend.h"
#include "engine/morsel.h"
#include "plan/plan.h"
#include "service/fingerprint.h"
#include "tpch/answers.h"
#include "tpch/dbgen.h"
#include "volcano/volcano.h"

namespace lb2 {
namespace {

using namespace lb2::plan;  // NOLINT

/// Rounds per parameterized seed. gtest enumerates the seed range at build
/// time, so CI's extended fuzz mode (CI_FUZZ_SEEDS=<total seed-rounds>)
/// scales the per-seed round count at runtime instead of the range.
int FuzzRounds(int base, int suite_seeds) {
  const char* env = std::getenv("CI_FUZZ_SEEDS");
  if (env == nullptr) return base;
  int total = std::atoi(env);
  int rounds = total / suite_seeds;
  return rounds > base ? rounds : base;
}

/// Every fuzz failure must carry enough to replay it standalone: the gtest
/// seed parameter, the round, and the generated plan itself. A failure
/// printed under CI_FUZZ_SEEDS=64 reproduces with CI_FUZZ_SEEDS=1 by
/// running the printed seed's test until the printed round (rounds draw
/// from one rng stream, so earlier rounds must still execute).
std::string FuzzShape(const Query& q, int seed, int round) {
  std::string out =
      "\nseed " + std::to_string(seed) + " round " + std::to_string(round) +
      "\nshape:\n" + plan::PlanToString(q.root);
  for (size_t i = 0; i < q.scalar_subqueries.size(); ++i) {
    out += "scalar subquery " + std::to_string(i) + ":\n" +
           plan::PlanToString(q.scalar_subqueries[i]);
  }
  return out;
}

class PropertyTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    db_ = new rt::Database();
    tpch::Generate(0.002, 777, db_);
  }
  static void TearDownTestSuite() { delete db_; }
  static rt::Database* db_;
};

rt::Database* PropertyTest::db_ = nullptr;

// ---------------------------------------------------------------------------
// Random plan generator
// ---------------------------------------------------------------------------

struct RandomPlanner {
  std::mt19937 rng;
  explicit RandomPlanner(int seed) : rng(static_cast<unsigned>(seed)) {}

  int Pick(int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); }

  /// Random predicate over `s` (numeric and date columns only; always
  /// satisfiable by construction).
  ExprRef RandomPred(const schema::Schema& s) {
    std::vector<int> numeric;
    for (int i = 0; i < s.size(); ++i) {
      if (s.field(i).kind != schema::FieldKind::kString) numeric.push_back(i);
    }
    if (numeric.empty()) return B(true);
    const auto& f = s.field(numeric[static_cast<size_t>(
        Pick(static_cast<int>(numeric.size())))]);
    ExprRef col = Col(f.name);
    switch (f.kind) {
      case schema::FieldKind::kDate: {
        int year = 1992 + Pick(7);
        return Pick(2) ? Ge(col, DtRaw(year * 10000 + 101))
                       : Lt(col, DtRaw(year * 10000 + 701));
      }
      case schema::FieldKind::kDouble: {
        double thr = (Pick(100) + 1) * 37.5;
        return Pick(2) ? Gt(col, D(thr)) : Le(col, D(thr));
      }
      default: {
        int64_t thr = Pick(50) + 1;
        switch (Pick(3)) {
          case 0: return Gt(col, I(thr));
          case 1: return Le(col, I(thr * 40));
          default: return Ne(col, I(thr));
        }
      }
    }
  }

  /// Random single-table pipeline: Scan + 0..2 filters + optional project.
  PlanRef RandomPipeline(const rt::Database& db, const std::string& table) {
    PlanRef p = Scan(table);
    schema::Schema s = db.table(table).schema();
    int filters = Pick(3);
    for (int i = 0; i < filters; ++i) p = Filter(p, RandomPred(s));
    if (Pick(2)) {
      // Keep a random non-empty subset of columns (plus arithmetic).
      std::vector<std::string> names;
      std::vector<ExprRef> exprs;
      for (int i = 0; i < s.size(); ++i) {
        if (Pick(2) || (i == s.size() - 1 && names.empty())) {
          names.push_back(s.field(i).name);
          exprs.push_back(Col(s.field(i).name));
        }
      }
      // One derived column when a numeric source exists.
      for (int i = 0; i < s.size(); ++i) {
        if (s.field(i).kind == schema::FieldKind::kDouble) {
          names.push_back("derived");
          exprs.push_back(Mul(Col(s.field(i).name), D(1.5)));
          break;
        }
      }
      p = Project(p, names, exprs);
    }
    return p;
  }

  /// Random aggregate over a pipeline.
  Query RandomAggQuery(const rt::Database& db) {
    const char* tables[] = {"lineitem", "orders", "customer", "part",
                            "partsupp", "supplier"};
    std::string table = tables[Pick(6)];
    PlanRef p = RandomPipeline(db, table);
    schema::Schema s = OutputSchema(p, db);
    // Pick a group key (any kind) and numeric agg inputs.
    int key = Pick(s.size());
    std::vector<AggSpec> aggs = {CountStar("cnt")};
    for (int i = 0; i < s.size(); ++i) {
      if (s.field(i).kind == schema::FieldKind::kDouble && Pick(2)) {
        aggs.push_back(Sum(Col(s.field(i).name), "s_" + s.field(i).name));
      }
      if (s.field(i).kind == schema::FieldKind::kInt64 && Pick(3) == 0) {
        aggs.push_back(Min(Col(s.field(i).name), "mn_" + s.field(i).name));
        aggs.push_back(Max(Col(s.field(i).name), "mx_" + s.field(i).name));
      }
    }
    PlanRef g = GroupBy(p, {"k"}, {Col(s.field(key).name)}, aggs);
    return {{}, g};
  }

  /// Random plan that reuses ONE generated PlanRef in two places, the
  /// shapes real queries use: shape 0 joins a per-key aggregate of the
  /// shared subtree back to it (Q17's Join(GroupBy(shared), shared)),
  /// shape 1 filters the shared subtree against a scalar subquery over it
  /// (Q11/Q15/Q22), shape 2 does both. The shared subtree is a filtered
  /// scan, or for lineitem sometimes itself a join (Q17's part ⋈ lineitem).
  Query RandomDagQuery(const rt::Database& db) {
    struct Source {
      const char* table;
      const char* key;  // int64 join/group key
      const char* val;  // double measure
    };
    static constexpr Source kSources[] = {
        {"lineitem", "l_partkey", "l_quantity"},
        {"orders", "o_custkey", "o_totalprice"},
        {"partsupp", "ps_partkey", "ps_supplycost"},
        {"customer", "c_nationkey", "c_acctbal"}};
    const Source& src = kSources[Pick(4)];
    PlanRef shared = Scan(src.table);
    schema::Schema s = db.table(src.table).schema();
    for (int i = Pick(3); i > 0; --i) shared = Filter(shared, RandomPred(s));
    if (std::string(src.table) == "lineitem" && Pick(2)) {
      PlanRef part =
          Filter(Scan("part"), RandomPred(tpch::TableSchema("part")));
      shared = Join(part, shared, {"p_partkey"}, {"l_partkey"});
    }
    const int shape = Pick(3);
    Query q;
    PlanRef main = shared;
    if (shape != 0) {
      // Keep rows above half the shared maximum.
      q.scalar_subqueries.push_back(
          ScalarAggPlan(shared, {Max(Col(src.val), "mx")}));
      main = Filter(main, Gt(Mul(Col(src.val), D(2.0)), ScalarRef(0)));
    }
    if (shape != 1) {
      PlanRef per_key = GroupBy(shared, {"g_key"}, {Col(src.key)},
                                {Sum(Col(src.val), "g_sum"),
                                 CountStar("g_cnt")});
      // Optionally Q17's residual: keep rows below their key's average.
      ExprRef residual =
          Pick(2) ? Lt(Mul(Col(src.val), Col("g_cnt")), Col("g_sum"))
                  : nullptr;
      main = Join(per_key, main, {"g_key"}, {src.key}, residual);
    }
    std::vector<AggSpec> aggs = {CountStar("n"), Sum(Col(src.val), "s")};
    q.root = Pick(2) ? ScalarAggPlan(main, aggs)
                     : GroupBy(main, {"k"}, {Col(src.key)}, aggs);
    return q;
  }
};

TEST_P(PropertyTest, RandomAggregatePlansAgreeAcrossEngines) {
  RandomPlanner planner(GetParam() * 1009 + 7);
  for (int round = 0; round < 3; ++round) {
    Query q = planner.RandomAggQuery(*db_);
    std::string oracle = volcano::Execute(q, *db_);
    auto interp = engine::ExecuteInterp(q, *db_);
    ASSERT_EQ(tpch::DiffResults(oracle, interp.text, false), "")
        << "interp" << FuzzShape(q, GetParam(), round);
    auto cq = compile::CompileQuery(
        q, *db_, {}, "prop" + std::to_string(GetParam()));
    ASSERT_EQ(tpch::DiffResults(oracle, cq.Run().text, false), "")
        << "compiled" << FuzzShape(q, GetParam(), round);
  }
}

TEST_P(PropertyTest, RandomJoinPlansAgreeAcrossEngines) {
  RandomPlanner planner(GetParam() * 31 + 5);
  // Join partsupp against part/supplier on their FK with random filters.
  bool to_part = planner.Pick(2) == 1;
  PlanRef build = planner.RandomPipeline(
      *db_, to_part ? "part" : "supplier");
  schema::Schema bs = OutputSchema(build, *db_);
  std::string bkey = to_part ? "p_partkey" : "s_suppkey";
  if (!bs.Has(bkey)) GTEST_SKIP() << "projection dropped the key";
  PlanRef probe = Filter(Scan("partsupp"),
                         planner.RandomPred(tpch::TableSchema("partsupp")));
  Query q{{}, ScalarAggPlan(
                  Join(build, probe, {bkey},
                       {to_part ? "ps_partkey" : "ps_suppkey"}),
                  {CountStar("n"), Sum(Col("ps_supplycost"), "sc")})};
  std::string oracle = volcano::Execute(q, *db_);
  auto interp = engine::ExecuteInterp(q, *db_);
  EXPECT_EQ(tpch::DiffResults(oracle, interp.text, false), "")
      << "interp" << FuzzShape(q, GetParam(), 0);
  auto cq = compile::CompileQuery(q, *db_, {},
                                  "propj" + std::to_string(GetParam()));
  EXPECT_EQ(tpch::DiffResults(oracle, cq.Run().text, false), "")
      << "compiled" << FuzzShape(q, GetParam(), 0);
}

TEST_P(PropertyTest, SharedSubtreePlansAgreeAcrossEngines) {
  RandomPlanner planner(GetParam() * 4099 + 13);
  int rounds = FuzzRounds(2, 12);
  for (int round = 0; round < rounds; ++round) {
    Query q = planner.RandomDagQuery(*db_);
    std::string oracle = volcano::Execute(q, *db_);
    for (int threads : {1, 4}) {
      engine::EngineOptions opts;
      opts.num_threads = threads;
      auto interp = engine::ExecuteInterp(q, *db_, opts);
      ASSERT_EQ(tpch::DiffResults(oracle, interp.text, false), "")
          << "interp threads " << threads << FuzzShape(q, GetParam(), round);
      auto cq = compile::CompileQuery(
          q, *db_, opts,
          "propdag" + std::to_string(GetParam()) + "_" +
              std::to_string(round) + "_t" + std::to_string(threads));
      ASSERT_EQ(tpch::DiffResults(oracle, cq.Run().text, false), "")
          << "compiled threads " << threads
          << FuzzShape(q, GetParam(), round);
      // A handoff on one dispenser: an interpreted prefix stops at a
      // random morsel boundary and the compiled build finishes the rest.
      // Only the spine may claim morsels — a shared subtree built on a
      // build side or in a scalar subquery would drain them.
      const int64_t stop_at = planner.Pick(8);
      engine::MorselRun run(1024);
      run.stop_poll = [&run, stop_at] { return run.claimed >= stop_at; };
      engine::EngineOptions iopts;
      auto prefix = engine::ExecuteInterp(q, *db_, iopts, nullptr, &run);
      std::string text = prefix.text;
      if (run.stopped) {
        run.SealSeed();
        text = cq.Run(nullptr, &run.source).text;
      }
      ASSERT_EQ(tpch::DiffResults(oracle, text, false), "")
          << "handoff at morsel " << stop_at << " (stopped=" << run.stopped
          << ") threads " << threads << FuzzShape(q, GetParam(), round);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Engine-matrix fuzzing: dictionary predicates + Sort/Limit, all engines,
// dict on/off, 1 and 4 threads
// ---------------------------------------------------------------------------

class FuzzMatrixTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    db_ = new rt::Database();
    tpch::Generate(0.002, 1234, db_);
    // String dictionaries are what use_dict=on actually exercises; without
    // them the option is a no-op and the matrix would test nothing.
    tpch::LoadOptions lo;
    lo.string_dicts = true;
    tpch::BuildAuxStructures(lo, db_);
  }
  static void TearDownTestSuite() { delete db_; }
  static rt::Database* db_;
};

rt::Database* FuzzMatrixTest::db_ = nullptr;

/// Random query stressing the matrix dimensions: a string-equality filter
/// whose literal is sampled from the table (so dictionary-coded evaluation
/// has real work and real matches), a random numeric filter, a group-by,
/// and an OrderBy/Limit tail. Sorting on the unique group key gives a total
/// order, so results compare order-sensitively across every engine.
Query RandomDictSortQuery(RandomPlanner& planner, const rt::Database& db) {
  const char* tables[] = {"lineitem", "orders", "customer", "part",
                          "supplier"};
  std::string table = tables[planner.Pick(5)];
  const rt::Table& t = db.table(table);
  schema::Schema s = t.schema();

  std::vector<int> strs;
  for (int i = 0; i < s.size(); ++i) {
    if (s.field(i).kind == schema::FieldKind::kString) strs.push_back(i);
  }
  const auto& sf = s.field(strs[static_cast<size_t>(
      planner.Pick(static_cast<int>(strs.size())))]);
  int64_t row = planner.Pick(static_cast<int>(t.num_rows()));
  std::string literal(t.column(sf.name).StringAt(row));

  PlanRef p = Filter(Scan(table), Eq(Col(sf.name), S(literal)));
  if (planner.Pick(2)) p = Filter(p, planner.RandomPred(s));

  schema::Schema os = OutputSchema(p, db);
  int key = planner.Pick(os.size());
  std::vector<AggSpec> aggs = {CountStar("cnt")};
  for (int i = 0; i < os.size(); ++i) {
    if (os.field(i).kind == schema::FieldKind::kDouble && planner.Pick(2)) {
      aggs.push_back(Sum(Col(os.field(i).name), "s_" + os.field(i).name));
    }
  }
  PlanRef g = GroupBy(p, {"k"}, {Col(os.field(key).name)}, aggs);
  return {{}, Limit(OrderBy(g, {{"k", planner.Pick(2) == 0}}), 16)};
}

TEST_P(FuzzMatrixTest, DictAndSortPlansAgreeAcrossEngineMatrix) {
  RandomPlanner planner(GetParam() * 7919 + 11);
  int rounds = FuzzRounds(1, 8);
  for (int round = 0; round < rounds; ++round) {
    Query q = RandomDictSortQuery(planner, *db_);
    std::string oracle = volcano::Execute(q, *db_);
    // The codegen-flavor dimension: the same plan through the data-centric,
    // fully-vectorized, and randomly-blended emitters. Plans whose filters
    // are string-only have no vectorizable site and exercise the fallback.
    const uint64_t mask = static_cast<uint64_t>(planner.Pick(15)) + 1;
    const struct {
      engine::Flavor flavor;
      uint64_t blend;
      const char* tag;
    } flavors[] = {
        {engine::Flavor::kDataCentric, 0, "dc"},
        {engine::Flavor::kVectorized, 0, "v"},
        {engine::Flavor::kBlended, mask, "b"},
    };
    for (bool dict : {false, true}) {
      for (const auto& fl : flavors) {
        engine::EngineOptions iopts;
        iopts.use_dict = dict;
        iopts.flavor = fl.flavor;
        iopts.blend = fl.blend;
        auto interp = engine::ExecuteInterp(q, *db_, iopts);
        ASSERT_EQ(tpch::DiffResults(oracle, interp.text, true), "")
            << "interp dict " << dict << " flavor " << fl.tag << " blend "
            << fl.blend << FuzzShape(q, GetParam(), round);
        for (int threads : {1, 4}) {
          engine::EngineOptions copts = iopts;
          copts.num_threads = threads;
          auto cq = compile::CompileQuery(
              q, *db_, copts,
              "fuzzm" + std::to_string(GetParam()) + "_" +
                  std::to_string(round) + (dict ? "_d" : "_n") +
                  std::to_string(threads) + fl.tag);
          ASSERT_EQ(tpch::DiffResults(oracle, cq.Run().text, true), "")
              << "compiled dict " << dict << " threads " << threads
              << " flavor " << fl.tag << " blend " << fl.blend
              << FuzzShape(q, GetParam(), round);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMatrixTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Parameterized-plan differential fuzzing: ONE compiled artifact per query
// shape, randomized literals bound at Run(), checked against the
// interpreter (also running the canonical plan with bound params) and the
// Volcano oracle (running the original literal-inlined query). Covers int,
// double, date, and string parameters at 1 and 4 threads.
// ---------------------------------------------------------------------------

class ParamFuzzTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    db_ = new rt::Database();
    tpch::Generate(0.002, 24601, db_);
  }
  static void TearDownTestSuite() { delete db_; }
  static rt::Database* db_;
};

rt::Database* ParamFuzzTest::db_ = nullptr;

/// The fuzz family: one shape over lineitem carrying a date, two doubles,
/// and a string literal. Every member canonicalizes to the same
/// parameterized plan — the test compiles that plan once and rebinds it.
Query ParamTemplateQuery(int64_t date_lo, double qty, double disc,
                         const std::string& mode) {
  PlanRef p = Filter(Scan("lineitem"),
                     And({Ge(Col("l_shipdate"), DtRaw(date_lo)),
                          Lt(Col("l_quantity"), D(qty)),
                          Lt(Col("l_discount"), D(disc)),
                          Eq(Col("l_shipmode"), S(mode))}));
  return {{}, ScalarAggPlan(
                  p, {CountStar("n"), Sum(Col("l_extendedprice"), "rev")})};
}

TEST_P(ParamFuzzTest, RandomLiteralsBindCorrectlyOnOneArtifact) {
  RandomPlanner planner(GetParam() * 6271 + 3);
  const char* modes[] = {"AIR",  "TRUCK", "MAIL",   "SHIP",
                         "RAIL", "FOB",   "REG AIR"};
  int rounds = FuzzRounds(2, 8);
  for (int threads : {1, 4}) {
    engine::EngineOptions copts;
    copts.num_threads = threads;
    // One compile per thread configuration; every fuzz round rebinds it.
    service::ParameterizedQuery canon = service::ParameterizeQuery(
        ParamTemplateQuery(19940101, 25.0, 0.05, "AIR"),
        /*dict_sensitive=*/false);
    ASSERT_EQ(canon.params.size(), 4u);
    std::string canon_source =
        compile::StageQuery(canon.query, *db_, copts).source;
    auto cq = compile::CompileQuery(
        canon.query, *db_, copts,
        "paramfuzz" + std::to_string(GetParam()) + "_t" +
            std::to_string(threads));
    for (int round = 0; round < rounds; ++round) {
      int64_t date_lo = (1992 + planner.Pick(8)) * 10000 +
                        (1 + planner.Pick(12)) * 100 + 1 + planner.Pick(28);
      double qty = 1.0 + planner.Pick(50);
      double disc = planner.Pick(12) * 0.01;
      std::string mode = modes[planner.Pick(7)];
      Query q = ParamTemplateQuery(date_lo, qty, disc, mode);
      service::ParameterizedQuery pq =
          service::ParameterizeQuery(q, /*dict_sensitive=*/false);
      // Same shape: staging any family member reproduces the compiled
      // artifact's translation unit, byte for byte.
      const std::string binding =
          " bindings date_lo=" + std::to_string(date_lo) +
          " qty=" + std::to_string(qty) + " disc=" + std::to_string(disc) +
          " mode='" + mode + "'";
      ASSERT_EQ(compile::StageQuery(pq.query, *db_, copts).source,
                canon_source)
          << "threads " << threads << binding
          << FuzzShape(q, GetParam(), round);
      std::string oracle = volcano::Execute(q, *db_);
      auto interp = engine::ExecuteInterp(pq.query, *db_, {}, &pq.params);
      ASSERT_EQ(tpch::DiffResults(oracle, interp.text, false), "")
          << "interp" << binding << FuzzShape(q, GetParam(), round);
      ASSERT_EQ(tpch::DiffResults(oracle, cq.Run(&pq.params).text, false), "")
          << "compiled threads " << threads << binding
          << FuzzShape(q, GetParam(), round);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParamFuzzTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// LB2HashMap vs std::unordered_map model
// ---------------------------------------------------------------------------

class HashMapModelTest : public ::testing::TestWithParam<int> {};

TEST_P(HashMapModelTest, MatchesStdUnorderedMap) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  rt::Database db;  // unused by the map, required by the backend
  engine::InterpBackend b(&db);

  schema::Schema key_schema{{"k", schema::FieldKind::kInt64}};
  schema::Schema val_schema{{"sum", schema::FieldKind::kInt64},
                            {"cnt", schema::FieldKind::kInt64}};
  int lanes = 1 + static_cast<int>(rng() % 4);
  int64_t distinct = 1 + static_cast<int64_t>(rng() % 500);
  // Any failure below replays from this line alone: the seed parameter
  // plus the derived shape of the map under test.
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + " lanes " +
               std::to_string(lanes) + " distinct " +
               std::to_string(distinct));
  engine::LB2HashMap<engine::InterpBackend> hm;
  hm.Init(b, key_schema, {nullptr}, val_schema, {nullptr, nullptr}, distinct,
          lanes);

  using Rec = engine::Record<engine::InterpBackend>;
  using Val = engine::Value<engine::InterpBackend>;
  Rec key(&key_schema), init(&val_schema), next(&val_schema);
  init.set(0, Val::I64(0));
  init.set(1, Val::I64(0));
  std::unordered_map<int64_t, std::pair<int64_t, int64_t>> model;
  int n_ops = 2000;
  for (int i = 0; i < n_ops; ++i) {
    int64_t k = static_cast<int64_t>(rng() % static_cast<unsigned>(distinct));
    int64_t v = static_cast<int64_t>(rng() % 1000);
    int lane = static_cast<int>(rng() % static_cast<unsigned>(lanes));
    key.set(0, Val::I64(k));
    hm.Update(b, lane, key, init, [&](const Rec& cur) -> const Rec& {
      next.set(0, Val::I64(cur.value(0).i64() + v));
      next.set(1, Val::I64(cur.value(1).i64() + 1));
      return next;
    });
    auto& m = model[k];
    m.first += v;
    m.second += 1;
  }

  // Merge lanes (sum both fields) and compare with the model.
  hm.MergeLanes(
      b,
      [&](const Rec& cur, const Rec& other) -> const Rec& {
        next.set(0, Val::I64(cur.value(0).i64() + other.value(0).i64()));
        next.set(1, Val::I64(cur.value(1).i64() + other.value(1).i64()));
        return next;
      },
      init);

  std::unordered_map<int64_t, std::pair<int64_t, int64_t>> got;
  hm.ForeachLane(b, 0, [&](const Rec& k, const Rec& v) {
    got[k.value(0).i64()] = {v.value(0).i64(), v.value(1).i64()};
  });
  ASSERT_EQ(got.size(), model.size());
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(got.count(k)) << "missing key " << k;
    EXPECT_EQ(got[k], v) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashMapModelTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Staged sort vs std::sort
// ---------------------------------------------------------------------------

TEST(SortPropertyTest, RandomOrderBysMatchOracle) {
  rt::Database db;
  tpch::Generate(0.002, 4242, &db);
  std::mt19937 rng(99);
  const schema::Schema ps = tpch::TableSchema("partsupp");
  for (int round = 0; round < 6; ++round) {
    std::vector<SortKey> keys;
    int nk = 1 + static_cast<int>(rng() % 3);
    std::string key_desc;
    for (int i = 0; i < nk; ++i) {
      const auto& f = ps.field(static_cast<int>(rng() % 5));
      keys.push_back({f.name, rng() % 2 == 0});
      key_desc += (i > 0 ? ", " : "") + f.name +
                  (keys.back().asc ? " asc" : " desc");
    }
    Query q{{}, Limit(OrderBy(Scan("partsupp"), keys), 50)};
    std::string oracle = volcano::Execute(q, db);
    auto cq = compile::CompileQuery(q, db, {}, "propsort");
    // Order-sensitive comparison: the tiebreak contract makes engines
    // agree on total order, not just the multiset.
    EXPECT_EQ(tpch::DiffResults(oracle, cq.Run().text, true), "")
        << FuzzShape(q, 99, round) << "keys: " << key_desc;
  }
}

}  // namespace
}  // namespace lb2
