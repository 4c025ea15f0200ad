// StageBackend: the "future-stage" backend. Values are symbolic Rep<T>s,
// control-flow combinators emit C, and allocation helpers register fields on
// the generated module's per-run `lb2_exec_ctx` struct (so generated sort
// comparators and thread entry points can reach them without any mutable
// file-scope state — the entry is fully reentrant). Running the shared
// operator code under this backend *is* the compiler: interpreter + symbolic
// input = residual program (the first Futamura projection).
#ifndef LB2_ENGINE_STAGE_BACKEND_H_
#define LB2_ENGINE_STAGE_BACKEND_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "engine/backend.h"
#include "runtime/database.h"
#include "runtime/env.h"
#include "stage/control.h"
#include "stage/rep.h"
#include "util/check.h"

namespace lb2::engine {

class StageBackend {
 public:
  using I64 = stage::Rep<int64_t>;
  using F64 = stage::Rep<double>;
  using Bool = stage::Rep<bool>;
  using I32 = stage::Rep<int32_t>;
  struct Str {
    stage::Rep<const char*> p;
    stage::Rep<int32_t> n;
  };
  template <typename T>
  using Arr = stage::Rep<T*>;
  template <typename T>
  using Cell = std::shared_ptr<stage::Var<T>>;

  StageBackend(stage::CodegenContext* ctx, rt::EnvLayout* env,
               const rt::Database* db)
      : ctx_(ctx), env_(env), db_(db) {}

  static constexpr bool kIsStaged = true;

  /// Parameter list of the generated query entry: one pointer to the
  /// module's execution context. Every staged statement that touches per-run
  /// state references `lb2_ctx->...`, so the entry (and each generated
  /// helper that rebinds the name) is reentrant by construction.
  static std::vector<std::pair<std::string, std::string>> EntryParams() {
    return {{"lb2_exec_ctx*", "lb2_ctx"}};
  }

  // -- Control flow ---------------------------------------------------------
  template <typename F>
  void If(Bool c, F f) {
    stage::If(c, f);
  }
  template <typename F, typename G>
  void IfElse(Bool c, F f, G g) {
    stage::IfElse(c, f, g);
  }
  template <typename F>
  void For(I64 lo, I64 hi, F f) {
    stage::For(lo, hi, f);
  }
  template <typename C, typename F>
  void While(C cond, F body) {
    stage::While(cond, body);
  }
  template <typename F>
  void Loop(F body) {
    stage::Loop(body);
  }
  void Break() { stage::Break(); }

  // -- Parallelism (§4.5) ----------------------------------------------------
  /// Emits a pthread parallel region: `body(tid)` is staged into a worker
  /// function invoked by `n_threads` threads. Each worker receives the
  /// spawning run's execution context through lb2_thread_arg and rebinds the
  /// local `lb2_ctx` name, so state reachable from workers must live on the
  /// context (AllocArr/BindEnv guarantee this); Cells created *inside* the
  /// body are worker-local.
  template <typename F>
  void ParallelRegion(int n_threads, F body) {
    LB2_CHECK_MSG(!in_parallel_, "nested parallel regions are not supported");
    std::string fn = ctx_->Fresh("lb2_worker");
    ctx_->BeginFunction("void*", fn, {{"void*", "arg"}});
    stage::Stmt("lb2_thread_arg* lb2_a = (lb2_thread_arg*)arg;");
    stage::Stmt("lb2_exec_ctx* lb2_ctx = (lb2_exec_ctx*)lb2_a->ctx;");
    stage::Stmt("(void)lb2_ctx;");
    in_parallel_ = true;
    cur_tid_ = stage::Bind<int64_t>("lb2_a->tid");
    body(cur_tid_);
    in_parallel_ = false;
    cur_tid_ = I64(0);
    stage::Stmt("return (void*)0;");
    ctx_->EndFunction();
    std::string n = std::to_string(n_threads);
    stage::Stmt("{ pthread_t lb2_th[" + n + "]; lb2_thread_arg lb2_ta[" + n +
                "]; int lb2_t;");
    stage::Stmt("for (lb2_t = 0; lb2_t < " + n +
                "; lb2_t++) { lb2_ta[lb2_t].ctx = (void*)lb2_ctx; "
                "lb2_ta[lb2_t].tid = lb2_t; "
                "pthread_create(&lb2_th[lb2_t], 0, " + fn +
                ", &lb2_ta[lb2_t]); }");
    stage::Stmt("for (lb2_t = 0; lb2_t < " + n +
                "; lb2_t++) pthread_join(lb2_th[lb2_t], 0); }");
  }
  /// The executing worker's thread id (0 outside parallel regions).
  I64 CurTid() const { return cur_tid_; }

  // -- Morsel dispatch (ROADMAP item 5) --------------------------------------
  /// Emits the morsel-claiming loop over [lo, hi): every worker pulls
  /// fixed-size morsels from the shared atomic cursor of the dispenser the
  /// host bound (lb2_ctx->morsels, never null, morsel_rows > 0) — work
  /// stealing for free, and a suffix run resumes exactly where an
  /// interpreted prefix stopped.
  template <typename F>
  void MorselLoop(I64 lo, I64 hi, F body) {
    I64 mr = stage::Bind<int64_t>("lb2_ctx->morsels->morsel_rows");
    stage::Loop([&] {
      I64 m = stage::Bind<int64_t>(
          "__atomic_fetch_add(&lb2_ctx->morsels->next, 1, __ATOMIC_RELAXED)");
      I64 mlo = lo + m * mr;
      stage::If(mlo >= hi, [] { stage::Break(); });
      I64 mhi = stage::Select(mlo + mr < hi, mlo + mr, hi);
      stage::Stmt("if (lb2_ctx->morsels->claims && " + m.ref() +
                  " < lb2_ctx->morsels->claims_len) "
                  "__atomic_fetch_add(&lb2_ctx->morsels->claims[" + m.ref() +
                  "], 1, __ATOMIC_RELAXED);");
      body(mlo, mhi);
    });
  }

  /// Number of seed rows an interpreted prefix exported into the dispenser
  /// (0 on a fresh one — seed-import loops then run zero iterations, so the
  /// seed pointer is never dereferenced on the normal path).
  I64 SeedRows() {
    return stage::Bind<int64_t>("lb2_ctx->morsels->seed_rows");
  }
  /// One flat i64 slot of the seed buffer. `stride` and `slot` are
  /// generation-time constants derived from the plan (MorselSeedStride in
  /// ops.h) — both engines compute the same layout independently.
  I64 SeedSlot(I64 row, int stride, int slot) {
    return stage::Bind<int64_t>(
        "lb2_ctx->morsels->seed[" + row.ref() + " * " +
        std::to_string(stride) + " + " + std::to_string(slot) + "]");
  }

  // -- Casts ----------------------------------------------------------------
  F64 CastF64(I64 v) { return stage::CastRep<double>(v); }
  I64 CastI64(F64 v) { return stage::CastRep<int64_t>(v); }
  I64 BoolToI64(Bool v) { return stage::CastRep<int64_t>(v); }
  Bool I64ToBool(I64 v) { return v != I64(0); }
  I32 CastI32(I64 v) { return stage::CastRep<int32_t>(v); }
  I64 I32ToI64(I32 v) { return stage::CastRep<int64_t>(v); }
  // Bit/pointer casts for row-layout slot storage (prelude helpers are
  // memcpy-based, i.e. well-defined type punning).
  I64 F64Bits(F64 v) { return stage::Call<int64_t>("lb2_d2i", v); }
  F64 BitsF64(I64 v) { return stage::Call<double>("lb2_i2d", v); }
  I64 PtrBits(stage::Rep<const char*> p) {
    return stage::Bind<int64_t>("(int64_t)(intptr_t)" + p.ref());
  }
  stage::Rep<const char*> BitsPtr(I64 v) {
    return stage::Bind<const char*>("(const char*)(intptr_t)" + v.ref());
  }

  // -- Cells ----------------------------------------------------------------
  template <typename T>
  Cell<T> NewCell(stage::Rep<T> init) {
    return std::make_shared<stage::Var<T>>(init);
  }
  template <typename T>
  stage::Rep<T> Get(const Cell<T>& c) {
    return c->Get();
  }
  template <typename T>
  void Set(const Cell<T>& c, stage::Rep<T> v) {
    c->Set(v);
  }

  // -- Arrays (fields on the per-run execution context) ----------------------
  template <typename T>
  Arr<T> AllocArr(I64 n) {
    std::string ref = NewCtxArr<T>();
    stage::Stmt(ref + " = (" + stage::CType<T*>() + ")malloc((size_t)(" +
                n.ref() + ") * sizeof(" + stage::CType<T>() + "));");
    return Arr<T>::FromRef(ref);
  }
  template <typename T>
  Arr<T> AllocZeroArr(I64 n) {
    std::string ref = NewCtxArr<T>();
    stage::Stmt(ref + " = (" + stage::CType<T*>() + ")calloc((size_t)(" +
                n.ref() + "), sizeof(" + stage::CType<T>() + "));");
    return Arr<T>::FromRef(ref);
  }

  /// Frees every engine allocation (emitted by the compiler before the
  /// query function returns, so a CompiledQuery can be Run() repeatedly
  /// without growing the heap).
  void FreeOwnedAllocations() {
    for (const auto& ref : owned_allocs_) {
      stage::Stmt("free((void*)" + ref + "); " + ref + " = 0;");
    }
  }
  template <typename T>
  stage::Rep<T> ArrGet(const Arr<T>& a, I64 i) {
    return stage::Load<T>(a, i);
  }
  template <typename T>
  void ArrSet(const Arr<T>& a, I64 i, std::type_identity_t<stage::Rep<T>> v) {
    stage::Store<T>(a, i, v);
  }

  // -- Strings ----------------------------------------------------------------
  Bool StrEqV(Str a, Str b) {
    return stage::Call<bool>("lb2_str_eq", a.p, a.n, b.p, b.n);
  }
  I32 StrCmp3(Str a, Str b) {
    return stage::Call<int32_t>("lb2_str_cmp", a.p, a.n, b.p, b.n);
  }
  Bool StrEqConst(Str a, const std::string& lit) {
    return stage::Call<bool>("lb2_str_eq", a.p, a.n, StrLit(lit),
                             I32(static_cast<int32_t>(lit.size())));
  }
  Bool StrStartsWithConst(Str a, const std::string& p) {
    return stage::Call<bool>("lb2_starts_with", a.p, a.n, StrLit(p),
                             I32(static_cast<int32_t>(p.size())));
  }
  Bool StrEndsWithConst(Str a, const std::string& p) {
    return stage::Call<bool>("lb2_ends_with", a.p, a.n, StrLit(p),
                             I32(static_cast<int32_t>(p.size())));
  }
  Bool StrContainsConst(Str a, const std::string& p) {
    return stage::Call<bool>("lb2_contains", a.p, a.n, StrLit(p),
                             I32(static_cast<int32_t>(p.size())));
  }
  Bool StrLikeConst(Str a, const std::string& pattern) {
    return stage::Call<bool>("lb2_like", a.p, a.n, StrLit(pattern),
                             I32(static_cast<int32_t>(pattern.size())));
  }
  Str SubstrConst(Str a, int64_t pos, int64_t len) {
    // Offsets are static; clamp like the interpreter does.
    I32 p32 = stage::Bind<int32_t>(
        "(" + a.n.ref() + " < " + std::to_string(pos) + " ? " + a.n.ref() +
        " : " + std::to_string(pos) + ")");
    I32 l32 = stage::Bind<int32_t>(
        "((" + a.n.ref() + " - " + p32.ref() + ") < " + std::to_string(len) +
        " ? (" + a.n.ref() + " - " + p32.ref() + ") : " +
        std::to_string(len) + ")");
    auto ptr = stage::Bind<const char*>("(" + a.p.ref() + " + " + p32.ref() +
                                        ")");
    return {ptr, l32};
  }
  Str ConstStr(const std::string& lit) { return {StrLit(lit), I32(static_cast<int32_t>(lit.size()))}; }

  // -- Parameter slots (plan/params.h) ----------------------------------------
  /// Const leaves carrying a `param_slot` read the literal from the bound
  /// parameter vector on the execution context instead of baking it into
  /// the TU — this is what makes same-shape/different-literal plans emit
  /// byte-identical C. The host-side fallback value is an interpreter
  /// concern and is deliberately unused here: referencing it would leak the
  /// literal back into the generated text. Slot references are recorded on
  /// the module so it exports `lb2_param_count` for bind-time validation.
  I64 ParamI64(int slot, int64_t /*fallback*/) {
    return stage::Bind<int64_t>(ParamRef(slot) + ".i64");
  }
  F64 ParamF64(int slot, double /*fallback*/) {
    return stage::Bind<double>(ParamRef(slot) + ".f64");
  }
  Bool ParamBool(int slot, bool /*fallback*/) {
    return stage::Bind<bool>("(" + ParamRef(slot) + ".i64 != 0)");
  }
  Str ParamStr(int slot, const std::string& /*fallback*/) {
    return {stage::Bind<const char*>(ParamRef(slot) + ".sp"),
            stage::Bind<int32_t>(ParamRef(slot) + ".sn")};
  }

  I64 SelI64(Bool c, I64 a, I64 b) { return stage::Select(c, a, b); }
  F64 SelF64(Bool c, F64 a, F64 b) { return stage::Select(c, a, b); }
  Str DictDecode(const rt::Dictionary* dict, I64 code) {
    auto [pslot, lslot] = DictSlots(dict);
    auto pa = stage::Bind<const char**>(
        "(const char**)lb2_ctx->env[" + std::to_string(pslot) + "]");
    auto la = stage::Bind<int32_t*>("(int32_t*)lb2_ctx->env[" +
                                    std::to_string(lslot) + "]");
    return {stage::Load<const char*>(pa, code),
            stage::Load<int32_t>(la, code)};
  }

  // -- Hashing ------------------------------------------------------------------
  I64 HashI64(I64 v) { return stage::Call<int64_t>("lb2_hash_i64", v); }
  I64 HashStr(Str s) {
    return stage::Call<int64_t>("lb2_hash_str", s.p, s.n);
  }
  I64 HashCombine(I64 a, I64 b) {
    return stage::Call<int64_t>("lb2_hash_combine", a, b);
  }

  // -- Table access ----------------------------------------------------------
  struct ColAcc {
    schema::FieldKind kind;
    bool use_dict = false;
    // Only the handles matching `kind`/`use_dict` are bound.
    stage::Rep<int64_t*> i64;
    stage::Rep<double*> f64;
    stage::Rep<int32_t*> i32;  // dates and dictionary codes
    stage::Rep<const char**> sp;
    stage::Rep<int32_t*> sl;
  };

  /// Row counts are known when the query is compiled — they become
  /// generation-time constants (and loop bounds fold accordingly).
  I64 TableRows(const std::string& table) {
    return I64(db_->table(table).num_rows());
  }

  ColAcc Column(const std::string& table, const std::string& col,
                const ColumnOptions& opts) {
    const rt::Column& c = db_->table(table).column(col);
    ColAcc acc;
    acc.kind = c.kind();
    acc.use_dict = opts.use_dict && c.has_dict();
    std::string key = "col:" + table + ":" + col;
    using schema::FieldKind;
    if (acc.use_dict) {
      acc.i32 = BindEnv<int32_t>(key + ":dictcode", [&c](const rt::Database&) {
        return static_cast<const void*>(c.dict_codes());
      });
      return acc;
    }
    switch (c.kind()) {
      case FieldKind::kInt64:
        acc.i64 = BindEnv<int64_t>(key, [&c](const rt::Database&) {
          return static_cast<const void*>(c.i64_data());
        });
        break;
      case FieldKind::kDouble:
        acc.f64 = BindEnv<double>(key, [&c](const rt::Database&) {
          return static_cast<const void*>(c.f64_data());
        });
        break;
      case FieldKind::kDate:
        acc.i32 = BindEnv<int32_t>(key, [&c](const rt::Database&) {
          return static_cast<const void*>(c.date_data());
        });
        break;
      case FieldKind::kString:
        acc.sp = BindEnv<const char*>(key + ":p", [&c](const rt::Database&) {
          return static_cast<const void*>(c.str_ptr_data());
        });
        acc.sl = BindEnv<int32_t>(key + ":l", [&c](const rt::Database&) {
          return static_cast<const void*>(c.str_len_data());
        });
        break;
    }
    return acc;
  }
  I64 ColI64(const ColAcc& a, I64 row) { return stage::Load<int64_t>(a.i64, row); }
  F64 ColF64(const ColAcc& a, I64 row) { return stage::Load<double>(a.f64, row); }
  I64 ColDate(const ColAcc& a, I64 row) {
    return stage::CastRep<int64_t>(stage::Load<int32_t>(a.i32, row));
  }
  Str ColStr(const ColAcc& a, I64 row) {
    return {stage::Load<const char*>(a.sp, row),
            stage::Load<int32_t>(a.sl, row)};
  }
  I64 ColDictCode(const ColAcc& a, I64 row) {
    return stage::CastRep<int64_t>(stage::Load<int32_t>(a.i32, row));
  }

  // -- Vectorized flavor kernels (prelude lb2_v*) -----------------------------
  /// Batch filter primitives for the vectorized codegen flavor
  /// (engine/vec_ops.h): evaluate one comparison conjunct over rows
  /// [base, base+n) of a column into a 0/1 flags slice, compact flags into
  /// a selection vector of batch-relative offsets, and refine a selection
  /// vector in place with further conjuncts. `off` is the worker's slice
  /// origin inside the shared scratch arrays — parallel lanes share one
  /// context allocation and write disjoint kVecBatch-sized slices.
  void VecFlagsI64(const ColAcc& a, plan::ExprOp op, I64 base, I64 n, I64 rhs,
                   const Arr<uint8_t>& flags, I64 off) {
    bool date = a.kind == schema::FieldKind::kDate;
    std::string fn =
        std::string("lb2_vflag_") + (date ? "i32_" : "i64_") + VecCmpName(op);
    if (date) {
      stage::CallVoid(fn, stage::PtrOffset(a.i32, base), n, rhs,
                      stage::PtrOffset(flags, off));
    } else {
      stage::CallVoid(fn, stage::PtrOffset(a.i64, base), n, rhs,
                      stage::PtrOffset(flags, off));
    }
  }
  void VecFlagsF64(const ColAcc& a, plan::ExprOp op, I64 base, I64 n, F64 rhs,
                   const Arr<uint8_t>& flags, I64 off) {
    stage::CallVoid(std::string("lb2_vflag_f64_") + VecCmpName(op),
                    stage::PtrOffset(a.f64, base), n, rhs,
                    stage::PtrOffset(flags, off));
  }
  I64 VecCompact(const Arr<uint8_t>& flags, I64 off, I64 n,
                 const Arr<int32_t>& sel) {
    return stage::Call<int64_t>("lb2_vcompact", stage::PtrOffset(flags, off),
                                n, stage::PtrOffset(sel, off));
  }
  I64 VecRefineI64(const ColAcc& a, plan::ExprOp op, I64 base,
                   const Arr<int32_t>& sel, I64 off, I64 cnt, I64 rhs) {
    bool date = a.kind == schema::FieldKind::kDate;
    std::string fn = std::string("lb2_vrefine_") + (date ? "i32_" : "i64_") +
                     VecCmpName(op);
    if (date) {
      return stage::Call<int64_t>(fn, stage::PtrOffset(a.i32, base),
                                  stage::PtrOffset(sel, off), cnt, rhs);
    }
    return stage::Call<int64_t>(fn, stage::PtrOffset(a.i64, base),
                                stage::PtrOffset(sel, off), cnt, rhs);
  }
  I64 VecRefineF64(const ColAcc& a, plan::ExprOp op, I64 base,
                   const Arr<int32_t>& sel, I64 off, I64 cnt, F64 rhs) {
    return stage::Call<int64_t>(
        std::string("lb2_vrefine_f64_") + VecCmpName(op),
        stage::PtrOffset(a.f64, base), stage::PtrOffset(sel, off), cnt, rhs);
  }

  // -- Auxiliary index access ---------------------------------------------------
  struct PkAcc {
    int64_t min_key, max_key;
    stage::Rep<int32_t*> pos;
  };
  struct FkAcc {
    int64_t min_key, max_key;
    stage::Rep<int64_t*> offsets;
    stage::Rep<int32_t*> rows;
  };
  struct DateAcc {
    const rt::DateIndex* idx;
    stage::Rep<int64_t*> offsets;
    stage::Rep<int32_t*> rows;
  };
  PkAcc Pk(const std::string& table, const std::string& col) {
    const auto* idx = db_->pk_index(table, col);
    LB2_CHECK_MSG(idx != nullptr, ("missing pk index " + table).c_str());
    return {idx->min_key, idx->max_key,
            BindEnv<int32_t>("pk:" + table + ":" + col,
                             [idx](const rt::Database&) {
                               return static_cast<const void*>(
                                   idx->pos.data());
                             })};
  }
  FkAcc Fk(const std::string& table, const std::string& col) {
    const auto* idx = db_->fk_index(table, col);
    LB2_CHECK_MSG(idx != nullptr, ("missing fk index " + table).c_str());
    std::string key = "fk:" + table + ":" + col;
    return {idx->min_key, idx->max_key,
            BindEnv<int64_t>(key + ":off",
                             [idx](const rt::Database&) {
                               return static_cast<const void*>(
                                   idx->offsets.data());
                             }),
            BindEnv<int32_t>(key + ":rows", [idx](const rt::Database&) {
              return static_cast<const void*>(idx->rows.data());
            })};
  }
  DateAcc DateIdx(const std::string& table, const std::string& col) {
    const auto* idx = db_->date_index(table, col);
    LB2_CHECK_MSG(idx != nullptr, ("missing date index " + table).c_str());
    std::string key = "dateidx:" + table + ":" + col;
    return {idx,
            BindEnv<int64_t>(key + ":off",
                             [idx](const rt::Database&) {
                               return static_cast<const void*>(
                                   idx->offsets.data());
                             }),
            BindEnv<int32_t>(key + ":rows", [idx](const rt::Database&) {
              return static_cast<const void*>(idx->rows.data());
            })};
  }
  I64 PkLookup(const PkAcc& a, I64 key) {
    auto pos = NewCell(I64(-1));
    stage::If(key >= a.min_key && key <= a.max_key, [&] {
      pos->Set(stage::CastRep<int64_t>(
          stage::Load<int32_t>(a.pos, key - a.min_key)));
    });
    return pos->Get();
  }
  std::pair<I64, I64> FkRange(const FkAcc& a, I64 key) {
    auto begin = NewCell(I64(0));
    auto end = NewCell(I64(0));
    stage::If(key >= a.min_key && key <= a.max_key, [&] {
      I64 s = key - a.min_key;
      begin->Set(stage::Load<int64_t>(a.offsets, s));
      end->Set(stage::Load<int64_t>(a.offsets, s + 1));
    });
    return {begin->Get(), end->Get()};
  }
  I64 FkRow(const FkAcc& a, I64 pos) {
    return stage::CastRep<int64_t>(stage::Load<int32_t>(a.rows, pos));
  }
  std::pair<I64, I64> DateBucketSpan(const DateAcc& a, int64_t date_lo,
                                     int64_t date_hi) {
    // Bucket bounds are compile-time constants; only two loads remain.
    int32_t b_lo = a.idx->BucketOf(static_cast<int32_t>(date_lo));
    int32_t b_hi = a.idx->BucketOf(static_cast<int32_t>(date_hi));
    return {stage::Load<int64_t>(a.offsets, I64(b_lo)),
            stage::Load<int64_t>(a.offsets, I64(b_hi + 1))};
  }
  I64 DateIdxRow(const DateAcc& a, I64 pos) {
    return stage::CastRep<int64_t>(stage::Load<int32_t>(a.rows, pos));
  }

  // -- Output ---------------------------------------------------------------
  void EmitI64(I64 v) { stage::CallVoid("lb2_out_i64", GOut(), v); }
  void EmitF64(F64 v) { stage::CallVoid("lb2_out_f64", GOut(), v); }
  void EmitDate(I64 v) { stage::CallVoid("lb2_out_date", GOut(), v); }
  void EmitStr(Str s) { stage::CallVoid("lb2_out_str", GOut(), s.p, s.n); }
  void EmitSep() { stage::Stmt("lb2_out_char(lb2_ctx->out, '|');"); }
  void EndRow() {
    stage::Stmt("lb2_out_char(lb2_ctx->out, '\\n');");
    stage::Stmt("lb2_ctx->out->rows++;");
  }

  // -- Timing ---------------------------------------------------------------
  void StartTimer() { stage::Stmt("double lb2_tstart = lb2_now_ms();"); }
  void StopTimer() {
    stage::Stmt("lb2_ctx->out->exec_ms = lb2_now_ms() - lb2_tstart;");
  }

  // -- Profiling (engine/profile.h) ------------------------------------------
  /// Staged halves of the profiling primitives: the counter updates are
  /// emitted into the generated C against the module's `lb2_prof` context
  /// array (registered by CModule::SetProfSlots after staging). Only ever
  /// reached when EngineOptions::profile is on — a profile-off staging
  /// touches none of this, keeping the residual program byte-identical.
  I64 ProfNow() {
    EnsureProfRuntime();
    return stage::Call<int64_t>("lb2_prof_now_ns");
  }
  void ProfRowOut(int slot) {
    stage::Stmt("lb2_ctx->lb2_prof[" + std::to_string(2 * slot) + "] += 1;");
  }
  void ProfAddNs(int slot, I64 ns) {
    stage::Stmt("lb2_ctx->lb2_prof[" + std::to_string(2 * slot + 1) +
                "] += " + ns.ref() + ";");
  }

  const rt::Database* db() const { return db_; }
  stage::CodegenContext* ctx() { return ctx_; }

 private:
  /// Declares the monotonic-ns helper the profiling statements call. The
  /// prelude stays untouched — profile-off output must not change — so the
  /// helper (and its header) ride in as a module global, emitted only when
  /// a profiled staging actually reads the clock.
  void EnsureProfRuntime() {
    if (prof_runtime_declared_) return;
    prof_runtime_declared_ = true;
    ctx_->DeclareGlobal(
        "#include <time.h>\n"
        "static int64_t lb2_prof_now_ns(void) {\n"
        "  struct timespec lb2_ts;\n"
        "  clock_gettime(CLOCK_MONOTONIC, &lb2_ts);\n"
        "  return (int64_t)lb2_ts.tv_sec * 1000000000LL + "
        "(int64_t)lb2_ts.tv_nsec;\n"
        "}");
  }

  stage::Rep<const char*> StrLit(const std::string& s) {
    return stage::Rep<const char*>::FromRef(stage::CStringLit(s));
  }
  std::string ParamRef(int slot) {
    LB2_CHECK_MSG(slot >= 0, "negative parameter slot");
    ctx_->module().NoteParamSlot(slot);
    return "lb2_ctx->params[" + std::to_string(slot) + "]";
  }
  static stage::Rep<char*> GOut() {
    return stage::Rep<char*>::FromRef("lb2_ctx->out");
  }
  /// Registers a fresh pointer field on the execution context and returns
  /// its `lb2_ctx->...` ref, tracked for FreeOwnedAllocations.
  template <typename T>
  std::string NewCtxArr() {
    std::string ref =
        ctx_->DeclareCtxField(stage::CType<T*>(), ctx_->Fresh("g"));
    owned_allocs_.push_back(ref);
    return ref;
  }
  /// Environment pointers are cached in execution-context fields (assigned
  /// where the bind is staged, normally the entry prologue) so worker
  /// functions and sort comparators can reference them. Rebinding the same
  /// key reuses the same field. New binds must be staged before any parallel
  /// region: workers share the run's context, and a bind staged inside a
  /// worker body would race with its siblings.
  template <typename T>
  stage::Rep<T*> BindEnv(const std::string& key, rt::EnvLayout::Resolver r) {
    int slot = env_->SlotFor(key, std::move(r));
    auto it = env_globals_.find(slot);
    if (it != env_globals_.end()) {
      return stage::Rep<T*>::FromRef(it->second);
    }
    LB2_CHECK_MSG(!in_parallel_,
                  "env bind staged inside a parallel region would race");
    std::string ref =
        ctx_->DeclareCtxField(stage::CType<T*>(), ctx_->Fresh("gc"));
    stage::Stmt(ref + " = (" + stage::CType<T*>() + ")lb2_ctx->env[" +
                std::to_string(slot) + "];");
    env_globals_.emplace(slot, ref);
    return stage::Rep<T*>::FromRef(ref);
  }
  std::pair<int, int> DictSlots(const rt::Dictionary* dict) {
    std::string key = "dict:" + std::to_string(
        reinterpret_cast<uintptr_t>(dict));
    int p = env_->SlotFor(key + ":p", [dict](const rt::Database&) {
      return static_cast<const void*>(dict->ptr_data());
    });
    int l = env_->SlotFor(key + ":l", [dict](const rt::Database&) {
      return static_cast<const void*>(dict->len_data());
    });
    return {p, l};
  }

  stage::CodegenContext* ctx_;
  rt::EnvLayout* env_;
  const rt::Database* db_;
  bool in_parallel_ = false;
  bool prof_runtime_declared_ = false;
  I64 cur_tid_ = I64(0);
  std::map<int, std::string> env_globals_;
  std::vector<std::string> owned_allocs_;
};

}  // namespace lb2::engine

#endif  // LB2_ENGINE_STAGE_BACKEND_H_
