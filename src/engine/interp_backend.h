// InterpBackend: the "present-stage" backend. All operations execute
// immediately over native values, so the shared operator code behaves as a
// data-centric (push/callback) query interpreter — the engine the paper's
// Figure 6 shows *before* specialization.
#ifndef LB2_ENGINE_INTERP_BACKEND_H_
#define LB2_ENGINE_INTERP_BACKEND_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/backend.h"
#include "engine/morsel.h"
#include "plan/params.h"
#include "runtime/database.h"
#include "util/check.h"
#include "util/str.h"
#include "util/time.h"

namespace lb2::engine {

class InterpBackend {
 public:
  using I64 = int64_t;
  using F64 = double;
  using Bool = bool;
  using I32 = int32_t;
  struct Str {
    const char* p = nullptr;
    int32_t n = 0;
  };
  template <typename T>
  using Arr = std::shared_ptr<std::vector<T>>;
  /// A mutable cell holds its value inline: a probe cursor or a per-row
  /// flag lives where the operator declares it, with no heap allocation.
  /// Move-only, so a copy can never silently stop aliasing the original.
  template <typename T>
  struct Cell {
    Cell() = default;
    explicit Cell(T init) : v(init) {}
    Cell(Cell&&) = default;
    Cell& operator=(Cell&&) = default;
    T v{};
  };

  explicit InterpBackend(const rt::Database* db) : db_(db) {}

  static constexpr bool kIsStaged = false;

  // -- Control flow --------------------------------------------------------
  template <typename F>
  void If(Bool c, F f) {
    if (c) f();
  }
  template <typename F, typename G>
  void IfElse(Bool c, F f, G g) {
    if (c) {
      f();
    } else {
      g();
    }
  }
  template <typename F>
  void For(I64 lo, I64 hi, F f) {
    for (I64 i = lo; i < hi; ++i) f(i);
  }
  template <typename C, typename F>
  void While(C cond, F body) {
    break_stack_.push_back(false);
    while (!break_stack_.back() && cond()) body();
    break_stack_.pop_back();
  }
  template <typename F>
  void Loop(F body) {
    break_stack_.push_back(false);
    while (!break_stack_.back()) body();
    break_stack_.pop_back();
  }
  /// Terminates the innermost Loop/While. Must be the last engine action on
  /// its control path.
  void Break() {
    LB2_CHECK(!break_stack_.empty());
    break_stack_.back() = true;
  }

  // -- Parallelism -----------------------------------------------------------
  /// The interpreter runs "parallel" regions sequentially, one tid at a
  /// time — semantically identical, so parallel plans can be differentially
  /// tested against the oracle here too.
  template <typename F>
  void ParallelRegion(int n_threads, F body) {
    lanes_ = n_threads;
    for (int t = 0; t < n_threads; ++t) {
      cur_tid_ = t;
      body(static_cast<I64>(t));
    }
    cur_tid_ = 0;
    lanes_ = 1;
  }
  I64 CurTid() const { return cur_tid_; }
  template <typename T, typename F, typename G>
  T IfVal(Bool c, F f, G g) {
    return c ? f() : g();
  }

  // -- Morsel dispatch (ROADMAP item 5) --------------------------------------
  /// Binds the morsel run for this execution (ExecuteInterp always binds
  /// one, with morsel_rows > 0).
  void set_morsels(MorselRun* run) { morsels_ = run; }
  MorselRun* morsels() const { return morsels_; }

  /// Drives `body(mlo, mhi)` over [lo, hi), claiming fixed-size morsels
  /// from the shared atomic cursor until the range is exhausted or
  /// stop_poll fires at a boundary (setting `stopped` so the sink exports
  /// seed state instead of results). The cursor is never reset, so a
  /// compiled suffix handed the same dispenser resumes exactly where this
  /// prefix stopped. Inside a parallel region, whose lanes run one after
  /// another here, each lane but the last stops after its fair share of
  /// the morsels still unclaimed: one legal schedule of the threaded code,
  /// and one that gives every lane (and the lane merge) work.
  template <typename F>
  void MorselLoop(I64 lo, I64 hi, F body) {
    MorselRun* run = morsels_;
    const I64 mr = run->source.morsel_rows;
    const I64 lanes_left = lanes_ - cur_tid_;
    I64 quota = -1;  // the last (or only) lane drains the dispenser
    if (lanes_left > 1) {
      const I64 unclaimed =
          (hi - lo + mr - 1) / mr -
          run->source.next.load(std::memory_order_relaxed);
      quota = (std::max<I64>(unclaimed, 0) + lanes_left - 1) / lanes_left;
    }
    for (I64 taken = 0; quota < 0 || taken < quota; ++taken) {
      if (run->stopped || (run->stop_poll && run->stop_poll())) {
        run->stopped = true;
        break;
      }
      I64 m = run->source.next.fetch_add(1, std::memory_order_relaxed);
      I64 mlo = lo + m * mr;
      if (mlo >= hi) break;
      I64 mhi = mlo + mr < hi ? mlo + mr : hi;
      if (run->source.claims != nullptr && m < run->source.claims_len) {
        run->source.claims[m].fetch_add(1, std::memory_order_relaxed);
      }
      body(mlo, mhi);
      ++run->claimed;
    }
  }

  // -- Casts ---------------------------------------------------------------
  F64 CastF64(I64 v) { return static_cast<F64>(v); }
  I64 CastI64(F64 v) { return static_cast<I64>(v); }
  I64 BoolToI64(Bool v) { return v ? 1 : 0; }
  Bool I64ToBool(I64 v) { return v != 0; }
  I32 CastI32(I64 v) { return static_cast<I32>(v); }
  I64 I32ToI64(I32 v) { return v; }
  // Bit/pointer casts for row-layout slot storage.
  I64 F64Bits(F64 v) {
    I64 out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
  }
  F64 BitsF64(I64 v) {
    F64 out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
  }
  I64 PtrBits(const char* p) { return reinterpret_cast<I64>(p); }
  const char* BitsPtr(I64 v) { return reinterpret_cast<const char*>(v); }

  // -- Cells ---------------------------------------------------------------
  template <typename T>
  Cell<T> NewCell(T init) {
    return Cell<T>(init);
  }
  template <typename T>
  T Get(const Cell<T>& c) {
    return c.v;
  }
  template <typename T>
  void Set(Cell<T>& c, T v) {
    c.v = v;
  }

  // -- Arrays --------------------------------------------------------------
  template <typename T>
  Arr<T> AllocArr(I64 n) {
    return std::make_shared<std::vector<T>>(static_cast<size_t>(n));
  }
  template <typename T>
  Arr<T> AllocZeroArr(I64 n) {
    return std::make_shared<std::vector<T>>(static_cast<size_t>(n), T{});
  }
  template <typename T>
  T ArrGet(const Arr<T>& a, I64 i) {
    return (*a)[static_cast<size_t>(i)];
  }
  template <typename T>
  void ArrSet(const Arr<T>& a, I64 i, T v) {
    (*a)[static_cast<size_t>(i)] = v;
  }

  // -- Strings -------------------------------------------------------------
  Bool StrEqV(Str a, Str b) {
    return a.n == b.n && std::memcmp(a.p, b.p, static_cast<size_t>(a.n)) == 0;
  }
  I32 StrCmp3(Str a, Str b) {
    int32_t n = a.n < b.n ? a.n : b.n;
    int c = std::memcmp(a.p, b.p, static_cast<size_t>(n));
    if (c != 0) return c < 0 ? -1 : 1;
    return a.n == b.n ? 0 : (a.n < b.n ? -1 : 1);
  }
  Bool StrEqConst(Str a, const std::string& lit) {
    return a.n == static_cast<int32_t>(lit.size()) &&
           std::memcmp(a.p, lit.data(), lit.size()) == 0;
  }
  Bool StrStartsWithConst(Str a, const std::string& p) {
    return StartsWith({a.p, static_cast<size_t>(a.n)}, p);
  }
  Bool StrEndsWithConst(Str a, const std::string& p) {
    return EndsWith({a.p, static_cast<size_t>(a.n)}, p);
  }
  Bool StrContainsConst(Str a, const std::string& p) {
    return std::string_view(a.p, static_cast<size_t>(a.n)).find(p) !=
           std::string_view::npos;
  }
  Bool StrLikeConst(Str a, const std::string& pattern) {
    return LikeMatch({a.p, static_cast<size_t>(a.n)}, pattern);
  }
  Str SubstrConst(Str a, int64_t pos, int64_t len) {
    int32_t p = static_cast<int32_t>(std::min<int64_t>(pos, a.n));
    int32_t l = static_cast<int32_t>(std::min<int64_t>(len, a.n - p));
    return {a.p + p, l};
  }
  /// String literal; `lit` must outlive the query (plan-owned strings do).
  Str ConstStr(const std::string& lit) {
    return {lit.data(), static_cast<int32_t>(lit.size())};
  }

  // -- Parameter slots (plan/params.h) ----------------------------------------
  /// Binds a parameter vector for this run; the caller keeps it alive (the
  /// string payloads are referenced, not copied). May stay unset: marked
  /// leaves retain their original literal, which the accessors fall back
  /// to, so a canonicalized plan interprets identically either way.
  void set_params(const plan::ParamVec* params) { params_ = params; }
  I64 ParamI64(int slot, int64_t fallback) const {
    return params_ == nullptr ? fallback : ParamAt(slot).i64;
  }
  F64 ParamF64(int slot, double fallback) const {
    return params_ == nullptr ? fallback : ParamAt(slot).f64;
  }
  Bool ParamBool(int slot, bool fallback) const {
    return params_ == nullptr ? fallback : ParamAt(slot).i64 != 0;
  }
  Str ParamStr(int slot, const std::string& fallback) const {
    if (params_ == nullptr) {
      return {fallback.data(), static_cast<int32_t>(fallback.size())};
    }
    const std::string& s = ParamAt(slot).str;
    return {s.data(), static_cast<int32_t>(s.size())};
  }
  I64 SelI64(Bool c, I64 a, I64 b) { return c ? a : b; }
  F64 SelF64(Bool c, F64 a, F64 b) { return c ? a : b; }
  Str DictDecode(const rt::Dictionary* dict, I64 code) {
    auto sv = dict->Decode(static_cast<int32_t>(code));
    return {sv.data(), static_cast<int32_t>(sv.size())};
  }

  // -- Hashing (same functions the generated code uses) ---------------------
  I64 HashI64(I64 v) {
    uint64_t z = static_cast<uint64_t>(v) * 0x9e3779b97f4a7c15ULL;
    z ^= z >> 32;
    return static_cast<I64>(z);
  }
  I64 HashStr(Str s) {
    uint64_t h = 5381;
    for (int32_t i = 0; i < s.n; ++i) {
      h = ((h << 5) + h) + static_cast<uint8_t>(s.p[i]);
    }
    return static_cast<I64>(h);
  }
  I64 HashCombine(I64 a, I64 b) {
    uint64_t h = static_cast<uint64_t>(a);
    h ^= static_cast<uint64_t>(b) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return static_cast<I64>(h);
  }

  // -- Table access ---------------------------------------------------------
  struct ColAcc {
    const rt::Column* col = nullptr;
    bool use_dict = false;
  };
  I64 TableRows(const std::string& table) {
    return db_->table(table).num_rows();
  }
  ColAcc Column(const std::string& table, const std::string& col,
                const ColumnOptions& opts) {
    const rt::Column& c = db_->table(table).column(col);
    return {&c, opts.use_dict && c.has_dict()};
  }
  I64 ColI64(const ColAcc& a, I64 row) { return a.col->Int64At(row); }
  F64 ColF64(const ColAcc& a, I64 row) { return a.col->DoubleAt(row); }
  I64 ColDate(const ColAcc& a, I64 row) { return a.col->DateAt(row); }
  Str ColStr(const ColAcc& a, I64 row) {
    auto sv = a.col->StringAt(row);
    return {sv.data(), static_cast<int32_t>(sv.size())};
  }
  I64 ColDictCode(const ColAcc& a, I64 row) {
    return a.col->DictCodeAt(row);
  }

  // -- Vectorized flavor kernels ---------------------------------------------
  /// Native halves of the batch filter primitives (see stage_backend.h for
  /// the contract): plain scalar loops over the raw column arrays whose
  /// semantics mirror the generated prelude kernels exactly, so the
  /// vectorized flavor is differentially testable against this backend.
  void VecFlagsI64(const ColAcc& a, plan::ExprOp op, I64 base, I64 n, I64 rhs,
                   const Arr<uint8_t>& flags, I64 off) {
    uint8_t* f = flags->data() + off;
    if (a.col->kind() == schema::FieldKind::kDate) {
      const int32_t* p = a.col->date_data() + base;
      for (I64 i = 0; i < n; ++i) {
        f[i] = VecCmp<int64_t>(op, p[i], rhs) ? 1 : 0;
      }
    } else {
      const int64_t* p = a.col->i64_data() + base;
      for (I64 i = 0; i < n; ++i) {
        f[i] = VecCmp<int64_t>(op, p[i], rhs) ? 1 : 0;
      }
    }
  }
  void VecFlagsF64(const ColAcc& a, plan::ExprOp op, I64 base, I64 n, F64 rhs,
                   const Arr<uint8_t>& flags, I64 off) {
    uint8_t* f = flags->data() + off;
    const double* p = a.col->f64_data() + base;
    for (I64 i = 0; i < n; ++i) {
      f[i] = VecCmp<double>(op, p[i], rhs) ? 1 : 0;
    }
  }
  I64 VecCompact(const Arr<uint8_t>& flags, I64 off, I64 n,
                 const Arr<int32_t>& sel) {
    const uint8_t* f = flags->data() + off;
    int32_t* s = sel->data() + off;
    I64 cnt = 0;
    for (I64 i = 0; i < n; ++i) {
      s[cnt] = static_cast<int32_t>(i);
      cnt += f[i];
    }
    return cnt;
  }
  I64 VecRefineI64(const ColAcc& a, plan::ExprOp op, I64 base,
                   const Arr<int32_t>& sel, I64 off, I64 cnt, I64 rhs) {
    int32_t* s = sel->data() + off;
    I64 out = 0;
    if (a.col->kind() == schema::FieldKind::kDate) {
      const int32_t* p = a.col->date_data() + base;
      for (I64 k = 0; k < cnt; ++k) {
        int32_t j = s[k];
        s[out] = j;
        out += VecCmp<int64_t>(op, p[j], rhs) ? 1 : 0;
      }
    } else {
      const int64_t* p = a.col->i64_data() + base;
      for (I64 k = 0; k < cnt; ++k) {
        int32_t j = s[k];
        s[out] = j;
        out += VecCmp<int64_t>(op, p[j], rhs) ? 1 : 0;
      }
    }
    return out;
  }
  I64 VecRefineF64(const ColAcc& a, plan::ExprOp op, I64 base,
                   const Arr<int32_t>& sel, I64 off, I64 cnt, F64 rhs) {
    int32_t* s = sel->data() + off;
    const double* p = a.col->f64_data() + base;
    I64 out = 0;
    for (I64 k = 0; k < cnt; ++k) {
      int32_t j = s[k];
      s[out] = j;
      out += VecCmp<double>(op, p[j], rhs) ? 1 : 0;
    }
    return out;
  }

  // -- Auxiliary index access ------------------------------------------------
  struct PkAcc {
    const rt::PkIndex* idx;
  };
  struct FkAcc {
    const rt::FkIndex* idx;
  };
  struct DateAcc {
    const rt::DateIndex* idx;
  };
  PkAcc Pk(const std::string& table, const std::string& col) {
    const auto* idx = db_->pk_index(table, col);
    LB2_CHECK_MSG(idx != nullptr, ("missing pk index " + table).c_str());
    return {idx};
  }
  FkAcc Fk(const std::string& table, const std::string& col) {
    const auto* idx = db_->fk_index(table, col);
    LB2_CHECK_MSG(idx != nullptr, ("missing fk index " + table).c_str());
    return {idx};
  }
  DateAcc DateIdx(const std::string& table, const std::string& col) {
    const auto* idx = db_->date_index(table, col);
    LB2_CHECK_MSG(idx != nullptr, ("missing date index " + table).c_str());
    return {idx};
  }
  /// Row position for a unique key, or -1.
  I64 PkLookup(const PkAcc& a, I64 key) {
    if (key < a.idx->min_key || key > a.idx->max_key) return -1;
    return a.idx->pos[static_cast<size_t>(key - a.idx->min_key)];
  }
  /// CSR segment [begin, end) of rows for a key.
  std::pair<I64, I64> FkRange(const FkAcc& a, I64 key) {
    if (key < a.idx->min_key || key > a.idx->max_key) return {0, 0};
    size_t s = static_cast<size_t>(key - a.idx->min_key);
    return {a.idx->offsets[s], a.idx->offsets[s + 1]};
  }
  I64 FkRow(const FkAcc& a, I64 pos) {
    return a.idx->rows[static_cast<size_t>(pos)];
  }
  /// Bucket range covering [date_lo, date_hi] (generation-time constants).
  std::pair<I64, I64> DateBucketSpan(const DateAcc& a, int64_t date_lo,
                                     int64_t date_hi) {
    int32_t b_lo = a.idx->BucketOf(static_cast<int32_t>(date_lo));
    int32_t b_hi = a.idx->BucketOf(static_cast<int32_t>(date_hi));
    return {a.idx->offsets[static_cast<size_t>(b_lo)],
            a.idx->offsets[static_cast<size_t>(b_hi) + 1]};
  }
  I64 DateIdxRow(const DateAcc& a, I64 pos) {
    return a.idx->rows[static_cast<size_t>(pos)];
  }

  // -- Output ---------------------------------------------------------------
  void EmitI64(I64 v) { out_ += std::to_string(v); }
  void EmitF64(F64 v) { out_ += FormatDouble(v); }
  void EmitDate(I64 v) { out_ += DateToString(static_cast<int32_t>(v)); }
  void EmitStr(Str s) { out_.append(s.p, static_cast<size_t>(s.n)); }
  void EmitSep() { out_ += '|'; }
  void EndRow() {
    out_ += '\n';
    ++rows_;
  }

  // -- Timing ---------------------------------------------------------------
  void StartTimer() { timer_.Reset(); }
  void StopTimer() { exec_ms_ = timer_.ElapsedMs(); }

  // -- Profiling (engine/profile.h) ------------------------------------------
  /// Immediate-execution halves of the profiling primitives: counters are
  /// host integers, updated as the query runs. Slot i pairs with the i-th
  /// ProfOpMeta recorded by BuildOp.
  I64 ProfNow() { return NowNs(); }
  void ProfRowOut(int slot) {
    EnsureProfSlot(slot);
    ++prof_[static_cast<size_t>(2 * slot)];
  }
  void ProfAddNs(int slot, I64 ns) {
    EnsureProfSlot(slot);
    prof_[static_cast<size_t>(2 * slot + 1)] += ns;
  }
  const std::vector<int64_t>& prof_counters() const { return prof_; }

  const rt::Database* db() const { return db_; }
  const std::string& output() const { return out_; }
  int64_t rows() const { return rows_; }
  double exec_ms() const { return exec_ms_; }

 private:
  void EnsureProfSlot(int slot) {
    size_t need = static_cast<size_t>(2 * slot + 2);
    if (prof_.size() < need) prof_.resize(need, 0);
  }

  const plan::ParamValue& ParamAt(int slot) const {
    LB2_CHECK_MSG(slot >= 0 &&
                      static_cast<size_t>(slot) < params_->size(),
                  "parameter slot out of range for bound vector");
    return (*params_)[static_cast<size_t>(slot)];
  }

  const rt::Database* db_;
  const plan::ParamVec* params_ = nullptr;
  MorselRun* morsels_ = nullptr;
  I64 cur_tid_ = 0;
  I64 lanes_ = 1;  // lanes of the running parallel region (1 outside one)
  std::vector<bool> break_stack_;
  std::string out_;
  int64_t rows_ = 0;
  Stopwatch timer_;
  double exec_ms_ = 0.0;
  std::vector<int64_t> prof_;
};

}  // namespace lb2::engine

#endif  // LB2_ENGINE_INTERP_BACKEND_H_
