#include "compile/lb2_compiler.h"

#include <chrono>
#include <thread>

#include "engine/stage_backend.h"
#include "plan/validate.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/time.h"

namespace lb2::compile {

CompiledQuery::RunResult CompiledQuery::Run(
    const plan::ParamVec* params) const {
  return Run(params, nullptr);
}

CompiledQuery::RunResult CompiledQuery::Run(
    const plan::ParamVec* params, stage::MorselSource* morsels) const {
  // Spine scans always claim from a dispenser: the caller's, or a fresh
  // default one. A zero-size morsel would never advance the claim loop.
  stage::MorselSource fresh;
  fresh.morsel_rows = MorselRows(engine::kDefaultMorselRows);
  if (morsels == nullptr) morsels = &fresh;
  LB2_CHECK_MSG(morsels->morsel_rows > 0,
                "morsel dispenser needs morsel_rows > 0");
  stage::QueryOut out;
  // A private zeroed context per call: the fixed four-pointer header up
  // front, the module's scratch fields after it. This is what makes
  // concurrent Run() on one loaded module safe.
  std::vector<char> ctx_buf(static_cast<size_t>(ctx_bytes_), 0);
  auto* hdr = reinterpret_cast<stage::ExecCtxHeader*>(ctx_buf.data());
  hdr->env = const_cast<void**>(env_.data());
  hdr->out = &out;
  hdr->morsels = morsels;
  // Parameter binding: the module's lb2_param_count export says how many
  // slots its generated code reads, and the bound vector must cover all of
  // them — a short vector would mean reads of unbound slots. (The vector
  // may be *larger*: a canonicalized leaf in a subtree the staged code
  // never evaluates — an index-join build side replaced by probes, say —
  // gets a slot but no reference.) Typical plans carry a handful of
  // literals, so slots live on the stack; a plan whose literal count
  // exceeds the inline estimate spills to the heap.
  stage::ParamSlot inline_slots[8];
  std::vector<stage::ParamSlot> heap_slots;
  int64_t n = params != nullptr ? static_cast<int64_t>(params->size()) : 0;
  LB2_CHECK_MSG(n >= param_count_,
                "bound parameter vector smaller than the module's "
                "lb2_param_count export");
  if (n > 0) {
    stage::ParamSlot* slots = inline_slots;
    if (n > 8) {
      heap_slots.resize(static_cast<size_t>(n));
      slots = heap_slots.data();
    }
    for (int64_t i = 0; i < n; ++i) {
      const plan::ParamValue& v = (*params)[static_cast<size_t>(i)];
      slots[i].i64 = v.i64;
      slots[i].f64 = v.f64;
      slots[i].sp = v.str.data();
      slots[i].sn = static_cast<int32_t>(v.str.size());
    }
    hdr->params = slots;
  }
  int64_t rows = fn_(ctx_buf.data());
  RunResult r;
  r.rows = rows;
  r.exec_ms = out.exec_ms;
  if (out.data != nullptr) {
    r.text.assign(out.data, static_cast<size_t>(out.len));
    free(out.data);
  }
  if (prof_count_ > 0) {
    // The counters live at a fixed offset inside this run's private context,
    // so concurrent Run() calls keep independent profiles.
    const auto* p =
        reinterpret_cast<const int64_t*>(ctx_buf.data() + prof_offset_);
    r.prof.assign(p, p + 2 * prof_count_);
  }
  return r;
}

StagedQuery StageQuery(const plan::Query& q, const rt::Database& db,
                       const engine::EngineOptions& opts) {
  plan::ValidateQuery(q, db);

  Stopwatch staging_timer;
  stage::CodegenContext ctx;
  StagedQuery out;
  {
    stage::CodegenScope scope(&ctx);
    engine::StageBackend b(&ctx, &out.env, &db);
    engine::QueryCtx<engine::StageBackend> qctx;
    qctx.b = &b;
    qctx.db = &db;
    qctx.copts.use_dict = opts.use_dict;
    if (opts.profile) qctx.prof = &out.prof_nodes;

    ctx.BeginFunction("int64_t", "lb2_query", engine::StageBackend::EntryParams(),
                      /*is_static=*/false);
    engine::DriveQuery(b, qctx, q, opts);
    b.FreeOwnedAllocations();
    stage::Stmt("return lb2_ctx->out->rows;");
    ctx.EndFunction();
  }
  if (!out.prof_nodes.empty()) {
    ctx.module().SetProfSlots(static_cast<int>(out.prof_nodes.size()));
  }
  out.source = ctx.module().Emit();
  out.codegen_ms = staging_timer.ElapsedMs();
  out.morsel_cap = engine::LaneMorselCap(q, db, opts.num_threads);
  // Reentrancy invariant: all mutable state lives on lb2_exec_ctx.
  std::string leaked = stage::FindMutableFileScopeState(out.source);
  LB2_CHECK_MSG(leaked.empty(),
                ("mutable file-scope state in generated code: " + leaked)
                    .c_str());
  return out;
}

std::unique_ptr<CompiledQuery> CompiledQuery::FromModule(
    std::unique_ptr<stage::JitModule> mod, const StagedQuery& staged,
    const rt::Database& db) {
  auto cq = std::unique_ptr<CompiledQuery>(new CompiledQuery());
  cq->mod_ = std::move(mod);
  cq->fn_ = cq->mod_->entry("lb2_query");
  cq->ctx_bytes_ = cq->mod_->ctx_bytes();
  cq->env_ = staged.env.Materialize(db);
  cq->codegen_ms_ = staged.codegen_ms;
  cq->morsel_cap_ = staged.morsel_cap;
  // Parameter-slot count: always exported by freshly-staged modules; the
  // tolerant lookup keeps template-compiled and older artifacts (which
  // never hoist literals) working with an implicit count of zero.
  if (const void* pc = cq->mod_->TrySymbol("lb2_param_count")) {
    cq->param_count_ = *reinterpret_cast<const int64_t*>(pc);
  }
  // Optional profiling exports: present only when the query was staged with
  // EngineOptions::profile, including artifacts reloaded from disk.
  if (const void* count = cq->mod_->TrySymbol("lb2_prof_count")) {
    cq->prof_count_ = *reinterpret_cast<const int64_t*>(count);
    cq->prof_offset_ = *reinterpret_cast<const int64_t*>(
        cq->mod_->symbol("lb2_prof_offset"));
    cq->prof_nodes_ = staged.prof_nodes;
  }
  return cq;
}

std::unique_ptr<CompiledQuery> TryCompileStaged(const StagedQuery& staged,
                                                const rt::Database& db,
                                                const std::string& tag,
                                                std::string* error) {
  auto mod = stage::Jit::TryCompileSource(staged.source, tag, "", error);
  if (mod == nullptr) return nullptr;
  return CompiledQuery::FromModule(std::move(mod), staged, db);
}

std::unique_ptr<CompiledQuery> TryLoadStaged(const StagedQuery& staged,
                                             const rt::Database& db,
                                             const std::string& so_path,
                                             std::string* error) {
  auto mod = stage::Jit::TryLoad(so_path, staged.source, error);
  if (mod == nullptr) return nullptr;
  return CompiledQuery::FromModule(std::move(mod), staged, db);
}

std::unique_ptr<CompiledQuery> TryCompileStagedRetry(const StagedQuery& staged,
                                                     const rt::Database& db,
                                                     const std::string& tag,
                                                     std::string* error,
                                                     const RetryPolicy& policy,
                                                     int* attempts) {
  int max_attempts = 1 + (policy.retries > 0 ? policy.retries : 0);
  for (int attempt = 1;; ++attempt) {
    auto cq = TryCompileStaged(staged, db, tag, error);
    if (cq != nullptr || attempt >= max_attempts) {
      if (attempts != nullptr) *attempts = attempt;
      return cq;
    }
    // Exponential backoff with deterministic jitter: seed ^ attempt gives
    // each attempt an independent but reproducible multiplier.
    double base = policy.backoff_ms * static_cast<double>(1LL << (attempt - 1));
    Rng rng(policy.jitter_seed ^ static_cast<uint64_t>(attempt));
    double sleep_ms = base * rng.UniformDouble(0.5, 1.5);
    if (sleep_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    }
  }
}

std::unique_ptr<CompiledQuery> TryCompileQuery(const plan::Query& q,
                                               const rt::Database& db,
                                               const engine::EngineOptions& opts,
                                               const std::string& tag,
                                               std::string* error) {
  return TryCompileStaged(StageQuery(q, db, opts), db, tag, error);
}

CompiledQuery CompileQuery(const plan::Query& q, const rt::Database& db,
                           const engine::EngineOptions& opts,
                           const std::string& tag) {
  std::string error;
  auto cq = TryCompileQuery(q, db, opts, tag, &error);
  LB2_CHECK_MSG(cq != nullptr, error.c_str());
  return *cq;
}

}  // namespace lb2::compile
