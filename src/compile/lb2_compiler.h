// The LB2 query compiler: the staged-backend instantiation of the engine,
// plus the C → shared-object → callable pipeline. Compiling a query means
// *running the query interpreter* over symbolic values (first Futamura
// projection) — there are no plan-to-IR translation passes.
#ifndef LB2_COMPILE_LB2_COMPILER_H_
#define LB2_COMPILE_LB2_COMPILER_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/exec.h"
#include "plan/params.h"
#include "plan/plan.h"
#include "runtime/database.h"
#include "stage/jit.h"

namespace lb2::compile {

class CompiledQuery;

/// The product of the staging pass alone: the generated C translation unit
/// plus the environment layout that binds it to a live database — but no
/// external-compiler invocation yet. Staging is milliseconds; the external
/// cc is the expensive part. Splitting them lets a persistent artifact
/// cache re-stage a query cheaply (the env resolvers are process-local
/// closures and cannot be persisted), verify the source against a stored
/// artifact, and dlopen that artifact instead of compiling.
struct StagedQuery {
  std::string source;
  rt::EnvLayout env;
  double codegen_ms = 0.0;  // staging + emission time
  /// Per-operator profile metadata, recorded while staging when
  /// EngineOptions::profile is on (empty otherwise). Pairs with the
  /// lb2_prof counters the generated module exports.
  std::vector<engine::ProfOpMeta> prof_nodes;
  /// engine::LaneMorselCap of the staged plan at its thread count: the
  /// largest morsel size that still spreads its spine over every lane.
  int64_t morsel_cap = std::numeric_limits<int64_t>::max();
};

/// Stages and emits `q` against `db` (first Futamura projection only).
/// Aborts on an invalid plan or a reentrancy-lint violation in the
/// generated source — both are bugs in this library, not recoverable
/// serving conditions.
StagedQuery StageQuery(const plan::Query& q, const rt::Database& db,
                       const engine::EngineOptions& opts = {});

/// A compiled, loaded, re-runnable query bound to a database.
///
/// Thread-safety: the generated entry takes an explicit execution context
/// (`lb2_exec_ctx*`) and keeps no mutable file-scope state; Run() allocates
/// a private context per call, so any number of threads may Run() the same
/// CompiledQuery concurrently with independent results.
class CompiledQuery {
 public:
  struct RunResult {
    std::string text;
    int64_t rows = 0;
    /// Time spent in the generated code's timed region (excludes
    /// allocation when hoist_alloc is on — the paper's §4.4 experiment).
    double exec_ms = 0.0;
    /// Per-operator (rows, ns) counter pairs read back from this run's
    /// execution context; empty unless the query was compiled with
    /// EngineOptions::profile. Render with engine::RenderProfile against
    /// prof_nodes().
    std::vector<int64_t> prof;
  };

  /// Runs the compiled query. `params` binds values for the plan's
  /// canonicalized constant leaves; its size must be at least param_count()
  /// (nullptr is fine when param_count() == 0). The vector — including its
  /// string payloads — only needs to outlive this call. The spine claims
  /// its row ranges from a fresh dispenser of
  /// MorselRows(engine::kDefaultMorselRows) rows.
  RunResult Run(const plan::ParamVec* params = nullptr) const;

  /// Run off a caller-supplied dispenser (morsel_rows > 0, checked): the
  /// generated spine claims row ranges from `morsels` — and folds any seed
  /// rows an interpreted prefix exported into its sink before claiming
  /// (the mid-query switch; see engine/morsel.h). The dispenser's cursor is
  /// consumed where it stands: it is never reset here. Null behaves exactly
  /// like the plain Run().
  RunResult Run(const plan::ParamVec* params,
                stage::MorselSource* morsels) const;

  /// Morsel size for a fresh dispenser serving this query: `max_rows`,
  /// shrunk on a parallel build so that its spine spreads over every lane
  /// (engine::LaneMorselCap).
  int64_t MorselRows(int64_t max_rows) const {
    return std::min(max_rows, morsel_cap_);
  }

  /// Number of parameter slots the generated code reads (the module's
  /// `lb2_param_count` export; 0 for non-parameterized plans).
  int64_t param_count() const { return param_count_; }

  /// Profile metadata matching RunResult::prof (empty when the query was
  /// compiled without profiling).
  const std::vector<engine::ProfOpMeta>& prof_nodes() const {
    return prof_nodes_;
  }

  /// The generated C translation unit.
  const std::string& source() const { return mod_->source(); }
  /// Time emitting C (including staging the operator tree).
  double codegen_ms() const { return codegen_ms_; }
  /// Time in the external C compiler.
  double compile_ms() const { return mod_->compile_ms(); }
  /// On-disk size of the loaded shared object (cache byte accounting).
  int64_t so_bytes() const { return mod_->so_bytes(); }
  /// Path of the loaded shared object (artifact-store writeback).
  const std::string& so_path() const { return mod_->so_path(); }

 private:
  friend CompiledQuery CompileQuery(const plan::Query&, const rt::Database&,
                                    const engine::EngineOptions&,
                                    const std::string&);
  friend std::unique_ptr<CompiledQuery> TryCompileQuery(
      const plan::Query&, const rt::Database&, const engine::EngineOptions&,
      const std::string&, std::string*);
  friend std::unique_ptr<CompiledQuery> TryCompileStaged(const StagedQuery&,
                                                         const rt::Database&,
                                                         const std::string&,
                                                         std::string*);
  friend std::unique_ptr<CompiledQuery> TryLoadStaged(const StagedQuery&,
                                                      const rt::Database&,
                                                      const std::string&,
                                                      std::string*);
  friend CompiledQuery CompileTemplateQuery(const plan::Query&,
                                            const rt::Database&,
                                            const std::string&);
  static std::unique_ptr<CompiledQuery> FromModule(
      std::unique_ptr<stage::JitModule> mod, const StagedQuery& staged,
      const rt::Database& db);
  std::shared_ptr<stage::JitModule> mod_;
  stage::JitModule::QueryFn fn_ = nullptr;
  std::vector<void*> env_;
  int64_t ctx_bytes_ = 0;
  int64_t param_count_ = 0;
  int64_t morsel_cap_ = std::numeric_limits<int64_t>::max();
  double codegen_ms_ = 0.0;
  // Profiling exports (0/empty when compiled without profiling).
  int64_t prof_count_ = 0;
  int64_t prof_offset_ = 0;
  std::vector<engine::ProfOpMeta> prof_nodes_;
};

/// Stages, emits, compiles and loads `q` against `db`. `tag` names the
/// generated artifacts for debuggability. Aborts if the generated code
/// fails to compile (a bug in this library).
CompiledQuery CompileQuery(const plan::Query& q, const rt::Database& db,
                           const engine::EngineOptions& opts = {},
                           const std::string& tag = "q");

/// Non-aborting variant: returns nullptr and fills *error (captured
/// compiler stderr) on a generated-code compile or load failure, so a
/// serving layer can degrade to the interpreted path. The plan itself must
/// still be valid — plan validation errors remain hard failures.
std::unique_ptr<CompiledQuery> TryCompileQuery(const plan::Query& q,
                                               const rt::Database& db,
                                               const engine::EngineOptions& opts,
                                               const std::string& tag,
                                               std::string* error);

/// Compiles an already-staged query with the external compiler (the second
/// half of TryCompileQuery, for callers that staged separately to probe an
/// artifact cache first).
std::unique_ptr<CompiledQuery> TryCompileStaged(const StagedQuery& staged,
                                                const rt::Database& db,
                                                const std::string& tag,
                                                std::string* error);

/// How TryCompileStagedRetry rides out transient external-compiler
/// failures (OOM-killed cc, tmpfs contention, injected faults). Backoff is
/// exponential with a deterministic jitter multiplier in [0.5, 1.5) drawn
/// from `jitter_seed` — same seed, same sleep schedule, so fault tests
/// reproduce exactly.
struct RetryPolicy {
  int retries = 0;            // extra attempts after the first (0 = one try)
  double backoff_ms = 10.0;   // base sleep before attempt N+1 (doubles)
  uint64_t jitter_seed = 0;   // e.g. the query fingerprint hash
};

/// TryCompileStaged plus bounded retry. Sleeps between attempts per
/// `policy`; `*attempts` (optional) reports how many attempts ran, so the
/// caller can count retries = attempts - 1. The last attempt's error wins.
std::unique_ptr<CompiledQuery> TryCompileStagedRetry(const StagedQuery& staged,
                                                     const rt::Database& db,
                                                     const std::string& tag,
                                                     std::string* error,
                                                     const RetryPolicy& policy,
                                                     int* attempts = nullptr);

/// Binds an already-staged query to a previously-compiled shared object at
/// `so_path` — dlopen + ABI check, no external compiler. The caller is
/// responsible for having verified the artifact matches `staged.source`
/// (the service checks the source hash recorded in the artifact sidecar);
/// returns nullptr with *error filled if the artifact cannot be loaded.
std::unique_ptr<CompiledQuery> TryLoadStaged(const StagedQuery& staged,
                                             const rt::Database& db,
                                             const std::string& so_path,
                                             std::string* error);

}  // namespace lb2::compile

#endif  // LB2_COMPILE_LB2_COMPILER_H_
