// Runtime compilation of generated C: write the translation unit, invoke the
// system C compiler, dlopen the shared object, resolve the query entry
// point. This is the last leg of the Futamura pipeline — the staged
// interpreter produced a C program; here it becomes native code.
#ifndef LB2_STAGE_JIT_H_
#define LB2_STAGE_JIT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "stage/ir.h"

namespace lb2::stage {

/// Mirror of the generated `lb2_out` struct (see prelude.h). The layouts
/// must match; a static_assert in jit.cc guards the contract.
struct QueryOut {
  char* data = nullptr;
  int64_t len = 0;
  int64_t cap = 0;
  int64_t rows = 0;
  double exec_ms = 0.0;
};

/// Mirror of the generated `lb2_param` struct (see prelude.h): one bound
/// query parameter. Ints/dates/bools ride in i64, doubles keep their bit
/// pattern in f64, strings are (ptr, len) views into host-owned storage.
struct ParamSlot {
  int64_t i64 = 0;
  double f64 = 0.0;
  const char* sp = nullptr;
  int32_t sn = 0;
};

/// Host-side mirror of the generated `lb2_morsel_source` struct (see
/// prelude.h): the shared morsel dispenser. Generated code claims morsels
/// with `__atomic_fetch_add` on `next`; the host side uses std::atomic.
/// Both compile to the same plain fetch-add on every supported target, and
/// the static_asserts in jit.cc pin the layout. `seed` carries partial
/// aggregate rows exported by an interpreted prefix (flat i64 slots);
/// `claims` is an optional per-morsel execution counter for tests.
struct MorselSource {
  std::atomic<long long> next{0};
  long long morsel_rows = 0;
  long long seed_rows = 0;
  const long long* seed = nullptr;
  std::atomic<long long>* claims = nullptr;
  long long claims_len = 0;
};

/// Host-side mirror of the fixed header of the generated `lb2_exec_ctx`
/// struct (see ir.cc). A caller sizes the full context with the module's
/// exported `lb2_ctx_bytes`, zeroes it, and fills in this four-pointer
/// header; the scratch fields that follow are private to the generated
/// code. One context per execution makes the entry fully reentrant.
/// `params` points at `lb2_param_count` bound literals for parameterized
/// modules (may stay null when the module references no parameter slots);
/// `morsels` points at the shared dispenser the spine claims row ranges
/// from — never null, with morsel_rows > 0 (CompiledQuery::Run binds a
/// fresh one when its caller passes none).
struct ExecCtxHeader {
  void** env = nullptr;
  QueryOut* out = nullptr;
  const ParamSlot* params = nullptr;
  MorselSource* morsels = nullptr;
};

/// A loaded query library. Owns the dlopen handle and the on-disk artifacts;
/// both are released on destruction. Hold it through a shared_ptr when the
/// code may still be executing on another thread: dlclose while a query is
/// mid-flight unmaps its text segment.
class JitModule {
 public:
  /// Query entry ABI: one opaque pointer to the module's own lb2_exec_ctx.
  using QueryFn = int64_t (*)(void* ctx);

  ~JitModule();
  JitModule(const JitModule&) = delete;
  JitModule& operator=(const JitModule&) = delete;

  /// Resolves the query entry point; aborts if missing.
  QueryFn entry(const std::string& name) const {
    return reinterpret_cast<QueryFn>(symbol(name));
  }

  /// Resolves an exported symbol (function or object); aborts if missing.
  void* symbol(const std::string& name) const;

  /// Non-aborting lookup for optional exports (e.g. the profiling counters
  /// a module only has when staged with profiling on); null when absent.
  void* TrySymbol(const std::string& name) const;

  /// Typed symbol resolution: `sym<int64_t(void**, QueryOut*)>("f")` for a
  /// function, `sym<const int64_t>("lb2_ctx_bytes")` for an object.
  template <typename T>
  T* sym(const std::string& name) const {
    return reinterpret_cast<T*>(symbol(name));
  }

  /// Size of the module's lb2_exec_ctx (the exported `lb2_ctx_bytes`).
  int64_t ctx_bytes() const { return *sym<const int64_t>("lb2_ctx_bytes"); }

  /// Generated C source (kept for inspection / the examples).
  const std::string& source() const { return source_; }

  /// Time spent emitting C text, and time spent in the external compiler.
  double codegen_ms() const { return codegen_ms_; }
  double compile_ms() const { return compile_ms_; }

  const std::string& c_path() const { return c_path_; }
  const std::string& so_path() const { return so_path_; }

  /// Size of the loaded shared object on disk (cache byte accounting).
  int64_t so_bytes() const { return so_bytes_; }

 private:
  friend class Jit;
  JitModule() = default;

  void* handle_ = nullptr;
  std::string source_;
  std::string c_path_;
  std::string so_path_;
  // False for modules loaded from a persistent artifact store: the .so
  // belongs to the store (its own eviction deletes it), not this module.
  bool owns_files_ = true;
  double codegen_ms_ = 0.0;
  double compile_ms_ = 0.0;
  int64_t so_bytes_ = 0;
};

/// Front door: compiles a CModule with the system C compiler.
class Jit {
 public:
  /// Compiler command; overridable via the LB2_CC environment variable.
  static std::string CompilerCommand();

  /// Flags always appended to the compile command for generated TUs:
  /// `-fopenmp-simd` (honor the prelude's `omp simd` hints without the
  /// OpenMP runtime) plus `-mavx2` when this host's CPU supports AVX2, so
  /// the compiler vectorizes the prelude's filter loops 256 bits wide.
  /// Folded into CompilerIdentity() so shared artifact directories never
  /// serve an AVX2 object to a host that cannot execute it.
  static std::string CodegenFlags();

  /// Identity string for the current compiler command: the resolved binary
  /// path plus the first line of `--version` output. Persistent artifact
  /// caches fold this into their keys so a shared object built by one
  /// compiler is never reused under another. Cached per distinct command
  /// (LB2_CC changes are picked up).
  static std::string CompilerIdentity();

  /// dlopens an already-compiled artifact at `so_path` — the persistent-
  /// cache fast path: no codegen emission, no external compiler. Verifies
  /// the reentrant-entry ABI (`lb2_query` + `lb2_ctx_bytes` exports) and
  /// returns nullptr with *error filled on any failure. The module does
  /// NOT own (and never deletes) the file; `source` is retained for
  /// inspection just like a compiled module's.
  static std::unique_ptr<JitModule> TryLoad(const std::string& so_path,
                                            const std::string& source,
                                            std::string* error);

  /// Emits, compiles (-O2 by default) and loads `module`. `tag` names the
  /// temp files for debuggability. Returns nullptr on a compiler or loader
  /// failure with the captured diagnostics in *error (the generated source
  /// is kept on disk for inspection) — recoverable, so a serving layer can
  /// degrade to the interpreted path instead of dying.
  static std::unique_ptr<JitModule> TryCompile(const CModule& module,
                                               const std::string& tag,
                                               const std::string& extra_flags,
                                               std::string* error);

  /// Same pipeline for an already-rendered C translation unit (used by the
  /// template-expansion compiler, which produces raw text).
  static std::unique_ptr<JitModule> TryCompileSource(
      const std::string& source, const std::string& tag,
      const std::string& extra_flags, std::string* error);

  /// Aborting wrappers around the Try* variants, for callers that treat a
  /// compile error in generated code as a bug in this library (tests,
  /// benchmarks, the one-shot examples).
  static std::unique_ptr<JitModule> Compile(const CModule& module,
                                            const std::string& tag,
                                            const std::string& extra_flags = "");
  static std::unique_ptr<JitModule> CompileSource(const std::string& source,
                                                  const std::string& tag,
                                                  const std::string& extra_flags = "");
};

}  // namespace lb2::stage

#endif  // LB2_STAGE_JIT_H_
