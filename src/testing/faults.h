// Deterministic fault injection for the serving stack.
//
// The paper's core claim — the interpreter *is* the compiler — gives the
// service a free correctness oracle for every degraded path: whatever
// infrastructure fails (the external cc, an artifact write, dlopen, the
// disk), the interpreted evaluator must still answer, and answer the same
// rows. This layer makes those failures reproducible: tests (or an
// operator, via the LB2_FAULTS environment variable) arm a FaultPlan, and
// the injection sites threaded through stage/jit.cc, compile/lb2_compiler
// and service/artifact_store.cc consult it before touching the real world.
//
// Cost discipline: the sites are compiled in always — there is no build
// flavor to drift from production — but a disarmed check is exactly one
// relaxed atomic load (CheckFault below). No site sits on the warm request
// path (a cache hit runs no cc, no artifact I/O, no dlopen), so arming a
// plan cannot slow warm traffic either.
//
// Spec grammar (LB2_FAULTS or FaultPlan::Parse):
//
//   spec   := rule (';' rule)*
//   rule   := point ':' action (':' sched)*
//           | 'chaos' ':' <seed>
//   point  := cc_exec | artifact_write | artifact_rename | dlopen | disk
//           | drift_rebuild | midquery_switch
//   action := fail                 # report failure at the site
//           | short                # write only half the bytes (writes only)
//           | full                 # behave as ENOSPC (disk only)
//           | delay=<float>[ms]    # sleep before the real operation
//   sched  := every=<N>            # fire on every Nth hit (default 1 = all)
//           | times=<N>            # fire at most N times total
//           | once                 # times=1
//
// Example: "cc_exec:fail:every=3;artifact_write:short;dlopen:fail:once;
//           cc_exec:delay=200ms;disk:full"
//
// Determinism: rules fire on hit counts, never on wall-clock or real
// randomness, so a seeded test schedule produces the same injections on
// every run. Rules for one point compose (a delay and a fail can both
// apply); counters record every fire for tests and the service's
// `faults_injected` stat.
//
// Chaos mode (`LB2_FAULTS=chaos:<seed>`) arms *every* registered point at
// once with a seeded pseudo-random schedule: each site hit hashes
// (seed, point, per-point hit count) and fires ~1 in 8 times with an
// action valid at that point (fail/short/full plus small delays). Because
// the schedule depends only on the seed and deterministic hit counters —
// never on wall clock or real randomness — a given seed replays the same
// injection sequence per site on every run. This is the soak-lane mode:
// a load harness against a `chaos:`-armed server must see zero protocol
// violations and full recovery, whatever subset of the degrade paths the
// seed happens to exercise. Chaos composes with explicit rules.
#ifndef LB2_TESTING_FAULTS_H_
#define LB2_TESTING_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace lb2::testing {

enum class FaultPoint : int {
  kCcExec = 0,      // external-compiler invocation (stage/jit.cc)
  kArtifactWrite,   // artifact byte write (service/artifact_store.cc)
  kArtifactRename,  // rename step of an atomic artifact write
  kDlopen,          // dlopen of a generated or persisted shared object
  kDisk,            // disk capacity at artifact-store writes
  kDriftRebuild,    // start of a background drift or breaker repair
                    // build (service/service.cc)
  kMidquerySwitch,  // morsel-boundary stop poll of an interpreted prefix:
                    // `fail` forces the interpreted→compiled switch at the
                    // next boundary (service/service.cc)
};
inline constexpr int kFaultPointCount = 7;

/// "cc_exec", "artifact_write", ... (the spec-grammar names).
const char* FaultPointName(FaultPoint p);

/// What an armed site should do. Delays are served inside CheckFault (the
/// site never sees them); the flags select the site's failure branch.
struct FaultDecision {
  bool fail = false;         // report failure without the real operation
  bool short_write = false;  // write only half the bytes, report success
  bool full = false;         // behave as if the disk is full
};

/// One armed rule: an action at a point on a deterministic schedule.
struct FaultRule {
  enum class Action { kFail, kShort, kDelay, kFull };
  FaultPoint point = FaultPoint::kCcExec;
  Action action = Action::kFail;
  double delay_ms = 0.0;  // kDelay only
  int64_t every = 1;      // fire on every Nth matching hit
  int64_t times = -1;     // max total fires; -1 = unlimited
};

/// A set of rules, buildable in-process or parsed from the spec grammar.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses the LB2_FAULTS grammar. Returns false and fills *error (which
  /// names the offending rule) on any syntax or applicability violation —
  /// a bad spec must never be silently ignored.
  static bool Parse(const std::string& spec, FaultPlan* plan,
                    std::string* error);

  FaultPlan& Add(const FaultRule& rule);
  // Convenience builders for tests.
  FaultPlan& Fail(FaultPoint p, int64_t every = 1, int64_t times = -1);
  FaultPlan& Delay(FaultPoint p, double ms);
  FaultPlan& ShortWrite(int64_t every = 1, int64_t times = -1);
  FaultPlan& DiskFull(int64_t every = 1, int64_t times = -1);
  /// Arms seeded-random chaos over every point (see the header comment).
  FaultPlan& Chaos(uint64_t seed);

  const std::vector<FaultRule>& rules() const { return rules_; }
  bool has_chaos() const { return has_chaos_; }
  uint64_t chaos_seed() const { return chaos_seed_; }
  bool empty() const { return rules_.empty() && !has_chaos_; }

 private:
  std::vector<FaultRule> rules_;
  bool has_chaos_ = false;
  uint64_t chaos_seed_ = 0;
};

/// Arms `plan` process-wide, replacing any previous plan and resetting the
/// per-rule hit schedules (fired counters are cumulative; see below).
/// Thread-safe; an empty plan is equivalent to DisarmFaults().
void ArmFaults(const FaultPlan& plan);

/// Returns every site to the zero-cost disarmed path.
void DisarmFaults();

bool FaultsArmed();

/// Cumulative injections fired at `p` / across all points since process
/// start (survive Arm/Disarm so a service's `faults_injected` counter is
/// monotonic, as Prometheus counters must be).
int64_t FaultsFired(FaultPoint p);
int64_t FaultsFiredTotal();

namespace internal {
extern std::atomic<bool> g_armed;
FaultDecision Evaluate(FaultPoint p);
}  // namespace internal

/// The injection-site check. Disarmed: one relaxed atomic load, nothing
/// else. Armed: evaluates the plan's rules for `p` (serving any delay by
/// sleeping) and returns the composed decision.
inline FaultDecision CheckFault(FaultPoint p) {
  if (!internal::g_armed.load(std::memory_order_relaxed)) return {};
  return internal::Evaluate(p);
}

}  // namespace lb2::testing

#endif  // LB2_TESTING_FAULTS_H_
