// Host-side state for one morsel-driven execution (ROADMAP item 5). A
// MorselRun owns the shared dispenser (stage::MorselSource) that both the
// interpreted and the compiled build of one fingerprint consume: the
// interpreter claims morsels until a stop condition fires (the JIT landed,
// or a test forced a switch point), exports its partial aggregate state as
// flat i64 seed rows, and the compiled entry — handed the *same* dispenser —
// finishes the remaining morsels after folding the seed back in. Because
// `next` only ever moves forward, every morsel is executed exactly once
// across the two engines; the optional `claims` counters let tests prove it.
#ifndef LB2_ENGINE_MORSEL_H_
#define LB2_ENGINE_MORSEL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stage/jit.h"

namespace lb2::engine {

/// Default morsel size in rows: the dispenser CompiledQuery::Run and
/// ExecuteInterp bind when the caller passes none, and the service's
/// default (LB2_MORSEL_ROWS). Large enough that the fetch-add is noise,
/// small enough that a switch or steal happens within a few milliseconds
/// of scan work.
inline constexpr int64_t kDefaultMorselRows = 65536;

/// One morsel-driven run: dispenser + optional claim counters + the seed
/// handoff buffer an interpreted prefix fills for the compiled suffix.
struct MorselRun {
  /// The dispenser shared with generated code (layout pinned in jit.cc).
  stage::MorselSource source;

  /// Backing store for source.claims when a test asks for exactly-once
  /// accounting (EnableClaims).
  std::unique_ptr<std::atomic<long long>[]> claim_storage;

  /// Polled by the interpreter before each claim; returning true stops the
  /// run at the current morsel boundary (sets `stopped`). Unset = run to
  /// completion.
  std::function<bool()> stop_poll;

  /// True once stop_poll fired: the pipeline's sink exported seed rows
  /// instead of emitting results, and a compiled suffix must finish the job.
  bool stopped = false;

  /// Morsels actually claimed by the interpreted prefix.
  long long claimed = 0;

  /// Partial aggregate state exported at the stop point: `seed_rows` rows
  /// of `seed.size()/seed_rows` i64 slots each (key fields first, then
  /// accumulator values; doubles travel as bit patterns, raw strings as
  /// (ptr,len) pairs into `seed_strings`). The slot layout is a pure
  /// function of the plan + database, so the compiled build derives the
  /// same stride independently.
  std::vector<long long> seed;
  long long seed_rows = 0;

  /// Owns the bytes behind string seed slots. A deque never moves elements
  /// on push_back, so the (ptr,len) slots stay valid as rows accumulate.
  std::deque<std::string> seed_strings;

  explicit MorselRun(int64_t morsel_rows = kDefaultMorselRows) {
    source.morsel_rows = morsel_rows;
  }

  /// Allocates zeroed per-morsel claim counters so tests can assert every
  /// morsel index in [0, n) was executed exactly once across engines.
  void EnableClaims(int64_t n) {
    claim_storage.reset(new std::atomic<long long>[static_cast<size_t>(n)]);
    for (int64_t i = 0; i < n; ++i) {
      claim_storage[static_cast<size_t>(i)].store(0,
                                                  std::memory_order_relaxed);
    }
    source.claims = claim_storage.get();
    source.claims_len = n;
  }

  /// Publishes the exported seed rows to the dispenser the compiled suffix
  /// reads. Call after the interpreted prefix returned with `stopped` set.
  void SealSeed() {
    source.seed = seed.empty() ? nullptr : seed.data();
    source.seed_rows = seed_rows;
  }
};

}  // namespace lb2::engine

#endif  // LB2_ENGINE_MORSEL_H_
