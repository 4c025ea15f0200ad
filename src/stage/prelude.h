// The C runtime prelude embedded into every generated translation unit.
//
// These are the few "library" pieces the generated code calls into rather
// than inlining: the growable output buffer, string helpers (hashing,
// comparison, LIKE), and timing. Everything data-structure-shaped (hash
// tables, buffers, indexes) is specialized away at generation time and never
// appears here — that is the point of the paper.
#ifndef LB2_STAGE_PRELUDE_H_
#define LB2_STAGE_PRELUDE_H_

namespace lb2::stage {

inline constexpr const char* kCPrelude = R"PRELUDE(
#define _GNU_SOURCE /* qsort_r */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <stdint.h>
#include <stdbool.h>
#include <pthread.h>
#include <sys/time.h>

typedef struct {
  char* data;
  int64_t len;
  int64_t cap;
  int64_t rows;
  double exec_ms;
} lb2_out;

/* One bound query parameter (a literal hoisted out of the plan so the
   same compiled artifact serves every literal of a query shape). The host
   mirror is stage::ParamSlot; layouts must match. Ints, dates, and bools
   ride in i64; doubles keep their exact bit pattern in f64; strings are
   (ptr, len) views into host-owned storage that outlives the run. */
typedef struct {
  int64_t i64;
  double f64;
  const char* sp;
  int32_t sn;
} lb2_param;

/* Per-worker argument for generated parallel regions: the execution
   context of the run that spawned the worker plus the worker's lane id.
   Every run owns a private lb2_exec_ctx, so one loaded module may execute
   on any number of host threads concurrently. */
typedef struct {
  void* ctx;
  int64_t tid;
} lb2_thread_arg;

/* Shared morsel dispenser for morsel-driven pipelines. The execution
   context always points at one (never null, morsel_rows > 0): spine scans
   claim fixed-size row ranges (morsels) via an atomic fetch-add on `next` —
   idle workers steal the next morsel, and an interpreted prefix and a
   compiled suffix of the same query can drain one dispenser across a
   mid-query switch. `seed` optionally carries partial aggregate state
   exported by an interpreted prefix (seed_rows flat i64 rows; doubles as bit
   patterns, strings as (ptr,len) slot pairs into host-owned storage), folded
   in before the fill loop. `claims`, when non-null, counts executions per
   morsel so tests can assert exactly-once claiming. The host mirror is
   stage::MorselSource; layouts must match. */
typedef struct {
  volatile long long next;
  long long morsel_rows;
  long long seed_rows;
  const long long* seed;
  volatile long long* claims;
  long long claims_len;
} lb2_morsel_source;

static void lb2_out_reserve(lb2_out* o, int64_t extra) {
  if (o->len + extra <= o->cap) return;
  int64_t cap = o->cap ? o->cap * 2 : 4096;
  while (cap < o->len + extra) cap *= 2;
  o->data = (char*)realloc(o->data, (size_t)cap);
  o->cap = cap;
}

static void lb2_out_str(lb2_out* o, const char* s, int64_t n) {
  lb2_out_reserve(o, n);
  memcpy(o->data + o->len, s, (size_t)n);
  o->len += n;
}

static void lb2_out_cstr(lb2_out* o, const char* s) {
  lb2_out_str(o, s, (int64_t)strlen(s));
}

static void lb2_out_i64(lb2_out* o, int64_t v) {
  char buf[32];
  int n = snprintf(buf, sizeof(buf), "%lld", (long long)v);
  lb2_out_str(o, buf, n);
}

static void lb2_out_f64(lb2_out* o, double v) {
  char buf[64];
  int n = snprintf(buf, sizeof(buf), "%.4f", v);
  lb2_out_str(o, buf, n);
}

static void lb2_out_date(lb2_out* o, int64_t yyyymmdd) {
  char buf[16];
  int n = snprintf(buf, sizeof(buf), "%04d-%02d-%02d",
                   (int)(yyyymmdd / 10000), (int)((yyyymmdd / 100) % 100),
                   (int)(yyyymmdd % 100));
  lb2_out_str(o, buf, n);
}

static void lb2_out_char(lb2_out* o, char c) { lb2_out_str(o, &c, 1); }

static int64_t lb2_hash_i64(int64_t v) {
  uint64_t z = (uint64_t)v * 0x9e3779b97f4a7c15ULL;
  z ^= z >> 32;
  return (int64_t)z;
}

static int64_t lb2_hash_str(const char* s, int32_t n) {
  uint64_t h = 5381;
  for (int32_t i = 0; i < n; i++) h = ((h << 5) + h) + (uint8_t)s[i];
  return (int64_t)h;
}

static int64_t lb2_hash_combine(int64_t a, int64_t b) {
  uint64_t h = (uint64_t)a;
  h ^= (uint64_t)b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return (int64_t)h;
}

static bool lb2_str_eq(const char* a, int32_t an, const char* b, int32_t bn) {
  return an == bn && memcmp(a, b, (size_t)an) == 0;
}

static int32_t lb2_str_cmp(const char* a, int32_t an, const char* b,
                           int32_t bn) {
  int32_t n = an < bn ? an : bn;
  int c = memcmp(a, b, (size_t)n);
  if (c != 0) return c < 0 ? -1 : 1;
  return an == bn ? 0 : (an < bn ? -1 : 1);
}

static bool lb2_starts_with(const char* s, int32_t n, const char* p,
                            int32_t pn) {
  return n >= pn && memcmp(s, p, (size_t)pn) == 0;
}

static bool lb2_ends_with(const char* s, int32_t n, const char* p,
                          int32_t pn) {
  return n >= pn && memcmp(s + (n - pn), p, (size_t)pn) == 0;
}

static bool lb2_contains(const char* s, int32_t n, const char* p, int32_t pn) {
  if (pn == 0) return true;
  for (int32_t i = 0; i + pn <= n; i++) {
    if (s[i] == p[0] && memcmp(s + i, p, (size_t)pn) == 0) return true;
  }
  return false;
}

/* SQL LIKE with %% and _ wildcards (iterative backtracking matcher). */
static bool lb2_like(const char* s, int32_t n, const char* p, int32_t pn) {
  int32_t si = 0, pi = 0, star_p = -1, star_s = 0;
  while (si < n) {
    if (pi < pn && (p[pi] == '_' || p[pi] == s[si])) {
      si++; pi++;
    } else if (pi < pn && p[pi] == '%') {
      star_p = pi++; star_s = si;
    } else if (star_p >= 0) {
      pi = star_p + 1; si = ++star_s;
    } else {
      return false;
    }
  }
  while (pi < pn && p[pi] == '%') pi++;
  return pi == pn;
}

static int64_t lb2_d2i(double v) {
  int64_t out;
  memcpy(&out, &v, sizeof(out));
  return out;
}

static double lb2_i2d(int64_t v) {
  double out;
  memcpy(&out, &v, sizeof(out));
  return out;
}

static double lb2_now_ms(void) {
  struct timeval tv;
  gettimeofday(&tv, NULL);
  return (double)tv.tv_sec * 1000.0 + (double)tv.tv_usec / 1000.0;
}

/* Batch-at-a-time filter kernels for the vectorized codegen flavor. The
   generated code calls these with restrict-qualified column pointers
   (already offset to the batch base), a 0/1 byte flag array, and a
   selection vector of batch-relative row offsets. Each flag kernel is one
   `omp simd` loop (-fopenmp-simd); the compiler vectorizes it for the
   target the JIT compiles for. Column type T compares as R (a date's
   int32 widens to int64), matching the scalar expression evaluator
   exactly, including NaN: ordered compares are false, != is true. */
#define LB2_VFLAG(NAME, T, R, OP)                                        \
static void NAME(const T* restrict p, int64_t n, R rhs,                  \
                 uint8_t* restrict flags) {                              \
  _Pragma("omp simd")                                                    \
  for (int64_t i = 0; i < n; i++) flags[i] = (uint8_t)((R)p[i] OP rhs);  \
}

LB2_VFLAG(lb2_vflag_i64_lt, int64_t, int64_t, <)
LB2_VFLAG(lb2_vflag_i64_le, int64_t, int64_t, <=)
LB2_VFLAG(lb2_vflag_i64_gt, int64_t, int64_t, >)
LB2_VFLAG(lb2_vflag_i64_ge, int64_t, int64_t, >=)
LB2_VFLAG(lb2_vflag_i64_eq, int64_t, int64_t, ==)
LB2_VFLAG(lb2_vflag_i64_ne, int64_t, int64_t, !=)

LB2_VFLAG(lb2_vflag_i32_lt, int32_t, int64_t, <)
LB2_VFLAG(lb2_vflag_i32_le, int32_t, int64_t, <=)
LB2_VFLAG(lb2_vflag_i32_gt, int32_t, int64_t, >)
LB2_VFLAG(lb2_vflag_i32_ge, int32_t, int64_t, >=)
LB2_VFLAG(lb2_vflag_i32_eq, int32_t, int64_t, ==)
LB2_VFLAG(lb2_vflag_i32_ne, int32_t, int64_t, !=)

LB2_VFLAG(lb2_vflag_f64_lt, double, double, <)
LB2_VFLAG(lb2_vflag_f64_le, double, double, <=)
LB2_VFLAG(lb2_vflag_f64_gt, double, double, >)
LB2_VFLAG(lb2_vflag_f64_ge, double, double, >=)
LB2_VFLAG(lb2_vflag_f64_eq, double, double, ==)
LB2_VFLAG(lb2_vflag_f64_ne, double, double, !=)

/* Turns a flag batch into a selection vector of batch-relative offsets
   (branch-free append). Returns the selected count. */
static int64_t lb2_vcompact(const uint8_t* restrict flags, int64_t n,
                            int32_t* restrict sel) {
  int64_t cnt = 0;
  for (int64_t i = 0; i < n; i++) {
    sel[cnt] = (int32_t)i;
    cnt += flags[i];
  }
  return cnt;
}

/* Refines a selection vector in place against one more conjunct
   (branch-free compaction). Returns the surviving count. */
#define LB2_VREFINE(NAME, T, R, OP)                                      \
static int64_t NAME(const T* restrict p, int32_t* restrict sel,          \
                    int64_t cnt, R rhs) {                                \
  int64_t out = 0;                                                       \
  for (int64_t k = 0; k < cnt; k++) {                                    \
    int32_t j = sel[k];                                                  \
    sel[out] = j;                                                        \
    out += (int64_t)((R)p[j] OP rhs);                                    \
  }                                                                      \
  return out;                                                            \
}

LB2_VREFINE(lb2_vrefine_i64_lt, int64_t, int64_t, <)
LB2_VREFINE(lb2_vrefine_i64_le, int64_t, int64_t, <=)
LB2_VREFINE(lb2_vrefine_i64_gt, int64_t, int64_t, >)
LB2_VREFINE(lb2_vrefine_i64_ge, int64_t, int64_t, >=)
LB2_VREFINE(lb2_vrefine_i64_eq, int64_t, int64_t, ==)
LB2_VREFINE(lb2_vrefine_i64_ne, int64_t, int64_t, !=)

LB2_VREFINE(lb2_vrefine_i32_lt, int32_t, int64_t, <)
LB2_VREFINE(lb2_vrefine_i32_le, int32_t, int64_t, <=)
LB2_VREFINE(lb2_vrefine_i32_gt, int32_t, int64_t, >)
LB2_VREFINE(lb2_vrefine_i32_ge, int32_t, int64_t, >=)
LB2_VREFINE(lb2_vrefine_i32_eq, int32_t, int64_t, ==)
LB2_VREFINE(lb2_vrefine_i32_ne, int32_t, int64_t, !=)

LB2_VREFINE(lb2_vrefine_f64_lt, double, double, <)
LB2_VREFINE(lb2_vrefine_f64_le, double, double, <=)
LB2_VREFINE(lb2_vrefine_f64_gt, double, double, >)
LB2_VREFINE(lb2_vrefine_f64_ge, double, double, >=)
LB2_VREFINE(lb2_vrefine_f64_eq, double, double, ==)
LB2_VREFINE(lb2_vrefine_f64_ne, double, double, !=)

#undef LB2_VFLAG
#undef LB2_VREFINE
)PRELUDE";

}  // namespace lb2::stage

#endif  // LB2_STAGE_PRELUDE_H_
