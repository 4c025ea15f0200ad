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
   selection vector of batch-relative row offsets. Scalar loops carry
   `omp simd` hints (-fopenmp-simd); the hottest int64/double comparisons
   take an explicit AVX2 path when the JIT compiles with -mavx2.
   Comparison semantics match the scalar expression evaluator exactly,
   including NaN: ordered compares are false, != is true. */

#if defined(__AVX2__)
#include <immintrin.h>
#define LB2_VFLAG_I64_AVX2(MASK)                                         \
  {                                                                      \
    __m256i vr = _mm256_set1_epi64x(rhs);                                \
    for (; i + 4 <= n; i += 4) {                                         \
      __m256i v = _mm256_loadu_si256((const __m256i*)(p + i));           \
      int m = (MASK);                                                    \
      flags[i] = (uint8_t)(m & 1);                                       \
      flags[i + 1] = (uint8_t)((m >> 1) & 1);                            \
      flags[i + 2] = (uint8_t)((m >> 2) & 1);                            \
      flags[i + 3] = (uint8_t)((m >> 3) & 1);                            \
    }                                                                    \
  }
#define LB2_VFLAG_F64_AVX2(IMM)                                          \
  {                                                                      \
    __m256d vr = _mm256_set1_pd(rhs);                                    \
    for (; i + 4 <= n; i += 4) {                                         \
      int m = _mm256_movemask_pd(                                        \
          _mm256_cmp_pd(_mm256_loadu_pd(p + i), vr, IMM));               \
      flags[i] = (uint8_t)(m & 1);                                       \
      flags[i + 1] = (uint8_t)((m >> 1) & 1);                            \
      flags[i + 2] = (uint8_t)((m >> 2) & 1);                            \
      flags[i + 3] = (uint8_t)((m >> 3) & 1);                            \
    }                                                                    \
  }
#else
#define LB2_VFLAG_I64_AVX2(MASK)
#define LB2_VFLAG_F64_AVX2(IMM)
#endif

#define LB2_VFLAG_I64(NAME, OP, MASK)                                    \
static void NAME(const int64_t* restrict p, int64_t n, int64_t rhs,      \
                 uint8_t* restrict flags) {                              \
  int64_t i = 0;                                                         \
  LB2_VFLAG_I64_AVX2(MASK)                                               \
  /* omp simd needs a canonical loop: tail restarts from the AVX2 cut */ \
  _Pragma("omp simd")                                                    \
  for (int64_t j = i; j < n; j++) flags[j] = (uint8_t)(p[j] OP rhs);     \
}

#define LB2_VFLAG_I32(NAME, OP)                                          \
static void NAME(const int32_t* restrict p, int64_t n, int64_t rhs,      \
                 uint8_t* restrict flags) {                              \
  _Pragma("omp simd")                                                    \
  for (int64_t i = 0; i < n; i++)                                        \
    flags[i] = (uint8_t)((int64_t)p[i] OP rhs);                          \
}

#define LB2_VFLAG_F64(NAME, OP, IMM)                                     \
static void NAME(const double* restrict p, int64_t n, double rhs,        \
                 uint8_t* restrict flags) {                              \
  int64_t i = 0;                                                         \
  LB2_VFLAG_F64_AVX2(IMM)                                                \
  _Pragma("omp simd")                                                    \
  for (int64_t j = i; j < n; j++) flags[j] = (uint8_t)(p[j] OP rhs);     \
}

LB2_VFLAG_I64(lb2_vflag_i64_lt, <,
  _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(vr, v))))
LB2_VFLAG_I64(lb2_vflag_i64_le, <=,
  _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(v, vr))) ^ 15)
LB2_VFLAG_I64(lb2_vflag_i64_gt, >,
  _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(v, vr))))
LB2_VFLAG_I64(lb2_vflag_i64_ge, >=,
  _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(vr, v))) ^ 15)
LB2_VFLAG_I64(lb2_vflag_i64_eq, ==,
  _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, vr))))
LB2_VFLAG_I64(lb2_vflag_i64_ne, !=,
  _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, vr))) ^ 15)

LB2_VFLAG_I32(lb2_vflag_i32_lt, <)
LB2_VFLAG_I32(lb2_vflag_i32_le, <=)
LB2_VFLAG_I32(lb2_vflag_i32_gt, >)
LB2_VFLAG_I32(lb2_vflag_i32_ge, >=)
LB2_VFLAG_I32(lb2_vflag_i32_eq, ==)
LB2_VFLAG_I32(lb2_vflag_i32_ne, !=)

LB2_VFLAG_F64(lb2_vflag_f64_lt, <, _CMP_LT_OQ)
LB2_VFLAG_F64(lb2_vflag_f64_le, <=, _CMP_LE_OQ)
LB2_VFLAG_F64(lb2_vflag_f64_gt, >, _CMP_GT_OQ)
LB2_VFLAG_F64(lb2_vflag_f64_ge, >=, _CMP_GE_OQ)
LB2_VFLAG_F64(lb2_vflag_f64_eq, ==, _CMP_EQ_OQ)
LB2_VFLAG_F64(lb2_vflag_f64_ne, !=, _CMP_NEQ_UQ)

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
#define LB2_VREFINE_I64(NAME, OP)                                        \
static int64_t NAME(const int64_t* restrict p, int32_t* restrict sel,    \
                    int64_t cnt, int64_t rhs) {                          \
  int64_t out = 0;                                                       \
  for (int64_t k = 0; k < cnt; k++) {                                    \
    int32_t j = sel[k];                                                  \
    sel[out] = j;                                                        \
    out += (int64_t)(p[j] OP rhs);                                       \
  }                                                                      \
  return out;                                                            \
}

#define LB2_VREFINE_I32(NAME, OP)                                        \
static int64_t NAME(const int32_t* restrict p, int32_t* restrict sel,    \
                    int64_t cnt, int64_t rhs) {                          \
  int64_t out = 0;                                                       \
  for (int64_t k = 0; k < cnt; k++) {                                    \
    int32_t j = sel[k];                                                  \
    sel[out] = j;                                                        \
    out += (int64_t)((int64_t)p[j] OP rhs);                              \
  }                                                                      \
  return out;                                                            \
}

#define LB2_VREFINE_F64(NAME, OP)                                        \
static int64_t NAME(const double* restrict p, int32_t* restrict sel,     \
                    int64_t cnt, double rhs) {                           \
  int64_t out = 0;                                                       \
  for (int64_t k = 0; k < cnt; k++) {                                    \
    int32_t j = sel[k];                                                  \
    sel[out] = j;                                                        \
    out += (int64_t)(p[j] OP rhs);                                       \
  }                                                                      \
  return out;                                                            \
}

LB2_VREFINE_I64(lb2_vrefine_i64_lt, <)
LB2_VREFINE_I64(lb2_vrefine_i64_le, <=)
LB2_VREFINE_I64(lb2_vrefine_i64_gt, >)
LB2_VREFINE_I64(lb2_vrefine_i64_ge, >=)
LB2_VREFINE_I64(lb2_vrefine_i64_eq, ==)
LB2_VREFINE_I64(lb2_vrefine_i64_ne, !=)

LB2_VREFINE_I32(lb2_vrefine_i32_lt, <)
LB2_VREFINE_I32(lb2_vrefine_i32_le, <=)
LB2_VREFINE_I32(lb2_vrefine_i32_gt, >)
LB2_VREFINE_I32(lb2_vrefine_i32_ge, >=)
LB2_VREFINE_I32(lb2_vrefine_i32_eq, ==)
LB2_VREFINE_I32(lb2_vrefine_i32_ne, !=)

LB2_VREFINE_F64(lb2_vrefine_f64_lt, <)
LB2_VREFINE_F64(lb2_vrefine_f64_le, <=)
LB2_VREFINE_F64(lb2_vrefine_f64_gt, >)
LB2_VREFINE_F64(lb2_vrefine_f64_ge, >=)
LB2_VREFINE_F64(lb2_vrefine_f64_eq, ==)
LB2_VREFINE_F64(lb2_vrefine_f64_ne, !=)

#undef LB2_VFLAG_I64_AVX2
#undef LB2_VFLAG_F64_AVX2
#undef LB2_VFLAG_I64
#undef LB2_VFLAG_I32
#undef LB2_VFLAG_F64
#undef LB2_VREFINE_I64
#undef LB2_VREFINE_I32
#undef LB2_VREFINE_F64
)PRELUDE";

}  // namespace lb2::stage

#endif  // LB2_STAGE_PRELUDE_H_
