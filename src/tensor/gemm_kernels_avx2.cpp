// 256-bit FMA kernels for the packed GEMM backend: the 6x16 register tile and
// the GEMV route. This translation unit is compiled for baseline x86-64 +
// AVX2/FMA regardless of the global -march flags (see
// src/tensor/CMakeLists.txt), so the binary stays runnable on any AVX2 host;
// gemm_packed.cpp gates both behind a CPUID check.
#include "tensor/gemm_packed.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

#include <algorithm>

namespace flashgen::tensor::detail {
namespace {

// Register tile of MR rows x (NV * 8) columns. One accumulator register per
// (row, vector) pair, updated by exactly one FMA per k step: each C element
// is a single rounding chain in strictly increasing-k order, the chain of the
// avx512 tile and the GEMV route below. The register-block loops are unrolled
// by pragma: without it GCC 12 keeps the accumulators on the stack and stores
// them on every k step.
template <int MR, int NV>
void kernel(std::int64_t k, const float* pa, const float* pb, float* acc) {
  constexpr int NR = NV * 8;
  __m256 c[MR][NV];
  #pragma GCC unroll 16
  for (int r = 0; r < MR; ++r)
    #pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) c[r][v] = _mm256_setzero_ps();
  for (std::int64_t p = 0; p < k; ++p) {
    __m256 b[NV];
    #pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) b[v] = _mm256_loadu_ps(pb + p * NR + v * 8);
    #pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const __m256 a = _mm256_broadcast_ss(pa + p * MR + r);
      #pragma GCC unroll 16
      for (int v = 0; v < NV; ++v) c[r][v] = _mm256_fmadd_ps(a, b[v], c[r][v]);
    }
  }
  #pragma GCC unroll 16
  for (int r = 0; r < MR; ++r)
    #pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) _mm256_storeu_ps(acc + r * NR + v * 8, c[r][v]);
}

// 16 ymm registers: 12 accumulators + 2 B vectors + 1 broadcast fit.
constexpr MicroKernel kTile = {6, 16, KernelIsa::kAvx2, &kernel<6, 2>};

// ---- GEMV route: rows on lanes, one accumulator register per column -------
//
// Each accumulator lane is one C element; it starts at +0 and takes exactly
// one FMA per k step, in increasing k, of (alpha * A) times the broadcast B
// value — the same chain (and the same alpha rounding) as every tile kernel
// above. C[r][t] lands in acc[t * ld_acc + r]. The loops over register
// blocks are unrolled by pragma: without it GCC keeps the accumulator arrays
// on the stack and stores them on every k step.

// Lanes below `valid` set: the mask of a tail row vector.
__m256i lane_mask(std::int64_t valid) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(valid)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Stored A is k x m (trans_a): row p holds op(A)[.][p] for consecutive rows,
// so RV row vectors stream straight from it, over k steps [p0, p1). The
// chain resumes from acc when p0 > 0 (a float round-trip through memory is
// exact). Only the last vector may be a masked tail (masked lanes read 0 and
// are never written back).
template <int NC, int RV, bool kScale, bool kMasked>
void gemv_trans_block(std::int64_t p0, std::int64_t p1, const float* a, std::int64_t lda,
                      __m256 alpha, __m256i mask, const float* pb, std::int64_t ldpb,
                      float* acc, std::int64_t ld_acc) {
  __m256 c[RV][NC];
  #pragma GCC unroll 16
  for (int v = 0; v < RV; ++v)
    #pragma GCC unroll 16
    for (int t = 0; t < NC; ++t)
      c[v][t] = p0 == 0 ? _mm256_setzero_ps() : _mm256_loadu_ps(acc + t * ld_acc + v * 8);
  for (std::int64_t p = p0; p < p1; ++p) {
    const float* row = a + p * lda;
    __m256 av[RV];
    #pragma GCC unroll 16
    for (int v = 0; v < RV; ++v) {
      av[v] = kMasked && v == RV - 1 ? _mm256_maskload_ps(row + v * 8, mask)
                                     : _mm256_loadu_ps(row + v * 8);
      if (kScale) av[v] = _mm256_mul_ps(alpha, av[v]);
    }
    #pragma GCC unroll 16
    for (int t = 0; t < NC; ++t) {
      const __m256 bv = _mm256_broadcast_ss(pb + p * ldpb + t);
      #pragma GCC unroll 16
      for (int v = 0; v < RV; ++v) c[v][t] = _mm256_fmadd_ps(av[v], bv, c[v][t]);
    }
  }
  #pragma GCC unroll 16
  for (int v = 0; v < RV; ++v)
    #pragma GCC unroll 16
    for (int t = 0; t < NC; ++t) _mm256_storeu_ps(acc + t * ld_acc + v * 8, c[v][t]);
}

// Four k steps of one 8-row vector, transposed in registers: rows r and
// r + 4 share a register (128-bit halves), then a 4x4 in-lane transpose
// leaves op(A)[rows 0..7][p + q] in out[q].
inline void transpose_8x4(const float* const* rows, std::int64_t p, __m256 out[4]) {
  __m256 x[4];
  #pragma GCC unroll 16
  for (int r = 0; r < 4; ++r)
    x[r] = _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_loadu_ps(rows[r] + p)),
                                _mm_loadu_ps(rows[r + 4] + p), 1);
  const __m256 t0 = _mm256_unpacklo_ps(x[0], x[1]), t1 = _mm256_unpackhi_ps(x[0], x[1]);
  const __m256 t2 = _mm256_unpacklo_ps(x[2], x[3]), t3 = _mm256_unpackhi_ps(x[2], x[3]);
  out[0] = _mm256_shuffle_ps(t0, t2, 0x44);
  out[1] = _mm256_shuffle_ps(t0, t2, 0xEE);
  out[2] = _mm256_shuffle_ps(t1, t3, 0x44);
  out[3] = _mm256_shuffle_ps(t1, t3, 0xEE);
}

// Stored A is m x k (plain): RV vectors of 8 rows each, transposed four k
// steps at a time in registers. Rows past `rows` re-read the last valid row,
// so nothing outside A is touched; their lanes are never written back.
template <int NC, int RV, bool kScale>
void gemv_plain_block(std::int64_t k, const float* a, std::int64_t lda, std::int64_t rows,
                      __m256 alpha, const float* pb, std::int64_t ldpb, float* acc,
                      std::int64_t ld_acc) {
  const float* rp[RV][8];
  #pragma GCC unroll 16
  for (int v = 0; v < RV; ++v)
    #pragma GCC unroll 16
    for (int r = 0; r < 8; ++r) rp[v][r] = a + std::min<std::int64_t>(v * 8 + r, rows - 1) * lda;
  __m256 c[RV][NC];
  #pragma GCC unroll 16
  for (int v = 0; v < RV; ++v)
    #pragma GCC unroll 16
    for (int t = 0; t < NC; ++t) c[v][t] = _mm256_setzero_ps();
  const auto step = [&](int v, __m256 av, std::int64_t p) {
    if (kScale) av = _mm256_mul_ps(alpha, av);
    #pragma GCC unroll 16
    for (int t = 0; t < NC; ++t)
      c[v][t] = _mm256_fmadd_ps(av, _mm256_broadcast_ss(pb + p * ldpb + t), c[v][t]);
  };
  std::int64_t p = 0;
  for (; p + 4 <= k; p += 4) {
    #pragma GCC unroll 16
    for (int v = 0; v < RV; ++v) {
      __m256 col[4];
      transpose_8x4(rp[v], p, col);
      #pragma GCC unroll 16
      for (int q = 0; q < 4; ++q) step(v, col[q], p + q);
    }
  }
  for (; p < k; ++p) {
    #pragma GCC unroll 16
    for (int v = 0; v < RV; ++v) {
      const float* const* r = rp[v];
      step(v, _mm256_setr_ps(r[0][p], r[1][p], r[2][p], r[3][p], r[4][p], r[5][p], r[6][p], r[7][p]),
           p);
    }
  }
  #pragma GCC unroll 16
  for (int v = 0; v < RV; ++v)
    #pragma GCC unroll 16
    for (int t = 0; t < NC; ++t) _mm256_storeu_ps(acc + t * ld_acc + v * 8, c[v][t]);
}

// Row vectors per register block: about eight accumulators in flight hide
// the FMA latency without spilling.
template <int NC>
constexpr int kGemvVectors = 8 / NC;

// k steps per pass over a trans_a row range. A pass reads eight stored rows
// of A front to back across the whole range — eight sequential streams the
// hardware prefetchers follow — where walking all of k per register block
// would touch a new page (and, for a cold weight, miss) on every step. The
// accumulators round-trip through acc between passes.
constexpr std::int64_t kTransKBlock = 8;

// NC (<= 4) columns of the block, starting at pb / acc.
template <int NC, bool kScale>
void gemv_cols(bool trans_a, std::int64_t rows, std::int64_t k, __m256 alpha, const float* a,
               std::int64_t lda, const float* pb, std::int64_t ldpb, float* acc,
               std::int64_t ld_acc) {
  constexpr int RV = kGemvVectors<NC>;
  if (trans_a) {
    const __m256i all = _mm256_set1_epi32(-1);
    for (std::int64_t p0 = 0; p0 < k; p0 += kTransKBlock) {
      const std::int64_t p1 = std::min(k, p0 + kTransKBlock);
      std::int64_t r = 0;
      for (; r + RV * 8 <= rows; r += RV * 8)
        gemv_trans_block<NC, RV, kScale, false>(p0, p1, a + r, lda, alpha, all, pb, ldpb,
                                                acc + r, ld_acc);
      for (; r + 8 <= rows; r += 8)
        gemv_trans_block<NC, 1, kScale, false>(p0, p1, a + r, lda, alpha, all, pb, ldpb,
                                               acc + r, ld_acc);
      if (r < rows)
        gemv_trans_block<NC, 1, kScale, true>(p0, p1, a + r, lda, alpha, lane_mask(rows - r),
                                              pb, ldpb, acc + r, ld_acc);
    }
  } else {
    constexpr int PV = RV >= 2 ? 2 : 1;  // the transpose already supplies ILP
    std::int64_t r = 0;
    for (; r + PV * 8 <= rows; r += PV * 8)
      gemv_plain_block<NC, PV, kScale>(k, a + r * lda, lda, PV * 8, alpha, pb, ldpb, acc + r,
                                       ld_acc);
    for (; r < rows; r += 8)
      gemv_plain_block<NC, 1, kScale>(k, a + r * lda, lda, rows - r, alpha, pb, ldpb, acc + r,
                                      ld_acc);
  }
}

// Columns go four at a time: wider register blocks spill.
template <bool kScale>
void gemv_passes(bool trans_a, std::int64_t rows, std::int64_t k, float alpha_s, const float* a,
                 std::int64_t lda, const float* pb, std::int64_t cols, float* acc,
                 std::int64_t ld_acc) {
  using Fn = decltype(&gemv_cols<1, kScale>);
  static constexpr Fn kByCols[] = {&gemv_cols<1, kScale>, &gemv_cols<2, kScale>,
                                   &gemv_cols<3, kScale>, &gemv_cols<4, kScale>};
  const __m256 alpha = _mm256_set1_ps(alpha_s);
  for (std::int64_t t0 = 0; t0 < cols; t0 += 4) {
    const std::int64_t nc = std::min<std::int64_t>(4, cols - t0);
    kByCols[nc - 1](trans_a, rows, k, alpha, a, lda, pb + t0, cols, acc + t0 * ld_acc, ld_acc);
  }
}

void gemv(bool trans_a, std::int64_t rows, std::int64_t k, float alpha, const float* a,
          std::int64_t lda, const float* pb, std::int64_t cols, float* acc, std::int64_t ld_acc) {
  // alpha == 1 skips the multiply; 1 * x == x exactly, so the bits agree.
  if (alpha == 1.0f)
    gemv_passes<false>(trans_a, rows, k, alpha, a, lda, pb, cols, acc, ld_acc);
  else
    gemv_passes<true>(trans_a, rows, k, alpha, a, lda, pb, cols, acc, ld_acc);
}

}  // namespace

const MicroKernel* avx2_tile_kernel() { return &kTile; }

GemvKernel avx2_gemv_kernel() { return &gemv; }

}  // namespace flashgen::tensor::detail

#else  // non-x86: no kernels; the packed backend is not registered.

namespace flashgen::tensor::detail {
const MicroKernel* avx2_tile_kernel() { return nullptr; }
GemvKernel avx2_gemv_kernel() { return nullptr; }
}  // namespace flashgen::tensor::detail

#endif
