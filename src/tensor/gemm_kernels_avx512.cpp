// The 512-bit 14x32 register tile of the packed GEMM backend. Same contract as
// the AVX2 tile (one FMA chain per C element, strict k order), so it produces
// bit-identical results to the 256-bit kernels — AVX-512 is purely a
// throughput upgrade, selected at runtime when the host supports it.
#include "tensor/gemm_packed.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace flashgen::tensor::detail {
namespace {

template <int MR, int NV>
void kernel(std::int64_t k, const float* pa, const float* pb, float* acc) {
  constexpr int NR = NV * 16;
  __m512 c[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) c[r][v] = _mm512_setzero_ps();
  for (std::int64_t p = 0; p < k; ++p) {
    __m512 b[NV];
    for (int v = 0; v < NV; ++v) b[v] = _mm512_loadu_ps(pb + p * NR + v * 16);
    for (int r = 0; r < MR; ++r) {
      const __m512 a = _mm512_set1_ps(pa[p * MR + r]);
      for (int v = 0; v < NV; ++v) c[r][v] = _mm512_fmadd_ps(a, b[v], c[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) _mm512_storeu_ps(acc + r * NR + v * 16, c[r][v]);
}

// 32 zmm registers: 28 accumulators + 2 B vectors + 1 broadcast fit.
constexpr MicroKernel kTile = {14, 32, KernelIsa::kAvx512, &kernel<14, 2>};

}  // namespace

const MicroKernel* avx512_tile_kernel() { return &kTile; }

}  // namespace flashgen::tensor::detail

#else

namespace flashgen::tensor::detail {
const MicroKernel* avx512_tile_kernel() { return nullptr; }
}  // namespace flashgen::tensor::detail

#endif
