// Internals of the packed ("avx2") GEMM backend: the microkernel menu, the
// forced-kernel hook used by tests and benches, and the backend factories.
// Tests and benches include this; everything else goes through gemm.h.
//
// A microkernel computes a full-K register tile: given packed panels
//   pa[k][mr] = alpha * op(A)[i0+r][p]   (rows beyond m zero-padded)
//   pb[k][nr] = op(B)[p][j0+j]           (cols beyond n zero-padded)
// it accumulates acc[r][j] = sum_p pa[p][r] * pb[p][j] with one FMA chain per
// element, strictly in increasing-p order. Because every element's sum is a
// single rounding chain over the full k range, the result bits are identical
// for every kernel in the menu (any mr/nr, 256-bit or 512-bit lanes): a host
// with AVX-512F and one without compute the same bits.
//
// The driver (packed_gemm_with_kernel) packs op(B) once per call, packs A one
// mr x k strip at a time inside each macro chunk (so scratch stays at one
// strip per worker, never a whole m x k panel), and folds the items of a
// shared-A batch into one column space; see gemm_packed.cpp.
//
// Calls whose column space is at most kGemvMaxCols wide skip the tiles and
// take the GEMV route: a rows-on-lanes kernel (GemvKernel) with one
// accumulator register per column that reads A where it is stored. Its lanes
// run the same chain — +0, then one FMA per k step of alpha * A times B, in
// increasing k — so it too is bit-identical to every menu kernel, and the
// route may depend on the folded width without changing any result.
#pragma once

#include <cstdint>
#include <memory>

#include "tensor/gemm_backend.h"

namespace flashgen::tensor {

std::unique_ptr<GemmBackend> make_reference_gemm_backend();
/// nullptr when the host CPU lacks AVX2+FMA (the backend is then simply not
/// registered and "reference" remains the only choice).
std::unique_ptr<GemmBackend> make_packed_gemm_backend();

namespace detail {

/// Instruction set a microkernel was compiled for.
enum class KernelIsa : std::uint8_t { kAvx2, kAvx512 };

struct MicroKernel {
  int mr;  // register-tile rows
  int nr;  // register-tile columns (multiple of the vector width)
  KernelIsa isa;
  void (*run)(std::int64_t k, const float* pa, const float* pb, float* acc);
};

/// The register tiles usable on this host, one per ISA, widest first: the
/// 14x32 avx512 tile when the CPU has AVX-512F, then the 6x16 avx2 tile.
/// Index 0 is the tile every tile-route call runs. Empty when AVX2+FMA is
/// missing. The pointer is stable for the process lifetime.
const MicroKernel* packed_kernel_menu(int* count);

/// Forces every packed-path GEMM onto menu[index], GEMV-width calls included
/// (-1 restores the GEMV route and menu[0]). Throws for index >= the menu
/// size. Test/bench hook.
void set_forced_packed_kernel(int index);

/// Runs `desc` through the packed tile path with an explicit kernel, never
/// the GEMV route.
void packed_gemm_with_kernel(const MicroKernel& kernel, const GemmDesc& desc, const float* a,
                             const float* b, float* c);

/// Widest column space the GEMV route takes: batch * n for a shared-A call
/// (the folded width), n otherwise. Wider calls run register tiles. Taken
/// from the BM_SgemmSkinnyBatched crossover sweep (bench/micro_tensor.cpp,
/// bench/results/micro_tensor.json): at 16 columns the GEMV route is still
/// faster than the default tile on every swept shape. A trial with the limit
/// at 32 was slower than the tile at 32 columns on three of the four.
constexpr std::int64_t kGemvMaxCols = 16;

/// The rows-on-lanes kernel of the GEMV route. For r < rows, t < cols (cols
/// in [1, kGemvMaxCols]) it writes
///   acc[t * ld_acc + r] = sum_p (alpha * op(A)[r][p]) * pb[p * cols + t]
/// as one FMA chain from +0 in increasing p — the tile kernels' chain — where
/// op(A)[r][p] is a[p * lda + r] with trans_a and a[r * lda + p] without.
/// acc must hold every column's rows rounded up to 8 (tail lanes are
/// scratch); A is never read outside its `rows` rows.
using GemvKernel = void (*)(bool trans_a, std::int64_t rows, std::int64_t k, float alpha,
                            const float* a, std::int64_t lda, const float* pb,
                            std::int64_t cols, float* acc, std::int64_t ld_acc);

/// True when the packed backend runs `desc` through the GEMV kernel: not a
/// fallback shape, and a column space of at most kGemvMaxCols.
bool packed_gemm_uses_gemv(const GemmDesc& desc);

/// True when `desc` is small enough that the packed backend routes it to the
/// reference loop nest instead of paying the packing overhead: k < 2, or a
/// per-item m*n*k below 2^14 (any n, including the skinny n < 8 shapes).
/// Depends on the per-item shape only, so batched and looped calls agree.
/// Exposed so tests can pick shapes on both sides of the threshold.
bool packed_gemm_uses_fallback(const GemmDesc& desc);

// Per-ISA register tiles (nullptr off x86), defined in gemm_kernels_avx2.cpp
// / gemm_kernels_avx512.cpp (compiled with the matching -m flags). A tile may
// be present in the binary yet unusable on the host; packed_kernel_menu()
// applies the runtime CPUID gate.
const MicroKernel* avx2_tile_kernel();
const MicroKernel* avx512_tile_kernel();
/// The 256-bit GEMV kernel (nullptr off x86), defined next to the avx2 tile.
GemvKernel avx2_gemv_kernel();

}  // namespace detail
}  // namespace flashgen::tensor
