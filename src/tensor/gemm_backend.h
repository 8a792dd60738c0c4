// Pluggable GEMM backends behind a narrow strided-batched descriptor API.
//
// Styled after MIOpenTensile's miopen_tensile_gemm: callers describe one
// (possibly batched) row-major SGEMM with a plain descriptor and the selected
// backend supplies the kernel. Two backends are always considered:
//
//   "reference"  the original row-blocked loop nest. Portable, and the bit
//                pattern every historical result was produced with.
//   "avx2"       packed A/B panels + a register-tiled FMA microkernel (6x16
//                avx2, or 14x32 avx512 when the host also has AVX-512F).
//                Registered only when the host CPU supports AVX2+FMA. A
//                call with a shared A (stride_a == 0) runs as one GEMM over
//                every item's columns, so a batch of skinny items
//                (n = 1..4) shares register tiles instead of padding one per
//                item; a column space of at most 16 runs a rows-on-lanes
//                GEMV kernel instead of tiles. Calls with k < 2 or a
//                per-item m*n*k below 2^14 go to the reference loop nest
//                instead.
//
// Selection: set_gemm_backend() beats the FLASHGEN_GEMM_BACKEND environment
// variable (read once, at first dispatch) beats the built-in default, which
// is the fastest registered backend ("avx2" when available).
//
// Backend contract (enforced by tests/tensor/gemm_backend_test.cpp):
//   * run() is only called with m, n, k >= 1, alpha != 0, batch_count >= 1;
//     the k == 0 / alpha == 0 "C = beta*C, never touch A or B" edge is
//     handled centrally in the dispatcher.
//   * Results are bit-identical for any FLASHGEN_THREADS value and for a
//     batched call vs. the equivalent loop of single calls: every C element
//     must be accumulated in a fixed order that depends only on the
//     per-item (m, n, k) — never on thread count, batch position, leading
//     strides, how items are grouped into one computation (the packed
//     backend's column folding), or the ISA of the tile that runs.
//   * So a backend may route a call on anything (the folded width, the
//     batch count, strides) only between kernels that produce the same
//     chain for every element — the packed backend's GEMV route and its
//     tiles. A choice between different chains (the packed backend's
//     reference fallback) may depend on the per-item (m, n, k) alone.
//   * beta == 0 overwrites C without reading it (NaN-poisoned C stays inert),
//     beta == 1 adds, anything else scales-and-adds.
// Backends are NOT required to agree with each other bit-for-bit — switching
// backends may change low bits, which is why the backend is a process-wide
// choice, not a per-call one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace flashgen::tensor {

/// One strided-batched row-major SGEMM:
///   C[s] = alpha * op(A[s]) * op(B[s]) + beta * C[s],  s in [0, batch_count)
/// where X[s] = x + s * stride_x, op(A) is m x k, op(B) is k x n, C is m x n,
/// and lda/ldb/ldc are the row strides of the *stored* (untransposed)
/// matrices. A stride of 0 shares one operand across the whole batch.
struct GemmDesc {
  bool trans_a = false;
  bool trans_b = false;
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  float alpha = 1.0f;
  float beta = 0.0f;
  std::int64_t lda = 0;
  std::int64_t ldb = 0;
  std::int64_t ldc = 0;
  std::int64_t batch_count = 1;
  std::int64_t stride_a = 0;
  std::int64_t stride_b = 0;
  std::int64_t stride_c = 0;
};

/// A GEMM implementation. Implementations must be stateless or internally
/// synchronized: one instance serves every thread in the process.
class GemmBackend {
 public:
  virtual ~GemmBackend() = default;
  virtual const char* name() const = 0;
  /// Computes the descriptor (see the file comment for the call contract).
  virtual void run(const GemmDesc& desc, const float* a, const float* b, float* c) const = 0;
};

/// Registers an additional backend (the built-ins register themselves).
/// A later registration under an existing name replaces the old backend.
void register_gemm_backend(std::unique_ptr<GemmBackend> backend);

/// Names of every registered backend, in registration order.
std::vector<std::string> gemm_backend_names();

/// Selects the process-wide backend. Throws flashgen::Error for an unknown
/// name (the current selection is left unchanged).
void set_gemm_backend(const std::string& name);

/// The currently selected backend (resolving FLASHGEN_GEMM_BACKEND and the
/// default on first use).
const GemmBackend& current_gemm_backend();

/// current_gemm_backend().name(), as a string.
std::string gemm_backend_name();

}  // namespace flashgen::tensor
