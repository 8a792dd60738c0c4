// The packed ("avx2") GEMM backend: pack op(B) into microkernel-shaped
// panels, then sweep register tiles over them with the FMA microkernel of the
// host's widest ISA (menu[0]). Two deterministic-parallel phases per call:
//
//   1. pack B  — (view, col-strip) chunks write disjoint [k][nr] panels with
//                tail columns zero-padded;
//   2. macro   — (group, row strip, column-strip range) chunks pack their
//                [k][mr] A strip (alpha folded in, tail rows zero-padded)
//                into per-thread scratch, run the microkernel over their
//                column strips and write back C with beta applied once.
//
// A call whose A is shared across the batch (stride_a == 0) is one GEMM
// over every item's columns side by side: the B packer reads each column
// from its own item and the write-back returns each result to its item, so
// a batch of n = 1 items fills one nr-wide panel instead of padding one
// panel per item. Other calls run each item as its own group.
//
// Every phase partitions by shape (and tile config) only, and each C element
// is produced by exactly one chunk as a single full-k FMA chain, so results
// are bit-identical across thread counts, batched-vs-looped calls, leading
// strides, and — because the chain never changes — every kernel in the menu.
// Problems too small to amortize packing fall back to the reference loop
// nest; the decision depends only on the per-item (m, n, k).
//
// The GEMV route. A call at most kGemvMaxCols columns wide (after folding)
// would fill 1–16 of a tile's 32 columns, so it runs the rows-on-lanes GEMV
// kernel instead: op(B) is packed into one k x cols strip, A is read where it
// is stored (no A packing, no panel memory), and (group, 256-row block)
// chunks write their column-major accumulators back through the same beta
// expression as the tiles. Each lane is the tiles' chain — +0, then one FMA
// per k step of the rounded alpha * A times B, in increasing k — so the
// route is bit-identical to every menu kernel. That is what lets the
// decision depend on the folded width (and so on the batch), which the
// fallback decision may not.
#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "tensor/gemm_backend.h"
#include "tensor/gemm_packed.h"
#include "tensor/gemm_util.h"
#include "tensor/workspace.h"

namespace flashgen::tensor {
namespace detail {

namespace {

// Largest register tile in the menu: the avx512 14x32 tile.
constexpr int kMaxTileElems = 14 * 32;

// Packed-path threshold: below this the packing traffic (m*k + k*n extra
// reads/writes) rivals the multiply count and the plain loop nest wins.
// Depends only on the per-item shape so batched and looped calls agree.
constexpr std::int64_t kMinPackedFlops = std::int64_t{1} << 14;

// Rows per GEMV-route chunk: the unit of parallel work and of the on-stack
// accumulator block (a multiple of every register block the kernel uses),
// long enough that each stored row of a transposed A is read in 1 KiB runs.
constexpr std::int64_t kGemvRows = 256;

// Macro-loop chunks a call is cut into (at least, when its column strips
// allow), so a few-row GEMM still spreads over the worker pool.
constexpr std::int64_t kMinMacroChunks = 8;

std::atomic<int> g_forced_kernel{-1};

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512f() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

// dst[p][r] = alpha * op(A)[i0 + r][p] for r < rows, 0 beyond (never reads
// outside the valid rows, so tight allocations stay ASan-clean).
void pack_a_strip(const GemmDesc& d, const float* a, std::int64_t i0, std::int64_t rows,
                  std::int64_t mr, float* dst) {
  const std::int64_t k = d.k;
  if (d.trans_a) {
    // Stored A is k x m with row stride lda: op(A)[i][p] = a[p*lda + i].
    for (std::int64_t p = 0; p < k; ++p) {
      const float* src = a + p * d.lda + i0;
      float* out = dst + p * mr;
      for (std::int64_t r = 0; r < rows; ++r) out[r] = d.alpha * src[r];
      for (std::int64_t r = rows; r < mr; ++r) out[r] = 0.0f;
    }
  } else {
    // Transpose in k-blocks so the strided panel writes stay in L1.
    constexpr std::int64_t kBlock = 128;
    for (std::int64_t p0 = 0; p0 < k; p0 += kBlock) {
      const std::int64_t p1 = std::min(k, p0 + kBlock);
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* src = a + (i0 + r) * d.lda;
        for (std::int64_t p = p0; p < p1; ++p) dst[p * mr + r] = d.alpha * src[p];
      }
    }
    if (rows < mr) {
      for (std::int64_t p = 0; p < k; ++p)
        for (std::int64_t r = rows; r < mr; ++r) dst[p * mr + r] = 0.0f;
    }
  }
}

// Column g of a group's column space is column g % n of item g / n. Unfolded
// groups only have g < n (always item 0 of the group); a folded shared-A call
// runs every item's columns side by side. `fn(item, j, len, offset)` sees
// maximal runs of `len` consecutive columns of one item, starting at its
// column j and at `offset` within [g0, g0 + cols).
template <typename Fn>
void for_each_item_run(std::int64_t n, std::int64_t g0, std::int64_t cols, Fn&& fn) {
  for (std::int64_t g = g0; g < g0 + cols;) {
    const std::int64_t item = g / n, j = g % n;
    const std::int64_t len = std::min(g0 + cols - g, n - j);
    fn(item, j, len, g - g0);
    g += len;
  }
}

// dst[p][t] = op(B_item)[p][j] for group column g0 + t (t < cols), 0 beyond.
void pack_b_strip(const GemmDesc& d, const float* b, std::int64_t g0, std::int64_t cols,
                  std::int64_t nr, float* dst) {
  const std::int64_t k = d.k;
  for_each_item_run(d.n, g0, cols, [&](std::int64_t item, std::int64_t j0, std::int64_t len,
                                       std::int64_t off) {
    const float* bi = b + item * d.stride_b;
    if (d.trans_b) {
      // Stored B is n x k with row stride ldb: op(B)[p][j] = b[j*ldb + p].
      for (std::int64_t j = 0; j < len; ++j) {
        const float* src = bi + (j0 + j) * d.ldb;
        for (std::int64_t p = 0; p < k; ++p) dst[p * nr + off + j] = src[p];
      }
    } else {
      for (std::int64_t p = 0; p < k; ++p) {
        const float* src = bi + p * d.ldb + j0;
        float* out = dst + p * nr + off;
        for (std::int64_t j = 0; j < len; ++j) out[j] = src[j];
      }
    }
  });
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t j = cols; j < nr; ++j) dst[p * nr + j] = 0.0f;
}

// One C element <- its accumulator with beta applied. beta == 0 never reads
// C (poisoned C stays inert). Both write-backs below go through this one
// expression, so the two routes round beta alike.
inline void store_c(float beta, float acc, float& c) {
  if (beta == 0.0f) {
    c = acc;
  } else if (beta == 1.0f) {
    c += acc;
  } else {
    c = acc + beta * c;
  }
}

// C tile <- row-major acc[r * nr + t], each column back into its own item.
// Padded accumulator rows/columns are simply not written.
void write_tile(const GemmDesc& d, const float* acc, std::int64_t nr, std::int64_t rows,
                std::int64_t g0, std::int64_t cols, float* c) {
  for_each_item_run(d.n, g0, cols, [&](std::int64_t item, std::int64_t j0, std::int64_t len,
                                       std::int64_t off) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* arow = acc + r * nr + off;
      float* crow = c + item * d.stride_c + r * d.ldc + j0;
      for (std::int64_t j = 0; j < len; ++j) store_c(d.beta, arow[j], crow[j]);
    }
  });
}

// The GEMV route's write-back: column-major acc[t * ld_acc + r], one column
// at a time (a column of a stride-1 C is a contiguous run).
void write_columns(const GemmDesc& d, const float* acc, std::int64_t ld_acc, std::int64_t rows,
                   std::int64_t cols, float* c) {
  for (std::int64_t t = 0; t < cols; ++t) {
    const float* acol = acc + t * ld_acc;
    float* ccol = c + (t / d.n) * d.stride_c + t % d.n;
    for (std::int64_t r = 0; r < rows; ++r) store_c(d.beta, acol[r], ccol[r * d.ldc]);
  }
}

// Grain helpers: all a function of shape + tile config only, never of the
// thread count, preserving the pool-size-invariant partition contract.
std::int64_t pack_grain(std::int64_t elems_per_strip) {
  return std::max<std::int64_t>(1, (std::int64_t{1} << 14) / std::max<std::int64_t>(1, elems_per_strip));
}
std::int64_t macro_grain(std::int64_t chunk_flops) {
  return std::max<std::int64_t>(1, (std::int64_t{1} << 15) / std::max<std::int64_t>(1, chunk_flops));
}

}  // namespace

bool packed_gemm_uses_fallback(const GemmDesc& desc) {
  return desc.k < 2 || desc.m * desc.n * desc.k < kMinPackedFlops;
}

bool packed_gemm_uses_gemv(const GemmDesc& desc) {
  const std::int64_t cols = desc.stride_a == 0 ? desc.batch_count * desc.n : desc.n;
  return cols <= kGemvMaxCols && !packed_gemm_uses_fallback(desc);
}

namespace {

// The GEMV route: op(B) is packed once into a [k][cols] panel per B view,
// then (group, row block) chunks run the rows-on-lanes kernel straight off
// A — no A packing — and write back through write_columns.
void packed_gemv(GemvKernel kernel, const GemmDesc& d, const float* a, const float* b,
                 float* c) {
  const std::int64_t m = d.m, k = d.k;
  const bool fold = d.stride_a == 0;
  const std::int64_t groups = fold ? 1 : d.batch_count;
  const std::int64_t cols = fold ? d.batch_count * d.n : d.n;
  const std::int64_t b_views = d.stride_b == 0 ? 1 : groups;
  const std::int64_t pb_view = k * cols;
  ScratchBuffer pb(static_cast<std::size_t>(b_views * pb_view));
  common::parallel_for(0, b_views, pack_grain(pb_view), [&](std::int64_t v0, std::int64_t v1) {
    for (std::int64_t v = v0; v < v1; ++v)
      pack_b_strip(d, b + v * d.stride_b, 0, cols, cols, pb.data() + v * pb_view);
  });
  const std::int64_t blocks = (m + kGemvRows - 1) / kGemvRows;
  common::parallel_for(0, groups * blocks, macro_grain(kGemvRows * k * cols),
                       [&](std::int64_t t0, std::int64_t t1) {
                         alignas(64) float acc[kGemvRows * kGemvMaxCols];
                         for (std::int64_t t = t0; t < t1; ++t) {
                           const std::int64_t grp = t / blocks, i0 = (t % blocks) * kGemvRows;
                           const std::int64_t rows = std::min(kGemvRows, m - i0);
                           const float* ag = a + grp * d.stride_a + (d.trans_a ? i0 : i0 * d.lda);
                           kernel(d.trans_a, rows, k, d.alpha, ag, d.lda,
                                  pb.data() + (b_views == 1 ? 0 : grp) * pb_view, cols, acc,
                                  kGemvRows);
                           write_columns(d, acc, kGemvRows, rows, cols,
                                         c + grp * d.stride_c + i0 * d.ldc);
                         }
                       });
}

}  // namespace

void packed_gemm_with_kernel(const MicroKernel& kernel, const GemmDesc& d, const float* a,
                             const float* b, float* c) {
  const std::int64_t mr = kernel.mr, nr = kernel.nr;
  FG_CHECK(mr * nr <= kMaxTileElems, "gemm microkernel tile too large: " << mr << "x" << nr);
  const std::int64_t m = d.m, k = d.k, batch = d.batch_count;
  // A shared A (stride 0) folds the batch into columns: one group of
  // batch * n columns. Otherwise each item is its own group of n columns.
  const bool fold = d.stride_a == 0;
  const std::int64_t groups = fold ? 1 : batch;
  const std::int64_t cols = fold ? batch * d.n : d.n;
  const std::int64_t m_strips = (m + mr - 1) / mr;
  const std::int64_t n_strips = (cols + nr - 1) / nr;
  const std::int64_t b_views = d.stride_b == 0 ? 1 : groups;
  const std::int64_t pb_strip = nr * k;

  ScratchBuffer pb(static_cast<std::size_t>(b_views) * n_strips * pb_strip);
  common::parallel_for(0, b_views * n_strips, pack_grain(pb_strip),
                       [&](std::int64_t t0, std::int64_t t1) {
                         for (std::int64_t t = t0; t < t1; ++t) {
                           const std::int64_t v = t / n_strips, g0 = (t % n_strips) * nr;
                           pack_b_strip(d, b + v * d.stride_b, g0, std::min(nr, cols - g0), nr,
                                        pb.data() + t * pb_strip);
                         }
                       });

  // Macro chunks are (group, row strip, column-strip range). A row strip is
  // cut into ranges only when there are too few row strips to go around
  // kMinMacroChunks workers; every range packs its own mr x k A strip.
  const std::int64_t row_strips = groups * m_strips;
  const std::int64_t ranges =
      std::clamp<std::int64_t>(kMinMacroChunks / row_strips, 1, n_strips);
  const std::int64_t strips_per_range = (n_strips + ranges - 1) / ranges;
  const std::int64_t n_ranges = (n_strips + strips_per_range - 1) / strips_per_range;
  common::parallel_for(
      0, row_strips * n_ranges, macro_grain(mr * nr * k * strips_per_range),
      [&](std::int64_t t0, std::int64_t t1) {
        ScratchBuffer pa(static_cast<std::size_t>(mr * k));
        alignas(64) float acc[kMaxTileElems];
        std::int64_t packed = -1;  // row strip currently held in pa
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t strip = t / n_ranges, range = t % n_ranges;
          const std::int64_t grp = strip / m_strips, i0 = (strip % m_strips) * mr;
          const std::int64_t rows = std::min(mr, m - i0);
          if (strip != packed) {
            pack_a_strip(d, a + grp * d.stride_a, i0, rows, mr, pa.data());
            packed = strip;
          }
          const float* pb_group = pb.data() + (b_views == 1 ? 0 : grp) * n_strips * pb_strip;
          float* c_rows = c + grp * d.stride_c + i0 * d.ldc;
          const std::int64_t js1 = std::min(n_strips, (range + 1) * strips_per_range);
          for (std::int64_t js = range * strips_per_range; js < js1; ++js) {
            kernel.run(k, pa.data(), pb_group + js * pb_strip, acc);
            const std::int64_t g0 = js * nr;
            write_tile(d, acc, nr, rows, g0, std::min(nr, cols - g0), c_rows);
          }
        }
      });
}

const MicroKernel* packed_kernel_menu(int* count) {
  static const std::vector<MicroKernel> menu = [] {
    std::vector<MicroKernel> out;
    if (cpu_has_avx2_fma()) {
      // Widest ISA first: index 0 is the kernel every tile-route call runs.
      if (cpu_has_avx512f()) out.push_back(*avx512_tile_kernel());
      out.push_back(*avx2_tile_kernel());
    }
    return out;
  }();
  *count = static_cast<int>(menu.size());
  return menu.empty() ? nullptr : menu.data();
}

void set_forced_packed_kernel(int index) {
  int count = 0;
  packed_kernel_menu(&count);
  FG_CHECK(index < count, "forced gemm kernel index " << index << " out of range (menu has "
                                                      << count << ")");
  g_forced_kernel.store(index < 0 ? -1 : index, std::memory_order_relaxed);
}

namespace {

class PackedGemmBackend final : public GemmBackend {
 public:
  const char* name() const override { return "avx2"; }
  void run(const GemmDesc& desc, const float* a, const float* b, float* c) const override {
    if (packed_gemm_uses_fallback(desc)) {
      reference_gemm(desc, a, b, c);
      return;
    }
    const int forced = g_forced_kernel.load(std::memory_order_relaxed);
    if (forced < 0 && packed_gemm_uses_gemv(desc)) {
      packed_gemv(avx2_gemv_kernel(), desc, a, b, c);
      return;
    }
    int count = 0;
    const MicroKernel* menu = packed_kernel_menu(&count);
    packed_gemm_with_kernel(menu[forced >= 0 ? forced : 0], desc, a, b, c);
  }
};

}  // namespace
}  // namespace detail

std::unique_ptr<GemmBackend> make_packed_gemm_backend() {
  int count = 0;
  detail::packed_kernel_menu(&count);
  if (count == 0) return nullptr;  // host can't run any kernel in the menu
  return std::make_unique<detail::PackedGemmBackend>();
}

}  // namespace flashgen::tensor
