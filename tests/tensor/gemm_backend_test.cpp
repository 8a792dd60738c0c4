// Cross-backend GEMM conformance and bit-identity suite.
//
// Every registered backend runs the same parameterized fixture: a randomized
// property sweep against a naive triple-loop oracle over all transpose
// combinations, degenerate and tiny dimensions, non-contiguous leading
// strides, and the alpha/beta edge semantics (including beta == 0 over
// NaN-poisoned C). On top of conformance, each backend must be bit-identical
// across thread counts, across batched-vs-looped calls, and from run to run —
// the contract in gemm_backend.h. Backends are NOT required to agree with
// each other bitwise, and nothing here compares reference to avx2 beyond the
// shared oracle tolerance.
#include "tensor/gemm_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/gemm.h"
#include "tensor/gemm_packed.h"

namespace flashgen::tensor {
namespace {

// Naive oracle for one item of a strided-batched descriptor, accumulated in
// double: the conformance target every backend is held to within tolerance.
void oracle_item(const GemmDesc& d, const float* a, const float* b, const float* c_in,
                 float* c_out) {
  for (std::int64_t i = 0; i < d.m; ++i)
    for (std::int64_t j = 0; j < d.n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < d.k; ++p) {
        const float av = d.trans_a ? a[p * d.lda + i] : a[i * d.lda + p];
        const float bv = d.trans_b ? b[j * d.ldb + p] : b[p * d.ldb + j];
        acc += static_cast<double>(av) * bv;
      }
      const double prior = d.beta == 0.0f ? 0.0 : static_cast<double>(d.beta) * c_in[i * d.ldc + j];
      c_out[i * d.ldc + j] = static_cast<float>(d.alpha * acc + prior);
    }
}

std::vector<float> oracle(const GemmDesc& d, const std::vector<float>& a,
                          const std::vector<float>& b, const std::vector<float>& c) {
  std::vector<float> out = c;
  if (d.m == 0 || d.n == 0) return out;
  for (std::int64_t s = 0; s < d.batch_count; ++s) {
    if (d.k == 0 || d.alpha == 0.0f) {
      for (std::int64_t i = 0; i < d.m; ++i)
        for (std::int64_t j = 0; j < d.n; ++j) {
          const std::int64_t idx = s * d.stride_c + i * d.ldc + j;
          out[idx] = d.beta == 0.0f ? 0.0f : d.beta * c[idx];
        }
      continue;
    }
    oracle_item(d, a.data() + s * d.stride_a, b.data() + s * d.stride_b,
                c.data() + s * d.stride_c, out.data() + s * d.stride_c);
  }
  return out;
}

// Buffer sizes implied by a descriptor (tight beyond the leading strides).
std::size_t a_size(const GemmDesc& d) {
  const std::int64_t rows = d.trans_a ? d.k : d.m;
  const std::int64_t views = d.stride_a == 0 ? 1 : d.batch_count;
  return static_cast<std::size_t>(std::max<std::int64_t>(1, (views - 1) * d.stride_a + rows * d.lda));
}
std::size_t b_size(const GemmDesc& d) {
  const std::int64_t rows = d.trans_b ? d.n : d.k;
  const std::int64_t views = d.stride_b == 0 ? 1 : d.batch_count;
  return static_cast<std::size_t>(std::max<std::int64_t>(1, (views - 1) * d.stride_b + rows * d.ldb));
}
std::size_t c_size(const GemmDesc& d) {
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, (d.batch_count - 1) * d.stride_c + d.m * d.ldc));
}

void fill_normal(std::vector<float>& v, flashgen::Rng& rng) {
  for (auto& x : v) x = static_cast<float>(rng.normal());
}

// A strided-batched descriptor with padded leading dimensions and per-item
// strides; a shared A has stride 0, which the packed backend runs as one
// GEMM over every item's columns.
GemmDesc batched_desc(std::int64_t m, std::int64_t n, std::int64_t k, std::int64_t batch,
                      bool shared_a, bool trans_a, float beta) {
  GemmDesc d;
  d.trans_a = trans_a;
  d.m = m;
  d.n = n;
  d.k = k;
  d.alpha = 1.0f;
  d.beta = beta;
  d.lda = (trans_a ? m : k) + 2;
  d.ldb = n + 3;
  d.ldc = n + 1;
  d.batch_count = batch;
  d.stride_a = shared_a ? 0 : (trans_a ? k : m) * d.lda;
  d.stride_b = k * d.ldb;
  d.stride_c = m * d.ldc;
  return d;
}

// The deep U-Net layer classes: per-item n of 1 and 4 below one register
// tile. With a batch of 3 x n = 4 the folded columns (12) are not a
// multiple of any tile width.
struct SkinnyShape {
  std::int64_t m, n, k;
};
constexpr SkinnyShape kSkinnyShapes[] = {{130, 1, 131}, {130, 4, 131}};

class GemmBackendConformance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    previous_ = gemm_backend_name();
    set_gemm_backend(GetParam());
  }
  void TearDown() override {
    set_gemm_backend(previous_);
    common::set_num_threads(0);
  }
  std::string previous_;
};

TEST_P(GemmBackendConformance, ReportsItsOwnName) {
  EXPECT_EQ(gemm_backend_name(), GetParam());
}

// Randomized property sweep: every transpose combination x a shape grid that
// includes 0, 1, odd primes, and beyond-one-tile sizes x padded leading
// strides x the alpha/beta edge grid, all checked against the double oracle.
// The padding cells carry sentinels that must come back untouched.
TEST_P(GemmBackendConformance, MatchesOracleAcrossShapesStridesAndScalars) {
  flashgen::Rng rng(417);
  const struct {
    int m, n, k;
  } shapes[] = {{1, 1, 1}, {3, 1, 5}, {1, 9, 4},  {5, 7, 3},   {23, 31, 17},
                {8, 64, 2}, {64, 40, 33}, {16, 129, 65}, {33, 257, 48}, {0, 5, 3},
                {5, 0, 3},  {5, 7, 0}};
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (const auto& sh : shapes) {
        for (int pad : {0, 5}) {
          GemmDesc d;
          d.trans_a = ta;
          d.trans_b = tb;
          d.m = sh.m;
          d.n = sh.n;
          d.k = sh.k;
          d.lda = (ta ? std::max(sh.m, 1) : std::max(sh.k, 1)) + pad;
          d.ldb = (tb ? std::max(sh.k, 1) : std::max(sh.n, 1)) + pad;
          d.ldc = std::max(sh.n, 1) + pad;
          std::vector<float> a(a_size(d)), b(b_size(d)), c0(c_size(d));
          fill_normal(a, rng);
          fill_normal(b, rng);
          fill_normal(c0, rng);
          for (float alpha : {1.0f, 0.5f, 0.0f}) {
            for (float beta : {0.0f, 1.0f, -2.0f}) {
              d.alpha = alpha;
              d.beta = beta;
              const std::vector<float> expected = oracle(d, a, b, c0);
              std::vector<float> c = c0;
              sgemm_strided_batched(d, a.data(), b.data(), c.data());
              for (std::int64_t i = 0; i < d.m; ++i) {
                for (std::int64_t j = 0; j < d.ldc; ++j) {
                  const std::size_t idx = static_cast<std::size_t>(i * d.ldc + j);
                  if (j < d.n) {
                    EXPECT_NEAR(c[idx], expected[idx],
                                1e-3f * (1.0f + std::fabs(expected[idx])))
                        << "ta=" << ta << " tb=" << tb << " m=" << sh.m << " n=" << sh.n
                        << " k=" << sh.k << " pad=" << pad << " alpha=" << alpha
                        << " beta=" << beta << " at (" << i << "," << j << ")";
                  } else {
                    EXPECT_EQ(c[idx], c0[idx]) << "padding clobbered at (" << i << "," << j
                                               << ") pad=" << pad << " n=" << sh.n;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

// beta == 0 must overwrite C without reading it: a C poisoned with NaN (and
// signaling garbage) must come back finite whenever the product is finite.
TEST_P(GemmBackendConformance, BetaZeroNeverReadsPoisonedC) {
  flashgen::Rng rng(91);
  for (const auto& [m, n, k] : {std::tuple<int, int, int>{7, 9, 11},
                                std::tuple<int, int, int>{31, 64, 33},
                                std::tuple<int, int, int>{1, 17, 5}}) {
    GemmDesc d;
    d.m = m;
    d.n = n;
    d.k = k;
    d.lda = k;
    d.ldb = n;
    d.ldc = n;
    d.beta = 0.0f;
    std::vector<float> a(a_size(d)), b(b_size(d));
    std::vector<float> c(c_size(d), std::numeric_limits<float>::quiet_NaN());
    fill_normal(a, rng);
    fill_normal(b, rng);
    sgemm_strided_batched(d, a.data(), b.data(), c.data());
    for (std::size_t i = 0; i < c.size(); ++i)
      EXPECT_TRUE(std::isfinite(c[i])) << "NaN leaked from poisoned C at " << i
                                       << " (m=" << m << " n=" << n << " k=" << k << ")";
  }
}

// 0 * NaN in A/B must still propagate (reference semantics): backends may not
// skip multiplies on exact zeros.
TEST_P(GemmBackendConformance, ZeroTimesNanInOperandsPropagates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Large enough that the packed backend takes its packed path (not the
  // small-problem fallback): m*n*k >= 2^14 with n, k over the minimums.
  const int m = 8, n = 64, k = 64;
  std::vector<float> a(static_cast<std::size_t>(m) * k, 0.0f);
  std::vector<float> b(static_cast<std::size_t>(k) * n, 1.0f);
  b[5] = nan;
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
  EXPECT_TRUE(std::isnan(c[5])) << "0 * NaN was skipped in column 5";
  EXPECT_EQ(c[4], 0.0f);
}

// Thread-count invariance: the exact same bits at every pool size, on shapes
// straddling the packed backend's fallback threshold, plus skinny batched
// calls (shared and per-item A, both A layouts, beta 0 and 1).
TEST_P(GemmBackendConformance, BitIdenticalAcrossThreadCounts) {
  flashgen::Rng rng(5150);
  std::vector<GemmDesc> descs;
  for (const auto& [m, n, k] : {std::tuple<int, int, int>{5, 9, 7},      // tiny: fallback
                                std::tuple<int, int, int>{48, 96, 80},   // packed path
                                std::tuple<int, int, int>{130, 70, 19}}) {
    GemmDesc d;
    d.m = m;
    d.n = n;
    d.k = k;
    d.alpha = 1.0f;
    d.beta = 0.5f;
    d.lda = k;
    d.ldb = n;
    d.ldc = n;
    descs.push_back(d);
  }
  for (const SkinnyShape& sh : kSkinnyShapes)
    for (const std::int64_t batch : {1, 3, 8})
      for (const bool shared_a : {true, false})
        for (const bool trans_a : {false, true})
          for (const float beta : {0.0f, 1.0f})
            descs.push_back(batched_desc(sh.m, sh.n, sh.k, batch, shared_a, trans_a, beta));
  for (const GemmDesc& d : descs) {
    std::vector<float> a(a_size(d)), b(b_size(d)), c0(c_size(d));
    fill_normal(a, rng);
    fill_normal(b, rng);
    fill_normal(c0, rng);
    std::vector<float> c1;
    for (int threads : {1, 4}) {
      common::set_num_threads(threads);
      std::vector<float> c = c0;
      sgemm_strided_batched(d, a.data(), b.data(), c.data());
      if (threads == 1) {
        c1 = c;
      } else {
        EXPECT_EQ(c, c1) << "threads=" << threads << " changed bits at m=" << d.m
                         << " n=" << d.n << " k=" << d.k << " batch=" << d.batch_count
                         << " shared_a=" << (d.stride_a == 0) << " ta=" << d.trans_a
                         << " beta=" << d.beta;
      }
    }
    common::set_num_threads(0);
  }
}

// Batched-vs-looped bit identity: one strided-batched call (including a
// shared, stride-0 A and non-tight output strides) must equal running each
// item alone — the property the serve-path batch coalescing leans on. The
// skinny shapes cover the shared-A column folding at batch 1, 3 and 8.
TEST_P(GemmBackendConformance, BatchedCallMatchesLoopedCallsBitwise) {
  flashgen::Rng rng(77);
  for (const bool shared_a : {true, false}) {
    GemmDesc d;
    d.m = 24;
    d.n = 56;
    d.k = 40;
    d.alpha = 1.0f;
    d.beta = 0.0f;
    d.lda = d.k;
    d.ldb = d.n + 3;
    d.ldc = d.n + 1;
    d.batch_count = 4;
    d.stride_a = shared_a ? 0 : d.m * d.lda;
    d.stride_b = d.k * d.ldb;
    d.stride_c = d.m * d.ldc;
    std::vector<float> a(a_size(d)), b(b_size(d)), c0(c_size(d));
    fill_normal(a, rng);
    fill_normal(b, rng);
    fill_normal(c0, rng);

    std::vector<float> batched = c0;
    sgemm_strided_batched(d, a.data(), b.data(), batched.data());

    std::vector<float> looped = c0;
    GemmDesc single = d;
    single.batch_count = 1;
    single.stride_a = single.stride_b = single.stride_c = 0;
    for (std::int64_t s = 0; s < d.batch_count; ++s)
      sgemm_strided_batched(single, a.data() + s * d.stride_a, b.data() + s * d.stride_b,
                            looped.data() + s * d.stride_c);
    EXPECT_EQ(batched, looped) << "shared_a=" << shared_a;
  }
  for (const SkinnyShape& sh : kSkinnyShapes) {
    for (const std::int64_t batch : {1, 3, 8}) {
      for (const bool shared_a : {true, false}) {
        for (const bool trans_a : {false, true}) {
          for (const float beta : {0.0f, 1.0f}) {
            const GemmDesc d = batched_desc(sh.m, sh.n, sh.k, batch, shared_a, trans_a, beta);
            std::vector<float> a(a_size(d)), b(b_size(d)), c0(c_size(d));
            fill_normal(a, rng);
            fill_normal(b, rng);
            fill_normal(c0, rng);

            std::vector<float> batched = c0;
            sgemm_strided_batched(d, a.data(), b.data(), batched.data());

            std::vector<float> looped = c0;
            GemmDesc single = d;
            single.batch_count = 1;
            single.stride_a = single.stride_b = single.stride_c = 0;
            for (std::int64_t s = 0; s < batch; ++s)
              sgemm_strided_batched(single, a.data() + s * d.stride_a,
                                    b.data() + s * d.stride_b, looped.data() + s * d.stride_c);
            EXPECT_EQ(batched, looped)
                << "m=" << sh.m << " n=" << sh.n << " k=" << sh.k << " batch=" << batch
                << " shared_a=" << shared_a << " ta=" << trans_a << " beta=" << beta;
          }
        }
      }
    }
  }
}

// Run-to-run determinism: two identical calls, identical bits.
TEST_P(GemmBackendConformance, RunToRunDeterministic) {
  flashgen::Rng rng(13);
  GemmDesc d;
  d.m = 40;
  d.n = 72;
  d.k = 96;
  d.alpha = 0.75f;
  d.beta = 1.0f;
  d.lda = d.k;
  d.ldb = d.n;
  d.ldc = d.n;
  std::vector<float> a(a_size(d)), b(b_size(d)), c0(c_size(d));
  fill_normal(a, rng);
  fill_normal(b, rng);
  fill_normal(c0, rng);
  std::vector<float> r1 = c0, r2 = c0;
  sgemm_strided_batched(d, a.data(), b.data(), r1.data());
  sgemm_strided_batched(d, a.data(), b.data(), r2.data());
  EXPECT_EQ(r1, r2);
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredBackends, GemmBackendConformance,
                         ::testing::ValuesIn(gemm_backend_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(GemmBackendRegistry, ReferenceIsAlwaysRegistered) {
  const auto names = gemm_backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "reference"), names.end());
}

TEST(GemmBackendRegistry, UnknownNameThrowsAndKeepsSelection) {
  const std::string before = gemm_backend_name();
  EXPECT_THROW(set_gemm_backend("no-such-backend"), flashgen::Error);
  EXPECT_EQ(gemm_backend_name(), before);
}

// The menu holds one register tile per ISA the host can run, widest first,
// and menu[0] is the tile every tile-route call runs: 14x32 avx512 when the
// CPU has AVX-512F, 6x16 avx2 otherwise. Forcing an index past the end throws.
TEST(GemmPackedKernels, MenuHoldsOneTilePerUsableIsa) {
  int count = 0;
  const detail::MicroKernel* menu = detail::packed_kernel_menu(&count);
  if (count == 0) GTEST_SKIP() << "host lacks AVX2+FMA; packed backend not registered";

#if defined(__x86_64__) || defined(__i386__)
  const bool avx512 = __builtin_cpu_supports("avx512f");
#else
  const bool avx512 = false;
#endif
  ASSERT_EQ(count, avx512 ? 2 : 1);
  const auto expect_tile = [&](int index, int mr, int nr, detail::KernelIsa isa) {
    EXPECT_EQ(menu[index].mr, mr) << "menu[" << index << "]";
    EXPECT_EQ(menu[index].nr, nr) << "menu[" << index << "]";
    EXPECT_EQ(menu[index].isa, isa) << "menu[" << index << "]";
  };
  if (avx512) expect_tile(0, 14, 32, detail::KernelIsa::kAvx512);
  expect_tile(count - 1, 6, 16, detail::KernelIsa::kAvx2);

  EXPECT_THROW(detail::set_forced_packed_kernel(count), flashgen::Error);
  detail::set_forced_packed_kernel(count - 1);  // the last valid index is accepted
  detail::set_forced_packed_kernel(-1);
}

// Every kernel in the packed menu must produce the same bits: each C element
// is one full-k FMA chain regardless of tile shape or vector width, so a host
// with AVX-512F computes the bits of one without it.
TEST(GemmPackedKernels, AllMenuKernelsBitIdentical) {
  int count = 0;
  detail::packed_kernel_menu(&count);
  if (count == 0) GTEST_SKIP() << "host lacks AVX2+FMA; packed backend not registered";

  const std::string before = gemm_backend_name();
  set_gemm_backend("avx2");
  flashgen::Rng rng(2718);
  GemmDesc d;
  d.m = 37;
  d.n = 83;
  d.k = 51;
  d.alpha = 1.25f;
  d.beta = 0.5f;
  d.lda = d.k;
  d.ldb = d.n;
  d.ldc = d.n;
  // A folded skinny call too: 8 items x n = 1 share one tile-width panel,
  // which every menu kernel pads differently.
  GemmDesc folded = batched_desc(130, 1, 131, 8, /*shared_a=*/true, /*trans_a=*/true, 0.0f);
  folded.alpha = 1.25f;
  for (const GemmDesc& desc : {d, folded}) {
    ASSERT_FALSE(detail::packed_gemm_uses_fallback(desc));
    std::vector<float> a(a_size(desc)), b(b_size(desc)), c0(c_size(desc));
    fill_normal(a, rng);
    fill_normal(b, rng);
    fill_normal(c0, rng);

    std::vector<float> first;
    for (int index = 0; index < count; ++index) {
      detail::set_forced_packed_kernel(index);
      std::vector<float> c = c0;
      sgemm_strided_batched(desc, a.data(), b.data(), c.data());
      if (index == 0) {
        first = c;
      } else {
        EXPECT_EQ(c, first) << "kernel " << index << " diverged from kernel 0 (m=" << desc.m
                            << " n=" << desc.n << " batch=" << desc.batch_count << ")";
      }
    }
  }
  detail::set_forced_packed_kernel(-1);
  set_gemm_backend(before);
}

bool bits_equal(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// The GEMV route must return the bits of the register-tile path, for every
// menu kernel: same per-element FMA chain, same alpha rounding, same beta
// write-back. Cases straddle the route's width limit (a shared-A call folds
// batch * n columns), so the backend's choice between the two can never be
// seen in the results. Compared bitwise, since zero x NaN leaves NaNs in C.
TEST(GemmPackedGemv, RouteMatchesEveryMenuKernelBitwise) {
  int count = 0;
  const detail::MicroKernel* menu = detail::packed_kernel_menu(&count);
  if (count == 0) GTEST_SKIP() << "host lacks AVX2+FMA; packed backend not registered";

  const std::string before = gemm_backend_name();
  set_gemm_backend("avx2");
  const GemmBackend& backend = current_gemm_backend();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  flashgen::Rng rng(9091);
  struct Shape3 {
    std::int64_t m, k;
  };
  // m tails (m % 16 != 0, m < 8) and k tails (k % 4 != 0); each k keeps the
  // per-item product above the small-problem fallback for every n used.
  const Shape3 shapes[] = {{5, 3301}, {37, 449}, {130, 131}};
  int gemv_cases = 0, tile_cases = 0;
  for (const Shape3& sh : shapes) {
    for (const std::int64_t n : {1, 2, 4}) {
      for (const bool trans_a : {false, true}) {
        std::vector<GemmDesc> descs;
        for (std::int64_t batch = 1; batch <= 8; ++batch)
          descs.push_back(batched_desc(sh.m, n, sh.k, batch, /*shared_a=*/true, trans_a, 0.0f));
        descs.push_back(batched_desc(sh.m, n, sh.k, 3, /*shared_a=*/false, trans_a, 0.0f));
        GemmDesc tb = batched_desc(sh.m, n, sh.k, 2, /*shared_a=*/true, trans_a, 0.0f);
        tb.trans_b = true;
        tb.ldb = sh.k + 1;
        tb.stride_b = n * tb.ldb;
        descs.push_back(tb);
        for (GemmDesc d : descs) {
          std::vector<float> a(a_size(d)), b(b_size(d)), c_init(c_size(d));
          fill_normal(a, rng);
          fill_normal(b, rng);
          fill_normal(c_init, rng);
          // Zero x NaN: an exact-zero A entry against a NaN B entry must
          // still poison its C element on both routes.
          a[d.trans_a ? d.lda : 1] = 0.0f;
          b[d.trans_b ? 1 : d.ldb] = nan;
          const bool gemv = detail::packed_gemm_uses_gemv(d);
          ASSERT_FALSE(detail::packed_gemm_uses_fallback(d));
          ASSERT_EQ(gemv, (d.stride_a == 0 ? d.batch_count * n : n) <= detail::kGemvMaxCols);
          (gemv ? gemv_cases : tile_cases)++;
          // 1.25 * A rounds (0.5 * A does not), so only it pins where the
          // alpha product is taken.
          for (const float alpha : {1.0f, 0.5f, 1.25f}) {
            for (const float beta : {0.0f, 1.0f, 0.25f}) {
              d.alpha = alpha;
              d.beta = beta;
              // beta == 0 must never read C: poison it.
              const std::vector<float> c0 =
                  beta == 0.0f ? std::vector<float>(c_init.size(), nan) : c_init;
              std::vector<float> routed;
              for (const int threads : {1, 4}) {
                common::set_num_threads(threads);
                std::vector<float> c = c0;
                backend.run(d, a.data(), b.data(), c.data());
                if (threads == 1) {
                  routed = c;
                } else {
                  EXPECT_TRUE(bits_equal(c, routed)) << "threads=4 changed bits";
                }
              }
              common::set_num_threads(0);
              for (int index = 0; index < count; ++index) {
                std::vector<float> c = c0;
                detail::packed_gemm_with_kernel(menu[index], d, a.data(), b.data(), c.data());
                EXPECT_TRUE(bits_equal(c, routed))
                    << "kernel " << index << " vs " << (gemv ? "gemv" : "tile")
                    << " route: m=" << d.m << " n=" << d.n << " k=" << d.k
                    << " batch=" << d.batch_count << " shared_a=" << (d.stride_a == 0)
                    << " ta=" << d.trans_a << " tb=" << d.trans_b << " alpha=" << alpha
                    << " beta=" << beta;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(gemv_cases, 0);
  EXPECT_GT(tile_cases, 0);
  set_gemm_backend(before);
}

}  // namespace
}  // namespace flashgen::tensor
