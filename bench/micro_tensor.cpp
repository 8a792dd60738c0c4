// Micro-benchmarks of the tensor substrate: SGEMM, conv2d forward/backward,
// batch norm, and the elementwise kernels that dominate training time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "micro_main.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/gemm_packed.h"
#include "tensor/ops.h"

namespace {

using namespace flashgen;
using tensor::Shape;
using tensor::Tensor;

// Pins the worker-pool size to the benchmark's threads argument for the
// duration of one benchmark run and restores the default afterwards.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(benchmark::State& state, int threads) {
    common::set_num_threads(threads);
    state.counters["threads"] = static_cast<double>(common::num_threads());
  }
  ~ThreadsGuard() { common::set_num_threads(0); }
};

void BM_Sgemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  ThreadsGuard threads(state, static_cast<int>(state.range(1)));
  flashgen::Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    tensor::sgemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Sgemm)->ArgsProduct({{64, 128, 256}, {1, 2, 4}})
    ->ArgNames({"n", "threads"});

// Head-to-head backend comparison on the im2col serve shape class
// (oc x n*osp by ckk — the GEMM the conv forward spends its time in) plus a
// square case, single-threaded so the ratio is a pure kernel comparison.
// backend: 0 = reference, 1 = avx2 (skipped when not registered).
void BM_SgemmBackend(benchmark::State& state) {
  const bool want_avx2 = state.range(0) != 0;
  const std::int64_t m = state.range(1), n = state.range(2), k = state.range(3);
  const std::string backend = want_avx2 ? "avx2" : "reference";
  const auto names = tensor::gemm_backend_names();
  if (std::find(names.begin(), names.end(), backend) == names.end()) {
    state.SkipWithError("backend not registered on this host");
    return;
  }
  const std::string previous = tensor::gemm_backend_name();
  tensor::set_gemm_backend(backend);
  ThreadsGuard threads(state, 1);
  flashgen::Rng rng(1);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    tensor::sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
  state.SetLabel(backend);
  tensor::set_gemm_backend(previous);
}
BENCHMARK(BM_SgemmBackend)
    ->ArgsProduct({{0, 1}, {32}, {512}, {256}})   // im2col serve class
    ->ArgsProduct({{0, 1}, {256}, {256}, {256}})  // square
    ->ArgNames({"avx2", "m", "n", "k"});

// The four deep U-Net GEMMs a served generate spends its GEMM time in, per
// item m x n x k ("T" = transposed weight), issued the way the conv forward
// issues them: one strided-batched call whose weight is shared across the
// batch, so the packed backend sees batch * n columns. batch 8 is a full
// serve batch; batch 1 a lone request.
//
// route: 0 = reference backend; 1 = avx2 as dispatched (the GEMV route up to
// kGemvMaxCols folded columns, register tiles beyond); 2 = avx2 forced onto
// the default register tile (menu[0]) at every width. Routes 1 and 2 side by
// side at widths around kGemvMaxCols are the crossover sweep.
struct SkinnyShape {
  std::int64_t m, n, k;
  bool trans_a;
  const char* label;
};
constexpr SkinnyShape kSkinnyShapes[] = {{128, 1, 1184, false, "128x1x1184"},
                                         {1024, 1, 128, true, "1024x1x128T"},
                                         {512, 4, 128, true, "512x4x128T"},
                                         {64, 4, 672, false, "64x4x672"}};
constexpr const char* kSkinnyRoutes[] = {"reference", "avx2", "avx2-tile"};

void BM_SgemmSkinnyBatched(benchmark::State& state) {
  const std::int64_t route = state.range(0);
  const SkinnyShape& sh = kSkinnyShapes[state.range(1)];
  const std::int64_t batch = state.range(2);
  const std::string backend = route == 0 ? "reference" : "avx2";
  const auto names = tensor::gemm_backend_names();
  if (std::find(names.begin(), names.end(), backend) == names.end()) {
    state.SkipWithError("backend not registered on this host");
    return;
  }
  const std::string previous = tensor::gemm_backend_name();
  tensor::set_gemm_backend(backend);
  if (route == 2) tensor::detail::set_forced_packed_kernel(0);
  ThreadsGuard threads(state, 1);
  flashgen::Rng rng(1);
  std::vector<float> a(sh.m * sh.k), b(batch * sh.k * sh.n), c(batch * sh.m * sh.n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  tensor::GemmDesc d;
  d.trans_a = sh.trans_a;
  d.m = sh.m;
  d.n = sh.n;
  d.k = sh.k;
  d.lda = sh.trans_a ? sh.m : sh.k;
  d.ldb = sh.n;
  d.ldc = sh.n;
  d.batch_count = batch;
  d.stride_b = sh.k * sh.n;
  d.stride_c = sh.m * sh.n;
  for (auto _ : state) {
    tensor::sgemm_strided_batched(d, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * sh.m * sh.n * sh.k);
  state.counters["width"] = static_cast<double>(batch * sh.n);
  state.SetLabel(std::string(kSkinnyRoutes[route]) + " " + sh.label);
  tensor::detail::set_forced_packed_kernel(-1);
  tensor::set_gemm_backend(previous);
}
BENCHMARK(BM_SgemmSkinnyBatched)
    ->ArgsProduct({{0, 1, 2}, {0, 1}, {1, 2, 4, 6, 8, 12, 16, 20, 24, 32}})
    ->ArgsProduct({{0, 1, 2}, {2, 3}, {1, 2, 3, 4, 5, 6, 8}})
    ->ArgNames({"route", "shape", "batch"});

void BM_Conv2dForward(benchmark::State& state) {
  const tensor::Index size = state.range(0);
  ThreadsGuard threads(state, static_cast<int>(state.range(1)));
  flashgen::Rng rng(2);
  tensor::NoGradGuard no_grad;
  Tensor x = Tensor::randn(Shape{8, 16, size, size}, rng);
  Tensor w = Tensor::randn(Shape{32, 16, 4, 4}, rng, 0.02f);
  Tensor b = Tensor::zeros(Shape{32});
  for (auto _ : state) {
    Tensor y = tensor::conv2d(x, w, b, 2, 1);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_Conv2dForward)->ArgsProduct({{16, 32}, {1, 2, 4}})
    ->ArgNames({"size", "threads"});

void BM_Conv2dTrainStep(benchmark::State& state) {
  const tensor::Index size = state.range(0);
  ThreadsGuard threads(state, static_cast<int>(state.range(1)));
  flashgen::Rng rng(3);
  Tensor w = Tensor::randn(Shape{32, 16, 4, 4}, rng, 0.02f, /*requires_grad=*/true);
  Tensor b = Tensor::zeros(Shape{32}, true);
  for (auto _ : state) {
    Tensor x = Tensor::randn(Shape{4, 16, size, size}, rng);
    Tensor loss = tensor::mean(tensor::square(tensor::conv2d(x, w, b, 2, 1)));
    w.zero_grad();
    b.zero_grad();
    loss.backward();
    benchmark::DoNotOptimize(w.grad().data());
  }
}
BENCHMARK(BM_Conv2dTrainStep)->ArgsProduct({{16, 32}, {1, 2, 4}})
    ->ArgNames({"size", "threads"});

void BM_ConvTranspose2dForward(benchmark::State& state) {
  flashgen::Rng rng(4);
  tensor::NoGradGuard no_grad;
  Tensor x = Tensor::randn(Shape{8, 32, 8, 8}, rng);
  Tensor w = Tensor::randn(Shape{32, 16, 4, 4}, rng, 0.02f);
  for (auto _ : state) {
    Tensor y = tensor::conv_transpose2d(x, w, Tensor(), 2, 1);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_ConvTranspose2dForward);

void BM_BatchNormTraining(benchmark::State& state) {
  flashgen::Rng rng(5);
  tensor::NoGradGuard no_grad;
  Tensor x = Tensor::randn(Shape{8, 32, 16, 16}, rng);
  Tensor gamma = Tensor::full(Shape{32}, 1.0f);
  Tensor beta = Tensor::zeros(Shape{32});
  Tensor rm = Tensor::zeros(Shape{32});
  Tensor rv = Tensor::full(Shape{32}, 1.0f);
  for (auto _ : state) {
    Tensor y = tensor::batch_norm2d(x, gamma, beta, rm, rv, true);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_BatchNormTraining);

void BM_ElementwiseChain(benchmark::State& state) {
  flashgen::Rng rng(6);
  tensor::NoGradGuard no_grad;
  Tensor x = Tensor::randn(Shape{1 << 16}, rng);
  for (auto _ : state) {
    Tensor y = tensor::tanh(tensor::add_scalar(tensor::mul_scalar(x, 1.01f), 0.001f));
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_ElementwiseChain);

}  // namespace

int main(int argc, char** argv) {
  // The GEMM setup the numbers were taken with: the default backend, the
  // packed backend's default tile (menu[0], what "avx2-tile" forces) and the
  // GEMV route's width limit.
  flashgen::bench::JsonFields config;
  config.add("gemm_backend", tensor::gemm_backend_name());
  int count = 0;
  if (const tensor::detail::MicroKernel* menu = tensor::detail::packed_kernel_menu(&count)) {
    config.add("gemm_default_tile", std::to_string(menu[0].mr) + "x" + std::to_string(menu[0].nr) +
                                        (menu[0].isa == tensor::detail::KernelIsa::kAvx512
                                             ? " avx512"
                                             : " avx2"));
  }
  config.add("gemm_gemv_max_cols", tensor::detail::kGemvMaxCols);
  return flashgen::bench::run_micro_benchmarks("micro_tensor", argc, argv, std::move(config));
}
