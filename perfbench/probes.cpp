#include "probes.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "common/error.h"

namespace flashgen::perf {

class GemmProbe::Backend : public tensor::GemmBackend {
 public:
  explicit Backend(const tensor::GemmBackend& inner) : inner_(inner) {}

  const char* name() const override { return "perf-timing"; }

  void run(const tensor::GemmDesc& desc, const float* a, const float* b,
           float* c) const override {
    const auto t0 = Clock::now();
    inner_.run(desc, a, b, c);
    const double s = seconds_since(t0);
    std::lock_guard<std::mutex> lock(mutex_);
    GemmShape& shape = shapes_[{desc.m, desc.n, desc.k, desc.batch_count}];
    ++shape.calls;
    shape.seconds += s;
  }

  std::vector<GemmShape> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<GemmShape> out;
    for (const auto& [key, shape] : shapes_) {
      GemmShape s = shape;
      std::tie(s.m, s.n, s.k, s.batch) = key;
      out.push_back(s);
    }
    return out;
  }

 private:
  const tensor::GemmBackend& inner_;
  mutable std::mutex mutex_;
  mutable std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>, GemmShape>
      shapes_;
};

GemmProbe::GemmProbe() {
  static bool installed = false;
  FG_CHECK(!installed, "GemmProbe: one probe per process");
  installed = true;
  const tensor::GemmBackend& inner = tensor::current_gemm_backend();
  inner_name_ = inner.name();
  auto backend = std::make_unique<Backend>(inner);
  backend_ = backend.get();
  tensor::register_gemm_backend(std::move(backend));
  tensor::set_gemm_backend(backend_->name());
}

GemmProbe::~GemmProbe() { tensor::set_gemm_backend(inner_name_); }

std::vector<GemmShape> GemmProbe::shapes() const {
  std::vector<GemmShape> out = backend_->snapshot();
  std::sort(out.begin(), out.end(),
            [](const GemmShape& x, const GemmShape& y) { return x.seconds > y.seconds; });
  return out;
}

std::vector<std::vector<float>> TimingSampler::sample(
    std::span<const thresholds::RowRequest> rows, std::uint64_t seed,
    const data::Condition& condition) {
  const auto t0 = Clock::now();
  std::vector<std::vector<float>> out = inner_.sample(rows, seed, condition);
  seconds_ += seconds_since(t0);
  return out;
}

MeteredSource::MeteredSource(pipeline::SampleSource& inner, double seconds)
    : inner_(inner), seconds_(seconds) {}

void MeteredSource::begin_epoch(std::int64_t epoch, flashgen::Rng& rng) {
  inner_.begin_epoch(epoch, rng);
}

std::pair<tensor::Tensor, tensor::Tensor> MeteredSource::next_batch() {
  Batch batch = next_batch_cond();
  return {std::move(batch.pl), std::move(batch.vl)};
}

MeteredSource::Batch MeteredSource::next_batch_cond() {
  const auto called = Clock::now();
  if (!started_) {
    started_ = true;
    start_ = called;
  } else {
    steps_.push_back(
        Step{pending_wait_s_, std::chrono::duration<double>(called - last_return_).count()});
  }
  if (seconds_ > 0.0 && std::chrono::duration<double>(called - start_).count() >= seconds_) {
    throw TimeUp{};
  }
  Batch batch = inner_.next_batch_cond();
  last_return_ = Clock::now();
  pending_wait_s_ = std::chrono::duration<double>(last_return_ - called).count();
  return batch;
}

}  // namespace flashgen::perf
