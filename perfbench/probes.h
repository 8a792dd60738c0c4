// Bench-side timing decorators around the library's public extension points.
// They measure a layer from outside: each wraps the real implementation,
// forwards every call unchanged, and records call counts and wall time.
//
//   GemmProbe      — a tensor::GemmBackend registered in front of the
//                    selected backend; per-shape (m, n, k, batch) call counts
//                    and time.
//   TimingSampler  — a thresholds::ChannelSampler; time spent sampling the
//                    model during cold threshold optimizations.
//   MeteredSource  — a pipeline::SampleSource; per-step time blocked on the
//                    pipeline vs. time training, and the run's deadline.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/sample_source.h"
#include "tensor/gemm_backend.h"
#include "thresholds/optimizer.h"

namespace flashgen::perf {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Aggregate over every GEMM call of one shape.
struct GemmShape {
  std::int64_t m = 0, n = 0, k = 0, batch = 0;
  std::uint64_t calls = 0;
  double seconds = 0.0;

  double flops() const {
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k) *
           static_cast<double>(batch) * static_cast<double>(calls);
  }
};

/// While alive, every GEMM in the process runs through a timing backend that
/// delegates to the backend selected before construction. One per process.
class GemmProbe {
 public:
  GemmProbe();
  ~GemmProbe();

  GemmProbe(const GemmProbe&) = delete;
  GemmProbe& operator=(const GemmProbe&) = delete;

  /// Per-shape totals so far, slowest total first.
  std::vector<GemmShape> shapes() const;

  class Backend;

 private:
  Backend* backend_;  // owned by the GEMM backend registry
  std::string inner_name_;
};

/// ChannelSampler decorator timing every sample() call.
class TimingSampler : public thresholds::ChannelSampler {
 public:
  explicit TimingSampler(thresholds::ChannelSampler& inner) : inner_(inner) {}

  std::vector<std::vector<float>> sample(std::span<const thresholds::RowRequest> rows,
                                         std::uint64_t seed,
                                         const data::Condition& condition) override;

  double seconds() const { return seconds_; }

 private:
  thresholds::ChannelSampler& inner_;
  double seconds_ = 0.0;
};

/// Thrown by MeteredSource when its deadline has passed: ends a timed
/// training run between two steps.
struct TimeUp {};

/// SampleSource decorator for timed training runs. Step i is split into the
/// time next_batch_cond() blocked (`wait_s`) and the time from its return to
/// the next call (`train_s`), i.e. the optimizer step itself.
class MeteredSource : public pipeline::SampleSource {
 public:
  struct Step {
    double wait_s = 0.0;
    double train_s = 0.0;
  };

  /// `seconds` <= 0 disables the deadline.
  MeteredSource(pipeline::SampleSource& inner, double seconds);

  pipeline::Index global_batch() const override { return inner_.global_batch(); }
  pipeline::Index batch_rows() const override { return inner_.batch_rows(); }
  std::int64_t batches_per_epoch() const override { return inner_.batches_per_epoch(); }
  int array_size() const override { return inner_.array_size(); }
  void begin_epoch(std::int64_t epoch, flashgen::Rng& rng) override;
  void skip_batches(std::int64_t n) override { inner_.skip_batches(n); }
  std::pair<tensor::Tensor, tensor::Tensor> next_batch() override;
  Batch next_batch_cond() override;
  std::uint64_t cursor() const override { return inner_.cursor(); }

  /// Completed steps (a step completes when the next batch is requested).
  const std::vector<Step>& steps() const { return steps_; }

 private:
  pipeline::SampleSource& inner_;
  double seconds_;
  Clock::time_point start_{};
  Clock::time_point last_return_{};
  bool started_ = false;
  double pending_wait_s_ = 0.0;
  std::vector<Step> steps_;
};

}  // namespace flashgen::perf
