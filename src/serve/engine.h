// InferenceEngine: forward-only execution of a trained GenerativeModel.
//
// The engine is the serving counterpart of GenerativeModel::generate(). It
// runs prepare_generation() once at construction and then executes batched
// sample_rows() calls under tensor::InferenceModeGuard, which
//   * disables gradient recording (no graph nodes, no type-erased backwards),
//   * draws op-result buffers from the executing thread's WorkspacePool so a
//     steady-state forward pass over fixed shapes does zero heap allocation,
//   * switches training-mode batch norm to per-sample statistics, making row
//     i of a batch bit-identical to the same request run alone.
//
// Determinism contract: generate_into(pl, rngs, out) row i equals
// model.generate(row_i, rng_i) bit-for-bit when rng_i starts from the same
// state as rngs[i]. With per-row conditions, row i at condition c equals the
// same request run alone at c, regardless of its batch neighbors.
//
// Threading: an engine instance is not thread-safe; the request batcher runs
// one executor thread per engine. The model must not be trained while an
// engine wraps it.
#pragma once

#include <cstdint>
#include <span>

#include "models/generative_model.h"
#include "tensor/workspace.h"

namespace flashgen::serve {

using models::Tensor;

struct EngineStats {
  std::uint64_t batches = 0;  // sample_rows calls executed
  std::uint64_t rows = 0;     // total rows across those calls
};

class InferenceEngine {
 public:
  /// Wraps a trained model and puts it in its generation configuration.
  /// The engine holds a reference; the model must outlive it.
  explicit InferenceEngine(models::GenerativeModel& model);

  /// Primes the executing thread's WorkspacePool for the shapes reached by
  /// `pl`-sized batches: runs `rounds` throwaway forward passes. Seeds are
  /// arbitrary (results are discarded).
  void warmup(const Tensor& pl, int rounds = 2);

  /// Batched forward-only sampling; row i consumes rngs[i] only.
  /// `conditions` is empty (the model's default condition) or holds one raw
  /// (PE, retention) condition per row, which requires
  /// model().condition_aware(). The result tensor is pooled: it returns its
  /// buffer to this thread's pool when destroyed, so destroy it on the
  /// calling thread (or use generate_into).
  Tensor sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs,
                     std::span<const data::Condition> conditions = {});

  /// sample_rows() + copy into a caller-owned buffer of pl.numel() floats
  /// (the generated array has the input's shape). Keeps pooled buffers on
  /// the executing thread regardless of where `out` is consumed.
  void generate_into(const Tensor& pl, std::span<flashgen::Rng> rngs, std::span<float> out,
                     std::span<const data::Condition> conditions = {});

  const EngineStats& stats() const { return stats_; }
  models::GenerativeModel& model() { return model_; }

 private:
  models::GenerativeModel& model_;
  EngineStats stats_;
};

}  // namespace flashgen::serve
