#include "serve/engine.h"

#include <algorithm>

#include "common/error.h"
#include "common/stats.h"
#include "common/trace.h"

namespace flashgen::serve {

InferenceEngine::InferenceEngine(models::GenerativeModel& model) : model_(model) {
  model_.prepare_generation();
}

void InferenceEngine::warmup(const Tensor& pl, int rounds) {
  const auto n = static_cast<std::size_t>(pl.shape()[0]);
  std::vector<flashgen::Rng> rngs;
  for (int round = 0; round < rounds; ++round) {
    rngs.clear();
    for (std::size_t i = 0; i < n; ++i) {
      rngs.push_back(flashgen::Rng::from_stream(/*base=*/0, /*stream=*/i));
    }
    (void)sample_rows(pl, rngs);
  }
}

Tensor InferenceEngine::sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs,
                                    std::span<const data::Condition> conditions) {
  FG_CHECK(pl.defined() && pl.shape().rank() >= 1 &&
               static_cast<std::size_t>(pl.shape()[0]) == rngs.size() &&
               (conditions.empty() || conditions.size() == rngs.size()),
           "InferenceEngine: " << rngs.size() << " streams / " << conditions.size()
                               << " conditions for batch " << pl.shape());
  if (!conditions.empty()) {
    FG_CHECK(model_.condition_aware(),
             "InferenceEngine: model " << model_.name() << " does not accept conditions");
  }
  FG_TRACE_SPAN("serve.infer", "serve");
  tensor::InferenceModeGuard inference;
  Tensor out = model_.sample_rows(pl, rngs, conditions);
  ++stats_.batches;
  stats_.rows += rngs.size();
  static stats::Counter& rows_total = stats::counter("serve.rows_inferred");
  rows_total.add(rngs.size());
  return out;
}

void InferenceEngine::generate_into(const Tensor& pl, std::span<flashgen::Rng> rngs,
                                    std::span<float> out,
                                    std::span<const data::Condition> conditions) {
  Tensor result = sample_rows(pl, rngs, conditions);
  FG_CHECK(result.data().size() == out.size(),
           "InferenceEngine: output buffer holds " << out.size() << " floats but batch needs "
                                                   << result.data().size());
  std::copy(result.data().begin(), result.data().end(), out.begin());
}

}  // namespace flashgen::serve
