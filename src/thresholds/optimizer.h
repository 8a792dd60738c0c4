// Wear-aware read-threshold optimization over the generative channel model.
//
// A flash controller reads a page by comparing cell voltages against the
// seven TLC read thresholds; as a block wears (PE cycles) and charge leaks
// (retention), the level distributions drift and the beginning-of-life
// midpoint thresholds start mis-detecting cells. The ThresholdOptimizer
// answers "where should the thresholds sit for THIS (PE, retention) state?"
// by sampling the trained conditional model instead of destructive
// characterization of real silicon:
//
//   1. Draw waves * batch_rows PL/VL sample rows at the queried condition in
//      one ChannelSampler call (in-process model, or the serving fleet) and
//      accumulate per-level eval::ConditionalHistograms.
//   2. Derive candidate thresholds with eval::thresholds_from_histograms
//      (the paper's smoothed-PDF crossing search).
//   3. Refine by coordinate descent on the estimated Gray-coded page BER:
//      thresholds move on the histogram's bin-edge lattice, each sweep
//      re-placing one threshold within +/-refine_radius bins while the
//      others hold, accepting only strict improvements (ties keep the
//      current edge, so the result is deterministic).
//
// The per-level bin counts are a sufficient statistic for every reported
// metric: estimated page BERs, the level error rate, and the mutual
// information of the (programmed level, detected level) channel — so the
// refinement never re-samples the model.
//
// Results are memoized in a versioned LRU cache keyed on the QUANTIZED
// condition (pe_quantum / retention_quantum buckets): repeated queries for
// nearby wear states are O(1) lookups, and invalidate() bumps the version so
// stale entries can never serve a reloaded model.
//
// Everything is deterministic: PL grids and latent draws use counter-derived
// Rng streams indexed by the global row number, so the report is a pure
// function of (model weights, OptimizerConfig, condition) — independent of
// batching, thread count, replica count, or cache state.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/normalization.h"
#include "eval/histogram.h"
#include "flash/read.h"

namespace flashgen::thresholds {

/// One row of sampling work: a normalized PL array plus the latent RNG
/// stream that generates its voltages.
struct RowRequest {
  std::vector<float> program_levels;  // normalized, side*side floats
  std::uint64_t stream = 0;
};

/// Source of conditional channel samples for the optimizer. Implementations
/// wrap an in-process model (ModelSampler) or the serving fleet
/// (serve::DispatcherSampler).
class ChannelSampler {
 public:
  virtual ~ChannelSampler() = default;

  /// Generates one voltage row (normalized, same cell layout as the request)
  /// per request, at `condition` (raw physical units). Row i's voltages must
  /// be a pure function of (model weights, rows[i].program_levels, seed,
  /// rows[i].stream, condition) — independent of how rows are batched — so
  /// optimizer reports stay bit-identical across samplers and fleets.
  virtual std::vector<std::vector<float>> sample(std::span<const RowRequest> rows,
                                                 std::uint64_t seed,
                                                 const data::Condition& condition) = 0;
};

struct OptimizerConfig {
  /// Sampled PL arrays are side x side cells (must match the model).
  int side = 16;
  /// Sampled rows per cold query = waves * batch_rows; all of them go to the
  /// ChannelSampler in one call, which batches them as it sees fit.
  int batch_rows = 8;
  int waves = 8;
  /// Base seed for the counter-derived PL and latent streams.
  std::uint64_t seed = 0x7451;
  /// Smoothing window for the initial histogram-crossing candidates.
  int smoothing_window = 5;
  /// Coordinate-descent search radius around each threshold, in bins.
  int refine_radius = 12;
  /// Full coordinate-descent sweeps over the seven thresholds.
  int refine_sweeps = 3;
  /// Cache quantization: conditions within the same (pe_quantum,
  /// retention_quantum) bucket share one cache entry.
  double pe_quantum = 100.0;
  double retention_quantum = 24.0;
  /// LRU capacity in reports; 0 disables caching.
  std::size_t cache_capacity = 64;
  eval::HistogramConfig histogram;
  data::NormalizerConfig norm;
};

/// Optimized thresholds plus the sample-estimated read metrics at one
/// condition. All estimates come from the same accumulated histograms the
/// thresholds were fit on.
struct ThresholdReport {
  flash::Thresholds thresholds{};
  /// Estimated raw bit error rate per Gray-coded page (Lower/Middle/Upper).
  std::array<double, flash::kTlcBitsPerCell> page_ber{};
  /// Fraction of cells detected at the wrong level.
  double level_error_rate = 0.0;
  /// Mutual information (bits/cell) of the programmed-level -> detected-level
  /// channel under the optimized thresholds; upper-bounded by log2(8) = 3.
  double mutual_information_bits = 0.0;
  /// Cells that backed the estimate (waves * batch_rows * side * side).
  std::uint64_t sample_cells = 0;
  /// True when the report came from the LRU cache without re-sampling.
  bool from_cache = false;
};

class ThresholdOptimizer {
 public:
  /// `sampler` must outlive the optimizer.
  explicit ThresholdOptimizer(ChannelSampler& sampler, OptimizerConfig config = {});

  /// Returns the optimized thresholds for `condition`, from the cache when a
  /// quantized match is present (from_cache = true, no sampling), otherwise
  /// computed and inserted. Thread-safe; concurrent queries serialize.
  ThresholdReport optimize(const data::Condition& condition);

  /// Drops every cached report and bumps the cache version, so entries
  /// computed against superseded model weights can never be served again.
  void invalidate();

  std::uint64_t cache_hits() const;
  std::uint64_t cache_misses() const;
  std::uint64_t cache_version() const;

  const OptimizerConfig& config() const { return config_; }

 private:
  struct CacheKey {
    std::uint64_t version = 0;
    long long pe_bucket = 0;
    long long retention_bucket = 0;
    auto operator<=>(const CacheKey&) const = default;
  };

  ThresholdReport compute(const data::Condition& condition);
  CacheKey key_for(const data::Condition& condition) const;

  ChannelSampler& sampler_;
  OptimizerConfig config_;

  mutable std::mutex mutex_;
  // LRU: most-recent at the front; index_ maps keys to list nodes so both
  // lookup and eviction are O(log n) / O(1).
  std::list<std::pair<CacheKey, ThresholdReport>> lru_;
  std::map<CacheKey, std::list<std::pair<CacheKey, ThresholdReport>>::iterator> index_;
  std::uint64_t version_ = 1;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace flashgen::thresholds
