#include "thresholds/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "eval/thresholds.h"
#include "flash/gray_code.h"

namespace flashgen::thresholds {

namespace {

// PL streams live 2^32 above the latent streams, so the grid a row programs
// never shares an Rng stream with the latents that generate its voltages.
constexpr std::uint64_t kPlStreamBase = std::uint64_t{1} << 32;

constexpr int kThresholdCount = flash::kTlcLevels - 1;

// prefix[l][b] = level-l cells in bins [0, b); the sufficient statistic every
// refinement step and report metric is computed from.
using Prefix = std::array<std::vector<double>, flash::kTlcLevels>;
// joint[l][d] = level-l cells whose voltage lands in detected segment d.
using Joint = std::array<std::array<double, flash::kTlcLevels>, flash::kTlcLevels>;

/// Differing Gray-coded page bits between two levels — the per-cell bit-error
/// cost of detecting `programmed` as `detected`.
int bit_distance(int programmed, int detected) {
  const flash::CellBits a = flash::level_to_bits(programmed);
  const flash::CellBits b = flash::level_to_bits(detected);
  int distance = 0;
  for (int p = 0; p < flash::kTlcBitsPerCell; ++p) {
    if (a.bits[static_cast<std::size_t>(p)] != b.bits[static_cast<std::size_t>(p)]) ++distance;
  }
  return distance;
}

Joint joint_of(const Prefix& prefix, const std::array<int, kThresholdCount>& edges, int bins) {
  Joint joint{};
  for (int l = 0; l < flash::kTlcLevels; ++l) {
    const auto& row = prefix[static_cast<std::size_t>(l)];
    int lo = 0;
    for (int d = 0; d < flash::kTlcLevels; ++d) {
      const int hi = d < kThresholdCount ? edges[static_cast<std::size_t>(d)] : bins;
      joint[static_cast<std::size_t>(l)][static_cast<std::size_t>(d)] =
          row[static_cast<std::size_t>(hi)] - row[static_cast<std::size_t>(lo)];
      lo = hi;
    }
  }
  return joint;
}

/// Total Gray-coded page bit errors under `joint` — the coordinate-descent
/// objective (equivalently, the sum of the three page BERs, unnormalized).
double bit_error_cost(const Joint& joint) {
  double cost = 0.0;
  for (int l = 0; l < flash::kTlcLevels; ++l) {
    for (int d = 0; d < flash::kTlcLevels; ++d) {
      if (l == d) continue;
      cost += joint[static_cast<std::size_t>(l)][static_cast<std::size_t>(d)] *
              bit_distance(l, d);
    }
  }
  return cost;
}

}  // namespace

ThresholdOptimizer::ThresholdOptimizer(ChannelSampler& sampler, OptimizerConfig config)
    : sampler_(sampler), config_(config) {
  FG_CHECK(config_.side > 0, "ThresholdOptimizer: side must be positive");
  FG_CHECK(config_.batch_rows > 0, "ThresholdOptimizer: batch_rows must be positive");
  FG_CHECK(config_.waves > 0, "ThresholdOptimizer: waves must be positive");
  FG_CHECK(config_.smoothing_window >= 1, "ThresholdOptimizer: smoothing window must be >= 1");
  FG_CHECK(config_.refine_radius >= 0 && config_.refine_sweeps >= 0,
           "ThresholdOptimizer: refinement knobs must be non-negative");
  FG_CHECK(config_.histogram.bins >= flash::kTlcLevels,
           "ThresholdOptimizer: need at least " << flash::kTlcLevels
                                                << " histogram bins, got "
                                                << config_.histogram.bins);
  FG_CHECK(config_.histogram.hi > config_.histogram.lo,
           "ThresholdOptimizer: bad histogram range");
  FG_CHECK(config_.pe_quantum > 0.0 && config_.retention_quantum > 0.0,
           "ThresholdOptimizer: cache quanta must be positive");
}

ThresholdOptimizer::CacheKey ThresholdOptimizer::key_for(const data::Condition& condition) const {
  CacheKey key;
  key.version = version_;
  key.pe_bucket = std::llround(condition.pe_cycles / config_.pe_quantum);
  key.retention_bucket = std::llround(condition.retention_hours / config_.retention_quantum);
  return key;
}

ThresholdReport ThresholdOptimizer::optimize(const data::Condition& condition) {
  std::unique_lock<std::mutex> lock(mutex_);
  const CacheKey key = key_for(condition);
  if (config_.cache_capacity > 0) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      ThresholdReport report = lru_.front().second;
      report.from_cache = true;
      return report;
    }
  }
  ++misses_;
  // Computed under the lock: sampling dominates, and two concurrent misses
  // for the same bucket would just duplicate it.
  ThresholdReport report = compute(condition);
  if (config_.cache_capacity > 0) {
    lru_.emplace_front(key, report);
    index_[key] = lru_.begin();
    while (lru_.size() > config_.cache_capacity) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
  }
  return report;
}

void ThresholdOptimizer::invalidate() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++version_;
  lru_.clear();
  index_.clear();
}

std::uint64_t ThresholdOptimizer::cache_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t ThresholdOptimizer::cache_misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t ThresholdOptimizer::cache_version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return version_;
}

ThresholdReport ThresholdOptimizer::compute(const data::Condition& condition) {
  const data::VoltageNormalizer normalizer(config_.norm);
  eval::ConditionalHistograms hists(config_.histogram);
  const int cells = config_.side * config_.side;

  // All waves * batch_rows rows go to the sampler in one call, so a fleet
  // sampler can spread the whole query over every replica at once. Global
  // row g carries its own PL stream (kPlStreamBase + g) and latent stream
  // (g), both pure functions of g, and the histograms fill in row order, so
  // the report does not depend on how the sampler batches the rows.
  const auto total_rows = static_cast<std::size_t>(config_.waves) *
                          static_cast<std::size_t>(config_.batch_rows);
  std::vector<RowRequest> requests(total_rows);
  std::vector<std::vector<std::uint8_t>> row_levels(total_rows);
  for (std::size_t g = 0; g < total_rows; ++g) {
    Rng pl_rng = Rng::from_stream(config_.seed, kPlStreamBase + g);
    auto& levels = row_levels[g];
    auto& pl = requests[g].program_levels;
    levels.resize(static_cast<std::size_t>(cells));
    pl.resize(static_cast<std::size_t>(cells));
    for (int i = 0; i < cells; ++i) {
      const int level = static_cast<int>(pl_rng.uniform_int(flash::kTlcLevels));
      levels[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(level);
      pl[static_cast<std::size_t>(i)] = normalizer.normalize_level(level);
    }
    requests[g].stream = g;
  }
  const std::vector<std::vector<float>> rows = sampler_.sample(requests, config_.seed, condition);
  FG_CHECK(rows.size() == total_rows,
           "ThresholdOptimizer: sampler returned " << rows.size() << " rows for " << total_rows);
  for (std::size_t g = 0; g < total_rows; ++g) {
    FG_CHECK(rows[g].size() == static_cast<std::size_t>(cells),
             "ThresholdOptimizer: sampler row holds " << rows[g].size() << " cells, want "
                                                      << cells);
    for (int i = 0; i < cells; ++i) {
      hists.add(row_levels[g][static_cast<std::size_t>(i)],
                normalizer.denormalize_voltage(rows[g][static_cast<std::size_t>(i)]));
    }
  }

  // Candidate thresholds from the smoothed-PDF crossing search, snapped onto
  // the bin-edge lattice (strictly increasing edge indices in [1, bins-1],
  // with room left above each edge for the thresholds that follow).
  const flash::Thresholds candidates =
      eval::thresholds_from_histograms(hists, config_.smoothing_window);
  const int bins = config_.histogram.bins;
  const double lo = config_.histogram.lo;
  const double width = (config_.histogram.hi - lo) / bins;
  Prefix prefix;
  for (int l = 0; l < flash::kTlcLevels; ++l) {
    auto& row = prefix[static_cast<std::size_t>(l)];
    row.assign(static_cast<std::size_t>(bins) + 1, 0.0);
    const eval::Histogram& hist = hists.level(l);
    for (int b = 0; b < bins; ++b) {
      row[static_cast<std::size_t>(b) + 1] =
          row[static_cast<std::size_t>(b)] + static_cast<double>(hist.count(b));
    }
  }
  std::array<int, kThresholdCount> edges{};
  int previous = 0;
  for (int k = 0; k < kThresholdCount; ++k) {
    int edge = static_cast<int>(std::llround((candidates[static_cast<std::size_t>(k)] - lo) / width));
    edge = std::clamp(edge, previous + 1, bins - 1 - (kThresholdCount - 1 - k));
    edges[static_cast<std::size_t>(k)] = edge;
    previous = edge;
  }

  // Coordinate descent on the estimated page bit errors: re-place one edge at
  // a time within +/-refine_radius bins, strictly between its neighbors.
  // Only strict improvements are taken and candidates scan in ascending bin
  // order, so ties resolve identically on every run.
  double best_cost = bit_error_cost(joint_of(prefix, edges, bins));
  for (int sweep = 0; sweep < config_.refine_sweeps; ++sweep) {
    bool moved = false;
    for (int k = 0; k < kThresholdCount; ++k) {
      const int floor_edge = (k == 0 ? 0 : edges[static_cast<std::size_t>(k) - 1]) + 1;
      const int ceil_edge =
          (k + 1 < kThresholdCount ? edges[static_cast<std::size_t>(k) + 1] : bins) - 1;
      const int lo_edge = std::max(floor_edge, edges[static_cast<std::size_t>(k)] - config_.refine_radius);
      const int hi_edge = std::min(ceil_edge, edges[static_cast<std::size_t>(k)] + config_.refine_radius);
      int best_edge = edges[static_cast<std::size_t>(k)];
      for (int e = lo_edge; e <= hi_edge; ++e) {
        if (e == edges[static_cast<std::size_t>(k)]) continue;
        std::array<int, kThresholdCount> trial = edges;
        trial[static_cast<std::size_t>(k)] = e;
        const double cost = bit_error_cost(joint_of(prefix, trial, bins));
        if (cost < best_cost) {
          best_cost = cost;
          best_edge = e;
        }
      }
      if (best_edge != edges[static_cast<std::size_t>(k)]) {
        edges[static_cast<std::size_t>(k)] = best_edge;
        moved = true;
      }
    }
    if (!moved) break;
  }

  ThresholdReport report;
  for (int k = 0; k < kThresholdCount; ++k) {
    report.thresholds[static_cast<std::size_t>(k)] =
        lo + edges[static_cast<std::size_t>(k)] * width;
  }
  flash::validate_thresholds(report.thresholds);

  const Joint joint = joint_of(prefix, edges, bins);
  double total = 0.0;
  for (int l = 0; l < flash::kTlcLevels; ++l) {
    for (int d = 0; d < flash::kTlcLevels; ++d) {
      total += joint[static_cast<std::size_t>(l)][static_cast<std::size_t>(d)];
    }
  }
  report.sample_cells = static_cast<std::uint64_t>(std::llround(total));
  double level_errors = 0.0;
  std::array<double, flash::kTlcBitsPerCell> page_errors{};
  for (int l = 0; l < flash::kTlcLevels; ++l) {
    const flash::CellBits want = flash::level_to_bits(l);
    for (int d = 0; d < flash::kTlcLevels; ++d) {
      if (l == d) continue;
      const double mass = joint[static_cast<std::size_t>(l)][static_cast<std::size_t>(d)];
      if (mass == 0.0) continue;
      level_errors += mass;
      const flash::CellBits got = flash::level_to_bits(d);
      for (int p = 0; p < flash::kTlcBitsPerCell; ++p) {
        if (want.bits[static_cast<std::size_t>(p)] != got.bits[static_cast<std::size_t>(p)]) {
          page_errors[static_cast<std::size_t>(p)] += mass;
        }
      }
    }
  }
  report.level_error_rate = level_errors / total;
  for (int p = 0; p < flash::kTlcBitsPerCell; ++p) {
    report.page_ber[static_cast<std::size_t>(p)] = page_errors[static_cast<std::size_t>(p)] / total;
  }

  // Mutual information of programmed -> detected level under these
  // thresholds, from the same joint distribution.
  std::array<double, flash::kTlcLevels> programmed{};
  std::array<double, flash::kTlcLevels> detected{};
  for (int l = 0; l < flash::kTlcLevels; ++l) {
    for (int d = 0; d < flash::kTlcLevels; ++d) {
      const double p = joint[static_cast<std::size_t>(l)][static_cast<std::size_t>(d)] / total;
      programmed[static_cast<std::size_t>(l)] += p;
      detected[static_cast<std::size_t>(d)] += p;
    }
  }
  double mi = 0.0;
  for (int l = 0; l < flash::kTlcLevels; ++l) {
    for (int d = 0; d < flash::kTlcLevels; ++d) {
      const double p = joint[static_cast<std::size_t>(l)][static_cast<std::size_t>(d)] / total;
      if (p <= 0.0) continue;
      mi += p * std::log2(p / (programmed[static_cast<std::size_t>(l)] *
                               detected[static_cast<std::size_t>(d)]));
    }
  }
  report.mutual_information_bits = mi;
  return report;
}

}  // namespace flashgen::thresholds
