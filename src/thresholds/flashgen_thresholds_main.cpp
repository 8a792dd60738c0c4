// flashgen_thresholds: offline wear-aware read-threshold sweeps.
//
// Trains (or loads from the checkpoint cache) the spatio-temporal cVAE-GAN
// under the small experiment configuration on a (PE, retention) grid, then
// runs the ThresholdOptimizer at every queried condition and tabulates the
// optimized thresholds, estimated per-page BERs, level error rate, and
// mutual information. A second pass over the same grid demonstrates the
// versioned LRU cache (every repeat query is a hit).
//
// Run:  ./flashgen_thresholds [flags]
//   --pe=csv               PE sweep to query (default 1000,4000,8000)
//   --retention=csv        retention-hour sweep to query (default 0,500)
//   --train-pe=csv         training-condition PE grid (default: the
//                          canonical 1000,4000,8000)
//   --train-retention=csv  training-condition retention grid (default: the
//                          canonical 0,500); the train split holds the cross
//                          product of the two grids. With both left at their
//                          defaults the checkpoint is shared with
//                          flashgen_serve's Temporal model and the
//                          thresholds_accuracy bench
//   --waves=N              with --batch-rows, sets the rows sampled per
//                          query: waves x batch-rows (default 8)
//   --batch-rows=N         (default 8); all rows go to the model in one call
//   --seed=N               optimizer sampling seed (default 0x7451)
//   --refine-sweeps=N      coordinate-descent sweeps (default 3)
//   --smoothing=N          histogram smoothing window (default 5)
//
// Reports are pure functions of (checkpoint, condition, optimizer config):
// FLASHGEN_THREADS, repeat runs, and cache state never change the bits.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/flashgen.h"
#include "thresholds/model_sampler.h"
#include "thresholds/optimizer.h"

using namespace flashgen;

namespace {

std::vector<double> parse_csv(const char* text) {
  std::vector<double> out;
  for (const char* p = text; *p != '\0';) {
    char* end = nullptr;
    out.push_back(std::strtod(p, &end));
    if (end == p) {
      std::fprintf(stderr, "bad number in list: %s\n", text);
      std::exit(1);
    }
    p = (*end == ',') ? end + 1 : end;
  }
  if (out.empty()) {
    std::fprintf(stderr, "empty list: %s\n", text);
    std::exit(1);
  }
  return out;
}

void print_report(const data::Condition& cond, const thresholds::ThresholdReport& report) {
  std::printf("%7.0f %7.0f |", cond.pe_cycles, cond.retention_hours);
  for (double t : report.thresholds) std::printf(" %7.1f", t);
  std::printf(" | %.2e %.2e %.2e | %.2e | %6.4f | %s\n", report.page_ber[0],
              report.page_ber[1], report.page_ber[2], report.level_error_rate,
              report.mutual_information_bits, report.from_cache ? "cache" : "fresh");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<double> pe_sweep = {1000.0, 4000.0, 8000.0};
  std::vector<double> retention_sweep = {0.0, 500.0};
  std::vector<double> train_pe;
  std::vector<double> train_retention;
  thresholds::OptimizerConfig opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pe=", 0) == 0) {
      pe_sweep = parse_csv(arg.c_str() + std::strlen("--pe="));
    } else if (arg.rfind("--retention=", 0) == 0) {
      retention_sweep = parse_csv(arg.c_str() + std::strlen("--retention="));
    } else if (arg.rfind("--train-pe=", 0) == 0) {
      train_pe = parse_csv(arg.c_str() + std::strlen("--train-pe="));
    } else if (arg.rfind("--train-retention=", 0) == 0) {
      train_retention = parse_csv(arg.c_str() + std::strlen("--train-retention="));
    } else if (arg.rfind("--waves=", 0) == 0) {
      opt.waves = std::atoi(arg.c_str() + std::strlen("--waves="));
    } else if (arg.rfind("--batch-rows=", 0) == 0) {
      opt.batch_rows = std::atoi(arg.c_str() + std::strlen("--batch-rows="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + std::strlen("--seed=")));
    } else if (arg.rfind("--refine-sweeps=", 0) == 0) {
      opt.refine_sweeps = std::atoi(arg.c_str() + std::strlen("--refine-sweeps="));
    } else if (arg.rfind("--smoothing=", 0) == 0) {
      opt.smoothing_window = std::atoi(arg.c_str() + std::strlen("--smoothing="));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }
  core::ExperimentConfig config = core::small_temporal_experiment_config();
  if (!train_pe.empty() || !train_retention.empty()) {
    // Custom grid: rebuild the schedule, keeping the total sample count (and
    // so training time) at the single-condition configuration's level.
    if (train_pe.empty()) train_pe = {1000.0, 4000.0, 8000.0};
    if (train_retention.empty()) train_retention = {0.0, 500.0};
    config = core::small_experiment_config();
    for (double pe : train_pe)
      for (double ret : train_retention) config.train_conditions.push_back({pe, ret});
    config.dataset.num_arrays = std::max<int>(
        1, config.dataset.num_arrays / static_cast<int>(config.train_conditions.size()));
  }
  core::Experiment experiment(config);
  auto model = experiment.train_or_load(core::ModelKind::Temporal);

  opt.side = config.dataset.array_size;
  opt.histogram = config.histogram;
  opt.norm = config.dataset.norm;
  thresholds::ModelSampler sampler(*model);
  thresholds::ThresholdOptimizer optimizer(sampler, opt);

  std::printf("     PE     ret |      t1      t2      t3      t4      t5      t6      t7 |"
              " BER(lsb)  BER(csb)  BER(msb) | lvl_err  |   MI   | source\n");
  for (int pass = 0; pass < 2; ++pass) {
    for (double pe : pe_sweep) {
      for (double ret : retention_sweep) {
        const data::Condition cond{pe, ret};
        print_report(cond, optimizer.optimize(cond));
      }
    }
    if (pass == 0) std::printf("--- repeat sweep (cache) ---\n");
  }
  std::printf("cache: %llu hits, %llu misses, version %llu\n",
              static_cast<unsigned long long>(optimizer.cache_hits()),
              static_cast<unsigned long long>(optimizer.cache_misses()),
              static_cast<unsigned long long>(optimizer.cache_version()));
  return 0;
}
