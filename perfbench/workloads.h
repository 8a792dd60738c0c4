// The benchmark's three workloads over the (PE, retention)-conditioned
// spatio-temporal cVAE-GAN at the canonical small geometry (16x16 arrays,
// nf = 16, z = 8). See README.md for why each exists and which layers it
// loads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace flashgen::perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // every file the run writes goes here

  /// Length of one measured pass. A traced run makes two, untraced then
  /// traced, and splits `seconds` between them so that it takes as long as
  /// an untraced run.
  double pass_seconds() const { return trace ? seconds / 2 : seconds; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  // empty when every check passed
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Extra facts for the result file: key -> already-rendered JSON value.
  std::vector<std::pair<std::string, std::string>> details;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

Report run_generate(const Options& options);
Report run_thresholds(const Options& options);
Report run_train(const Options& options);

}  // namespace flashgen::perf
