// Shared main() for the google-benchmark micro benches: runs the registered
// benchmarks with the usual console output, then mirrors every run into the
// unified {name, config, metrics} report (bench/results/<name>.json) so the
// micro numbers land in the same place as the repro benches.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"

namespace flashgen::bench {

/// ConsoleReporter that also collects each run as a rendered JSON row.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      JsonFields row;
      row.add("name", run.benchmark_name());
      row.add("iterations", static_cast<std::int64_t>(run.iterations));
      row.add("real_time", run.GetAdjustedRealTime());
      row.add("cpu_time", run.GetAdjustedCPUTime());
      row.add("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      for (const auto& [counter_name, counter] : run.counters) {
        row.add(counter_name, counter.value);
      }
      rows_.push(row);
    }
  }

  std::string rows_json() const { return rows_.render(); }

 private:
  JsonArray rows_;
};

/// Initializes google-benchmark, runs everything through a collecting
/// reporter, and writes the unified report; `config` (what the bench knows
/// about how it ran) gains the commit and host shape. Returns the process
/// exit code.
inline int run_micro_benchmarks(const std::string& report_name, int argc, char** argv,
                                JsonFields config = {}) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  config.add("commit", source_commit());
  config.add("host_cpus", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  JsonFields metrics;
  metrics.add_raw("runs", reporter.rows_json());
  write_bench_report(report_name, config, metrics);
  return ran == 0 ? 1 : 0;
}

}  // namespace flashgen::bench
