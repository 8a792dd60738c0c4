// flashgen_perf: one run of one benchmark workload against the served
// spatio-temporal cVAE-GAN.
//
//   flashgen_perf --workload generate|thresholds|train --seed N --seconds S
//                 --trace 0|1 --out DIR
//
// Every file the run writes (checkpoint, trace, result) goes under DIR. The
// result JSON is written to DIR/result.json and printed as the last line of
// standard output: end-to-end metrics from an untraced pass, per-layer
// metrics (with --trace 1) from a second, traced pass of the same workload,
// the correctness checks, and the run's provenance. run.py is the usual
// entry point; it builds this binary first.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "tensor/gemm_backend.h"
#include "workloads.h"

namespace {

using flashgen::perf::Metric;
using flashgen::perf::Options;
using flashgen::perf::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "flashgen_perf: %s\nusage: flashgen_perf --workload generate|thresholds|train "
               "--seed N --seconds S --trace 0|1 --out DIR\n",
               why);
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(10);
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": " << metrics[i].value
       << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  return os.str() + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) usage("flags take one value each");
  if (!have_seed || options.out_dir.empty() || !(options.seconds > 0)) {
    usage("--seed, --seconds > 0 and --out are required");
  }
  std::filesystem::create_directories(options.out_dir);

  Report report;
  try {
    if (options.workload == "generate") {
      report = flashgen::perf::run_generate(options);
    } else if (options.workload == "thresholds") {
      report = flashgen::perf::run_thresholds(options);
    } else if (options.workload == "train") {
      report = flashgen::perf::run_train(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flashgen_perf: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  report.details.push_back({"peak_rss_end_mb", std::to_string(usage_now.ru_maxrss / 1024.0)});

  const char* threads = std::getenv("FLASHGEN_THREADS");
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (report.check_failures.empty() ? "true" : "false")
      << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
      << ", \"end_to_end\": " << metrics_json(report.end_to_end)
      << ", \"per_layer\": " << metrics_json(report.per_layer) << ", \"checks_failed\": [";
  for (std::size_t i = 0; i < report.check_failures.size(); ++i) {
    out << (i ? ", " : "") << json_string(report.check_failures[i]);
  }
  out << "], \"provenance\": {\"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed << ", \"seconds\": " << options.seconds
      << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"gemm_backend\": " << json_string(flashgen::tensor::gemm_backend_name())
      << ", \"flashgen_threads\": " << json_string(threads ? threads : "unset")
      << ", \"replicas\": 2}, \"details\": {";
  for (std::size_t i = 0; i < report.details.size(); ++i) {
    out << (i ? ", " : "") << json_string(report.details[i].first) << ": "
        << report.details[i].second;
  }
  out << "}}";

  std::ofstream(options.out_dir + "/result.json") << out.str() << "\n";
  for (const std::string& failure : report.check_failures) {
    std::fprintf(stderr, "flashgen_perf: check failed: %s\n", failure.c_str());
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}
