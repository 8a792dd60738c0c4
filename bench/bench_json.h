// Unified bench result emitter.
//
// Every bench/* target reports one {name, config, metrics} JSON document
// into the shared results directory via write_bench_report(), so runs are
// comparable across machines and commits (the committed baselines live in
// bench/results/). `config` captures what was run (geometry, epochs, host
// shape), `metrics` what was measured.
//
// The results directory is, in priority order: the FLASHGEN_BENCH_RESULTS_DIR
// environment variable, the compile-time FLASHGEN_BENCH_RESULTS_DEFAULT
// (CMake points it at <source>/bench/results), or ./bench_results.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace flashgen::bench {

/// Insertion-ordered flat JSON object under construction. Values are
/// rendered on add(); add_raw() splices pre-rendered JSON (arrays, nested
/// objects) verbatim.
class JsonFields {
 public:
  JsonFields& add(const std::string& key, double value) {
    char buf[64];
    if (value != value || value > 1e308 || value < -1e308) {
      return add_raw(key, "null");  // JSON has no NaN/Inf
    }
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    return add_raw(key, buf);
  }
  JsonFields& add(const std::string& key, std::int64_t value) {
    return add_raw(key, std::to_string(value));
  }
  JsonFields& add(const std::string& key, int value) {
    return add(key, static_cast<std::int64_t>(value));
  }
  JsonFields& add(const std::string& key, bool value) {
    return add_raw(key, value ? "true" : "false");
  }
  JsonFields& add(const std::string& key, const std::string& value) {
    return add_raw(key, quote(value));
  }
  JsonFields& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  JsonFields& add_raw(const std::string& key, const std::string& rendered) {
    fields_.emplace_back(key, rendered);
    return *this;
  }

  std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// JSON array under construction; items are rendered on push().
class JsonArray {
 public:
  JsonArray& push_raw(const std::string& rendered) {
    items_.push_back(rendered);
    return *this;
  }
  JsonArray& push(const JsonFields& object) { return push_raw(object.render()); }
  JsonArray& push(const std::string& value) { return push_raw(JsonFields::quote(value)); }
  JsonArray& push(const char* value) { return push(std::string(value)); }

  std::string render() const {
    std::string out = "[";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) out += ", ";
      out += items_[i];
    }
    return out + "]";
  }

 private:
  std::vector<std::string> items_;
};

inline std::string bench_results_dir() {
  if (const char* env = std::getenv("FLASHGEN_BENCH_RESULTS_DIR")) return env;
#ifdef FLASHGEN_BENCH_RESULTS_DEFAULT
  return FLASHGEN_BENCH_RESULTS_DEFAULT;
#else
  return "bench_results";
#endif
}

/// The checkout's commit (`git describe --always --dirty`), or "unknown"
/// when the sources are not a git repository.
inline std::string source_commit() {
#ifdef FLASHGEN_SOURCE_DIR
  const std::string cmd = std::string("git -C \"") + FLASHGEN_SOURCE_DIR +
                          "\" describe --always --dirty --abbrev=12 2>/dev/null";
  if (std::FILE* pipe = ::popen(cmd.c_str(), "r")) {
    char buf[128] = {};
    const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
    ::pclose(pipe);
    std::string out = got ? buf : "";
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
    if (!out.empty()) return out;
  }
#endif
  return "unknown";
}

inline std::string render_bench_report(const std::string& name, const JsonFields& config,
                                       const JsonFields& metrics) {
  return "{\n  \"name\": " + JsonFields::quote(name) + ",\n  \"config\": " + config.render() +
         ",\n  \"metrics\": " + metrics.render() + "\n}\n";
}

/// Writes `document` to an explicit path. Returns false on I/O failure
/// (benches report, never abort).
inline bool write_bench_report_to(const std::string& path, const std::string& document) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_json: cannot open %s\n", path.c_str());
    return false;
  }
  std::fputs(document.c_str(), out);
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Writes <results_dir>/<name>.json as {"name", "config", "metrics"} and
/// returns the path (empty on I/O failure — benches report, never abort).
inline std::string write_bench_report(const std::string& name, const JsonFields& config,
                                      const JsonFields& metrics) {
  const std::string dir = bench_results_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + name + ".json";
  if (!write_bench_report_to(path, render_bench_report(name, config, metrics))) return {};
  return path;
}

}  // namespace flashgen::bench
