#include "common/stats.h"

#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace flashgen::stats {

void Gauge::set(double v) {
  bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
}

double Gauge::value() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

namespace {

// std::map keeps to_json() output sorted; node-based storage keeps the
// references returned by counter()/gauge() stable across rehashing.
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during static teardown
  return *r;
}

}  // namespace

Counter& counter(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto& slot = reg.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto& slot = reg.gauges[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

std::string to_json() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::ostringstream out;
  out << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : reg.counters) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << c->value();
    first = false;
  }
  out << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : reg.gauges) {
    const double v = g->value();
    out << (first ? "" : ", ") << "\"" << name << "\": " << (std::isfinite(v) ? v : 0.0);
    first = false;
  }
  out << "}}";
  return out.str();
}

void reset_for_test() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& [name, c] : reg.counters) c->reset_for_test();
  for (auto& [name, g] : reg.gauges) g->set(0.0);
}

}  // namespace flashgen::stats
