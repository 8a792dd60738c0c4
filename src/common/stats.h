// Process-wide named counters and gauges.
//
// Counters are monotonic (requests served, cells simulated); gauges hold the
// latest sample of a level (current queue depth, learning rate). Both are
// lock-free on the update path and cheap enough to leave in hot loops:
//
//   static stats::Counter& reqs = stats::counter("serve.requests");
//   reqs.add();
//
// `stats::to_json()` snapshots every registered counter and gauge — the
// serve-side metrics endpoint embeds it so one scrape covers the whole stack.
// Registered objects live for the process lifetime; references stay valid.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace flashgen::stats {

/// Monotonic counter. Thread-safe.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset_for_test() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge. Thread-safe.
class Gauge {
 public:
  void set(double v);
  double value() const;

 private:
  std::atomic<std::uint64_t> bits_{0};  // IEEE-754 bit pattern of the value
};

/// Returns the counter/gauge registered under `name`, creating it on first
/// use. Names are dot-separated lowercase paths, e.g. "flash.cells_simulated".
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);

/// JSON object {"counters": {...}, "gauges": {...}}, keys sorted. Non-finite
/// gauge values (never produced by the library itself, but set() is public)
/// are serialized as 0 so the output always parses.
std::string to_json();

/// Zeroes every registered counter and gauge (test hook).
void reset_for_test();

}  // namespace flashgen::stats
