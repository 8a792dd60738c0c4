// Process-wide stats registry: counters/gauges are stable references and the
// JSON snapshot always parses.
#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/json.h"

namespace flashgen::stats {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  StatsTest() { reset_for_test(); }
  ~StatsTest() override { reset_for_test(); }
};

TEST_F(StatsTest, CounterAccumulatesAcrossThreads) {
  Counter& c = counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 4000u);
  // Same name returns the same counter.
  EXPECT_EQ(&counter("test.counter"), &c);
}

TEST_F(StatsTest, GaugeHoldsLastValue) {
  Gauge& g = gauge("test.gauge");
  EXPECT_EQ(g.value(), 0.0);
  g.set(-2.75);
  EXPECT_EQ(g.value(), -2.75);
  g.set(13.0);
  EXPECT_EQ(g.value(), 13.0);
}

TEST_F(StatsTest, JsonSnapshotParsesAndSortsKeys) {
  counter("test.b").add(2);
  counter("test.a").add(1);
  gauge("test.g").set(0.5);
  const common::JsonValue doc = common::json_parse(to_json());
  EXPECT_EQ(doc.at("counters").at("test.a").number(), 1.0);
  EXPECT_EQ(doc.at("counters").at("test.b").number(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("test.g").number(), 0.5);
}

TEST_F(StatsTest, NonFiniteGaugeSerializesAsZero) {
  gauge("test.bad").set(std::numeric_limits<double>::quiet_NaN());
  gauge("test.worse").set(std::numeric_limits<double>::infinity());
  // Must still parse (the parser rejects NaN/Infinity tokens outright).
  const common::JsonValue doc = common::json_parse(to_json());
  EXPECT_EQ(doc.at("gauges").at("test.bad").number(), 0.0);
  EXPECT_EQ(doc.at("gauges").at("test.worse").number(), 0.0);
}

}  // namespace
}  // namespace flashgen::stats
