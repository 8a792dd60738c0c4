// Committed bench baselines (bench/results/*.json in the source tree): a
// report recorded by a --smoke run measures a toy configuration, so none may
// stand as a baseline. Reads the source tree only; runs no bench.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"

namespace flashgen {
namespace {

TEST(BenchResultsTest, NoCommittedResultIsASmokeRun) {
  const std::filesystem::path dir = std::filesystem::path(FLASHGEN_SOURCE_DIR) / "bench" / "results";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int reports = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++reports;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const common::JsonValue report = common::json_parse(text.str());
    if (!report.has("config") || !report.at("config").has("smoke")) continue;
    EXPECT_FALSE(report.at("config").at("smoke").boolean())
        << entry.path().filename() << " was recorded by a --smoke run";
  }
  EXPECT_GT(reports, 0);
}

}  // namespace
}  // namespace flashgen
