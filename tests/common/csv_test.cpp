#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace flashgen {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  // Unique per test case: ctest runs cases as parallel processes.
  std::string path_ = ::testing::TempDir() + "/csv_test_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                      ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesPlainRows) {
  {
    CsvWriter w(path_);
    w.row({"a", "b"});
    w.row({"1", "2"});
  }
  EXPECT_EQ(read_all(path_), "a,b\n1,2\n");
}

TEST_F(CsvTest, EscapesSeparatorsAndQuotes) {
  {
    CsvWriter w(path_);
    w.row({"x,y", "he said \"hi\"", "line\nbreak"});
  }
  EXPECT_EQ(read_all(path_), "\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST_F(CsvTest, NumericRowPrecision) {
  {
    CsvWriter w(path_);
    w.numeric_row({1.0, 0.25, -3.5});
  }
  EXPECT_EQ(read_all(path_), "1,0.25,-3.5\n");
}

TEST_F(CsvTest, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/impossible.csv"), Error);
}

}  // namespace
}  // namespace flashgen
