#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.h"
#include "common/table.h"

namespace p3 {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CsvTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs each case as its own process, so the
  // cases may run concurrently.
  void SetUp() override {
    path_ = ::testing::TempDir() + "/p3_csv_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"bandwidth_gbps", "throughput"});
    csv.row({4.0, 100.5});
    csv.row({6.0, 104.25});
  }
  EXPECT_EQ(read_file(path_),
            "bandwidth_gbps,throughput\n4,100.5\n6,104.25\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  {
    CsvWriter csv(path_, {"name", "value"});
    csv.row(std::vector<std::string>{"a,b", "say \"hi\""});
  }
  EXPECT_EQ(read_file(path_), "name,value\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, RowWidthMismatchThrows) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.row(std::vector<std::string>{"only-one"}),
               std::invalid_argument);
}

TEST(CsvEscape, PassthroughForPlainFields) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with space"), "with space");
}

TEST(Table, AlignsColumns) {
  Table t({"model", "throughput"});
  t.add_row({"ResNet-50", "104.20"});
  t.add_row({"VGG-19", "35.00"});
  const std::string s = t.to_string();
  // Header present, separator present, numeric right-aligned.
  EXPECT_NE(s.find("model"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_NE(s.find("ResNet-50"), std::string::npos);
  EXPECT_NE(s.find("104.20"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(10.0, 0), "10");
}

TEST(Table, RowsCount) {
  Table t({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

}  // namespace
}  // namespace p3
