#include "trace/timeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace p3::trace {
namespace {

TEST(Timeline, RecordsSpans) {
  Timeline tl;
  tl.add("w0.compute", 0.0, 1.0, "F1");
  tl.add("w0.compute", 1.0, 2.0, "F2");
  EXPECT_EQ(tl.spans().size(), 2u);
  EXPECT_DOUBLE_EQ(tl.end_time(), 2.0);
}

TEST(Timeline, RejectsInvertedSpan) {
  Timeline tl;
  EXPECT_THROW(tl.add("x", 2.0, 1.0, "bad"), std::invalid_argument);
}

TEST(Timeline, LanesInFirstSeenOrder) {
  Timeline tl;
  tl.add("b", 0, 1, "x");
  tl.add("a", 0, 1, "y");
  tl.add("b", 1, 2, "z");
  auto lanes = tl.lanes();
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_EQ(lanes[0], "b");
  EXPECT_EQ(lanes[1], "a");
}

TEST(Timeline, LanesFollowTheirFirstSpanNotTheirFirstRecord) {
  Timeline tl;
  tl.tracer().counter("b", 0.0, 1.0);  // interns "b" before "a"
  tl.add("a", 0, 1, "x");
  tl.add("b", 0, 1, "y");
  const auto lanes = tl.lanes();
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_EQ(lanes[0], "a");
  EXPECT_EQ(lanes[1], "b");
}

TEST(Timeline, AsciiPaintsOverlapsInStartOrder) {
  Timeline tl;
  tl.add("l", 2.0, 4.0, "b");
  tl.add("l", 0.0, 3.0, "a");  // recorded later, starts earlier
  EXPECT_EQ(tl.to_ascii(1.0, 0.0, 4.0), "l |aabb|\n");
}

TEST(Timeline, LaneSpansSortedByStart) {
  Timeline tl;
  tl.add("l", 3, 4, "c");
  tl.add("l", 0, 1, "a");
  tl.add("l", 1, 2, "b");
  auto spans = tl.lane_spans("l");
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].label, "a");
  EXPECT_EQ(spans[2].label, "c");
}

TEST(Timeline, AsciiRendering) {
  Timeline tl;
  tl.add("cpu", 0.0, 2.0, "F");
  tl.add("cpu", 2.0, 3.0, "B");
  tl.add("net", 1.0, 3.0, "g");
  const std::string art = tl.to_ascii(1.0, 0.0, 4.0);
  std::istringstream in(art);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "cpu |FFB.|");
  EXPECT_EQ(line2, "net |.gg.|");
}

TEST(Timeline, AsciiPadsLaneNames) {
  Timeline tl;
  tl.add("a", 0, 1, "x");
  tl.add("longer", 0, 1, "y");
  const std::string art = tl.to_ascii(1.0, 0.0, 1.0);
  std::istringstream in(art);
  std::string line1;
  std::getline(in, line1);
  EXPECT_EQ(line1, "a      |x|");
}

TEST(Timeline, AsciiEmptyLabelUsesHash) {
  Timeline tl;
  tl.add("l", 0, 1, "");
  EXPECT_NE(tl.to_ascii(1.0, 0.0, 1.0).find('#'), std::string::npos);
}

TEST(Timeline, ZeroLengthSpanStillVisible) {
  Timeline tl;
  tl.add("l", 1.0, 1.0, "z");
  const std::string art = tl.to_ascii(1.0, 0.0, 3.0);
  EXPECT_NE(art.find('z'), std::string::npos);
}

TEST(Timeline, BadUnitThrows) {
  Timeline tl;
  tl.add("l", 0, 1, "x");
  EXPECT_THROW(tl.to_ascii(0.0, 0.0, 1.0), std::invalid_argument);
}

TEST(Timeline, WriteCsv) {
  Timeline tl;
  tl.add("lane1", 0.5, 1.5, "label");
  const std::string path = ::testing::TempDir() + "/p3_timeline_test.csv";
  tl.write_csv(path);
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "lane,start,end,label");
  EXPECT_EQ(row, "lane1,0.500000000,1.500000000,label");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace p3::trace
