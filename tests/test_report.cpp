#include <gtest/gtest.h>

#include <sstream>

#include "report/csv.hpp"
#include "report/gantt.hpp"
#include "report/table.hpp"

namespace {

using hcsched::report::CsvWriter;
using hcsched::report::render_gantt;
using hcsched::report::TextTable;

TEST(TextTable, NumFormatsLikeThePaper) {
  EXPECT_EQ(TextTable::num(6.0), "6");
  EXPECT_EQ(TextTable::num(6.5), "6.5");
  EXPECT_EQ(TextTable::num(0.0), "0");
  EXPECT_EQ(TextTable::num(1.0 / 3.0, 4), "0.3333");
  EXPECT_EQ(TextTable::num(2.50), "2.5");
  EXPECT_EQ(TextTable::num(-3.0), "-3");
}

TEST(TextTable, RendersAlignedGrid) {
  TextTable t({"task", "machine"});
  t.add_row({"t0", "m1"});
  t.add_row({"t10", "m22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| task | machine |"), std::string::npos);
  EXPECT_NE(s.find("| t10  | m22     |"), std::string::npos);
  // Four rules + header + 2 rows... rules: top, under-header, bottom = 3.
  EXPECT_EQ(std::count(s.begin(), s.end(), '+'), 3 * 3);
}

TEST(TextTable, HandlesShortRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| 1 |   |   |"), std::string::npos);
}

TEST(TextTable, NumRows) {
  // Every added row renders as one more "| ... |" line (the output opens
  // with a "+---+" rule, so each such line follows a newline).
  const auto grid_lines = [](const TextTable& t) {
    const std::string s = t.to_string();
    std::size_t lines = 0;
    for (std::size_t at = s.find("\n|"); at != std::string::npos;
         at = s.find("\n|", at + 1)) {
      ++lines;
    }
    return lines;
  };
  TextTable t({"h"});
  const std::size_t header_only = grid_lines(t);
  t.add_row({"x"});
  EXPECT_EQ(grid_lines(t), header_only + 1);
  t.add_row({"y"});
  EXPECT_EQ(grid_lines(t), header_only + 2);
}

TEST(Gantt, ShowsEveryMachineAndCompletionTime) {
  const auto m = hcsched::etc::EtcMatrix::from_rows({{2, 9}, {9, 3}});
  hcsched::sched::Schedule s(hcsched::sched::Problem::full(m));
  s.assign(0, 0);
  s.assign(1, 1);
  const std::string g = render_gantt(s);
  EXPECT_NE(g.find("m0 |t0"), std::string::npos);
  EXPECT_NE(g.find("m1 |t1"), std::string::npos);
  EXPECT_NE(g.find("CT = 2"), std::string::npos);
  EXPECT_NE(g.find("CT = 3"), std::string::npos);
}

TEST(Gantt, BoxWidthTracksEtc) {
  const auto m = hcsched::etc::EtcMatrix::from_rows({{1}, {9}});
  hcsched::sched::Schedule s(hcsched::sched::Problem::full(m));
  s.assign(0, 0);
  s.assign(1, 0);
  const std::string g =
      render_gantt(s, {.chars_per_unit = 4.0, .target_width = 60});
  // t1's box (9 units) must be visibly longer than t0's (1 unit).
  const auto t0_pos = g.find("t0");
  const auto t1_pos = g.find("t1");
  ASSERT_NE(t0_pos, std::string::npos);
  ASSERT_NE(t1_pos, std::string::npos);
  const auto bar_after_t0 = g.find('|', t0_pos);
  const auto bar_after_t1 = g.find('|', t1_pos);
  EXPECT_GT(bar_after_t1 - t1_pos, bar_after_t0 - t0_pos);
}

TEST(Gantt, EmptyMachineStillListed) {
  const auto m = hcsched::etc::EtcMatrix::from_rows({{2, 9}});
  hcsched::sched::Schedule s(hcsched::sched::Problem::full(m));
  s.assign(0, 0);
  const std::string g = render_gantt(s);
  EXPECT_NE(g.find("m1 |"), std::string::npos);
  EXPECT_NE(g.find("CT = 0"), std::string::npos);
}

TEST(Csv, EscapesSpecialCells) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"h1", "h2"});
  w.write_row({"1", "a,b"});
  EXPECT_EQ(os.str(), "h1,h2\n1,\"a,b\"\n");
}

}  // namespace
