#include "etc/etc_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "etc/cvb_generator.hpp"
#include "rng/rng.hpp"

namespace {

using hcsched::etc::EtcMatrix;
using hcsched::etc::from_csv;
using hcsched::etc::to_csv;

TEST(EtcIo, RoundTripSmall) {
  const EtcMatrix m = EtcMatrix::from_rows({{1, 2.5}, {3.25, 4}});
  EXPECT_EQ(from_csv(to_csv(m)), m);
}

TEST(EtcIo, RoundTripPreservesFullPrecision) {
  EtcMatrix m(1, 2);
  m.at(0, 0) = 0.1 + 0.2;  // 0.30000000000000004
  m.at(0, 1) = 1.0 / 3.0;
  EXPECT_EQ(from_csv(to_csv(m)), m);
}

TEST(EtcIo, RoundTripGeneratedMatrix) {
  hcsched::rng::Rng rng(5);
  hcsched::etc::CvbEtcGenerator gen(
      hcsched::etc::CvbParams{.num_tasks = 30, .num_machines = 6});
  const EtcMatrix m = gen.generate(rng);
  EXPECT_EQ(from_csv(to_csv(m)), m);
}

TEST(EtcIo, HeaderFormat) {
  const EtcMatrix m = EtcMatrix::from_rows({{7, 8, 9}});
  const std::string csv = to_csv(m);
  EXPECT_EQ(csv.substr(0, 4), "1,3\n");
}

TEST(EtcIo, MissingHeaderThrows) {
  std::istringstream empty("");
  EXPECT_THROW(hcsched::etc::read_csv(empty), std::runtime_error);
}

TEST(EtcIo, MalformedHeaderThrows) {
  EXPECT_THROW(from_csv("banana\n1,2\n"), std::runtime_error);
  EXPECT_THROW(from_csv("2;2\n"), std::runtime_error);
}

TEST(EtcIo, TruncatedBodyThrows) {
  EXPECT_THROW(from_csv("2,2\n1,2\n"), std::runtime_error);
}

TEST(EtcIo, ShortRowThrows) {
  EXPECT_THROW(from_csv("1,3\n1,2\n"), std::runtime_error);
}

TEST(EtcIo, EmptyMatrixRoundTrips) {
  EtcMatrix m(0, 0);
  EXPECT_EQ(from_csv(to_csv(m)), m);
}

TEST(EtcIo, UntrustedInputFailsClosed) {
  struct Case {
    const char* csv;
    const char* error;  // expected substring of the message; null = accept
  };
  const Case cases[] = {
      {"2,2\nnan,1\n2,3\n", "row 0, column 0"},
      {"1,2\ninf,1\n", "not a finite non-negative time"},
      {"1,2\n1,-0.5\n", "row 0, column 1"},
      {"1,2\n2abc,1\n", "trailing characters"},
      {"1,2\n1,,\n", "row 0, column 1: not a number"},
      {"1,2\n1,1e999\n", "out of range"},
      {"1,2\n1,2,99\n", "more than 2 cells"},
      {"1,2\n1,2,\n", "more than 2 cells"},
      {"1,2\n1,2\n3,4\n", "after the 1 declared rows"},
      {"2,2x\n", "malformed header"},
      {"67108864,2\n", "exceeds the limit"},
      {"-1,2\n", "exceeds the limit"},
      {"4294967296,4294967296\n", "exceeds the limit"},
      // Whitespace (a CRLF file, padded cells, trailing blank lines) is fine.
      {"2,2\r\n1, 2\r\n 3 ,4\r\n\r\n", nullptr},
      {"0,0\n\n", nullptr},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.csv);
    if (c.error == nullptr) {
      EXPECT_NO_THROW(from_csv(c.csv));
      continue;
    }
    try {
      from_csv(c.csv);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(from_csv("2,2\r\n1, 2\r\n 3 ,4\r\n"),
            EtcMatrix::from_rows({{1, 2}, {3, 4}}));
}

TEST(EtcIo, SubnormalCellsRoundTrip) {
  const EtcMatrix m = EtcMatrix::from_rows(
      {{std::numeric_limits<double>::denorm_min(),
        std::nextafter(DBL_MIN, 0.0)},
       {DBL_MIN, 1e-310}});
  const std::string csv = to_csv(m);
  EXPECT_NE(csv.find("4.9406564584124654e-324"), std::string::npos) << csv;
  EXPECT_NE(csv.find("2.2250738585072009e-308"), std::string::npos) << csv;
  EXPECT_EQ(from_csv(csv), m);
}

// The cell grammar: optional blanks, a decimal std::from_chars number,
// optional blanks. One case per rule, each pinned to its message.
TEST(EtcIo, CellGrammar) {
  struct Case {
    const char* cell;
    const char* error;
  };
  const Case rejected[] = {
      {"+1", "not a number"},
      {"0x1p3", "trailing characters"},
      {"1e", "trailing characters"},
      {"inf", "not a finite non-negative time"},
      {"nan", "not a finite non-negative time"},
      {"infinity", "not a finite non-negative time"},
  };
  for (const Case& c : rejected) {
    SCOPED_TRACE(c.cell);
    try {
      from_csv(std::string("1,1\n") + c.cell + "\n");
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.error), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + c.cell + "'"), std::string::npos)
          << what;
    }
  }
  EXPECT_EQ(from_csv("1,1\n 3 \n"), EtcMatrix::from_rows({{3}}));
  const EtcMatrix negative_zero = from_csv("1,1\n-0\n");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(negative_zero.at(0, 0)),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(to_csv(negative_zero), "1,1\n-0\n");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                from_csv(to_csv(negative_zero)).at(0, 0)),
            std::bit_cast<std::uint64_t>(-0.0));
}

/// The writer before std::to_chars: an ostream at setprecision(17).
std::string stream_csv(const EtcMatrix& m) {
  std::ostringstream os;
  os << m.num_tasks() << ',' << m.num_machines() << '\n';
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t t = 0; t < m.num_tasks(); ++t) {
    const auto row = m.row(static_cast<hcsched::etc::TaskId>(t));
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j != 0) os << ',';
      os << row[j];
    }
    os << '\n';
  }
  return os.str();
}

TEST(EtcIo, WriterBytesMatchSetprecision17Stream) {
  const EtcMatrix edges = EtcMatrix::from_rows(
      {{0, 0.1, 0.1 + 0.2, 1e21, 123456789012345678.0, 5e-324, DBL_MAX}});
  EXPECT_EQ(to_csv(edges), stream_csv(edges));
  hcsched::rng::Rng rng(17);
  for (const double v : {0.1, 0.35, 0.6}) {
    hcsched::etc::CvbEtcGenerator gen(hcsched::etc::CvbParams{
        .num_tasks = 40, .num_machines = 7, .v_task = v, .v_machine = v});
    const EtcMatrix m = gen.generate(rng);
    const std::string bytes = stream_csv(m);
    EXPECT_EQ(to_csv(m), bytes);
    std::ostringstream written;
    hcsched::etc::write_csv(written, m);
    EXPECT_EQ(written.str(), bytes);
  }
}

}  // namespace
