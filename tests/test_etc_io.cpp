#include "etc/etc_io.hpp"

#include <gtest/gtest.h>

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

}  // namespace
