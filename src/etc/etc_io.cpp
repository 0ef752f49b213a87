#include "etc/etc_io.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace hcsched::etc {

void write_csv(std::ostream& os, const EtcMatrix& m) {
  os << m.num_tasks() << ',' << m.num_machines() << '\n';
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t t = 0; t < m.num_tasks(); ++t) {
    const auto row = m.row(static_cast<TaskId>(t));
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j != 0) os << ',';
      os << row[j];
    }
    os << '\n';
  }
}

namespace {

bool blank(std::string_view text) {
  return text.find_first_not_of(" \t\r\f\v") == std::string_view::npos;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("EtcMatrix CSV: " + what);
}

[[noreturn]] void fail_cell(std::size_t t, std::size_t j,
                            const std::string& cell, const char* problem) {
  fail("row " + std::to_string(t) + ", column " + std::to_string(j) + ": " +
       problem + " '" + cell + "'");
}

/// One finite, non-negative cell; surrounding whitespace is allowed and
/// anything else after the number is rejected.
double parse_cell(const std::string& cell, std::size_t t, std::size_t j) {
  std::size_t end = 0;
  double value = 0.0;
  try {
    value = std::stod(cell, &end);
  } catch (const std::invalid_argument&) {
    fail_cell(t, j, cell, "not a number");
  } catch (const std::out_of_range&) {
    fail_cell(t, j, cell, "number out of range");
  }
  if (!blank(std::string_view(cell).substr(end))) {
    fail_cell(t, j, cell, "trailing characters in");
  }
  if (!std::isfinite(value) || value < 0.0) {
    fail_cell(t, j, cell, "not a finite non-negative time");
  }
  return value;
}

}  // namespace

EtcMatrix read_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) fail("missing header");
  std::size_t tasks = 0;
  std::size_t machines = 0;
  {
    std::istringstream header(line);
    char comma = 0;
    if (!(header >> tasks >> comma >> machines) || comma != ',' ||
        !(header >> std::ws).eof()) {
      fail("malformed header '" + line + "'");
    }
  }
  if (machines != 0 && tasks > kMaxCsvCells / machines) {
    fail(std::to_string(tasks) + "x" + std::to_string(machines) +
         " exceeds the limit of " + std::to_string(kMaxCsvCells) + " cells");
  }
  EtcMatrix m(tasks, machines);
  std::string cell;
  for (std::size_t t = 0; t < tasks; ++t) {
    if (!std::getline(is, line)) {
      fail("truncated at row " + std::to_string(t));
    }
    std::size_t begin = 0;
    for (std::size_t j = 0; j < machines; ++j) {
      if (begin > line.size()) fail("short row " + std::to_string(t));
      const std::size_t comma = std::min(line.find(',', begin), line.size());
      cell.assign(line, begin, comma - begin);
      m.at(static_cast<TaskId>(t), static_cast<MachineId>(j)) =
          parse_cell(cell, t, j);
      begin = comma + 1;
    }
    if (begin <= line.size() && (machines != 0 || !blank(line))) {
      fail("row " + std::to_string(t) + " has more than " +
           std::to_string(machines) + " cells");
    }
  }
  while (std::getline(is, line)) {
    if (!blank(line)) {
      fail("non-blank line after the " + std::to_string(tasks) +
           " declared rows");
    }
  }
  return m;
}

std::string to_csv(const EtcMatrix& m) {
  std::ostringstream os;
  write_csv(os, m);
  return os.str();
}

EtcMatrix from_csv(const std::string& text) {
  std::istringstream is(text);
  return read_csv(is);
}

}  // namespace hcsched::etc
