#include "etc/etc_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

namespace hcsched::etc {

namespace {

std::string header_line(const EtcMatrix& m) {
  return std::to_string(m.num_tasks()) + ',' +
         std::to_string(m.num_machines()) + '\n';
}

/// Appends one row, every cell as `%.17g`: the bytes an ostream writes at
/// setprecision(max_digits10).
void append_row(std::string& out, std::span<const double> row) {
  char cell[32];
  for (std::size_t j = 0; j < row.size(); ++j) {
    if (j != 0) out += ',';
    const auto end =
        std::to_chars(cell, cell + sizeof cell, row[j],
                      std::chars_format::general,
                      std::numeric_limits<double>::max_digits10)
            .ptr;
    out.append(cell, end);
  }
  out += '\n';
}

bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v';
}

const char* skip_blanks(const char* p, const char* end) {
  while (p != end && is_blank(*p)) ++p;
  return p;
}

bool blank(std::string_view text) {
  return skip_blanks(text.data(), text.data() + text.size()) ==
         text.data() + text.size();
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("EtcMatrix CSV: " + what);
}

/// Names the cell that starts at `cell` in `line`: the text up to the next
/// comma or the end of the line.
[[noreturn]] void fail_cell(std::string_view line, const char* cell,
                            std::size_t t, std::size_t j,
                            const char* problem) {
  const std::string_view rest =
      line.substr(static_cast<std::size_t>(cell - line.data()));
  fail("row " + std::to_string(t) + ", column " + std::to_string(j) + ": " +
       problem + " '" + std::string(rest.substr(0, rest.find(','))) + "'");
}

struct Header {
  std::size_t tasks = 0;
  std::size_t machines = 0;
};

Header parse_header(std::string_view line) {
  Header h;
  std::istringstream header{std::string(line)};
  char comma = 0;
  if (!(header >> h.tasks >> comma >> h.machines) || comma != ',' ||
      !(header >> std::ws).eof()) {
    fail("malformed header '" + std::string(line) + "'");
  }
  if (h.machines != 0 && h.tasks > kMaxCsvCells / h.machines) {
    fail(std::to_string(h.tasks) + "x" + std::to_string(h.machines) +
         " exceeds the limit of " + std::to_string(kMaxCsvCells) + " cells");
  }
  return h;
}

/// Appends the `machines` cells of row t (`line`, without its '\n') to
/// `values`, in one pointer walk.
void parse_row(std::string_view line, std::size_t t, std::size_t machines,
               std::vector<double>& values) {
  const char* p = line.data();
  const char* const end = p + line.size();
  if (machines == 0 && blank(line)) return;  // a T x 0 matrix's rows
  for (std::size_t j = 0; j < machines; ++j) {
    const char* const cell = p;
    double value = 0.0;
    const auto [next, ec] = std::from_chars(skip_blanks(p, end), end, value);
    if (ec == std::errc::invalid_argument) {
      fail_cell(line, cell, t, j, "not a number");
    }
    if (ec == std::errc::result_out_of_range) {
      fail_cell(line, cell, t, j, "number out of range");
    }
    p = skip_blanks(next, end);
    if (p != end && *p != ',') {
      fail_cell(line, cell, t, j, "trailing characters in");
    }
    if (!std::isfinite(value) || value < 0.0) {
      fail_cell(line, cell, t, j, "not a finite non-negative time");
    }
    values.push_back(value);
    if (p == end) {
      if (j + 1 != machines) fail("short row " + std::to_string(t));
      return;
    }
    ++p;  // the comma
  }
  fail("row " + std::to_string(t) + " has more than " +
       std::to_string(machines) + " cells");
}

/// The whole reader over a line source: `next_line(line)` stores the next
/// line without its '\n' and returns false at the end, like std::getline.
/// `max_cells` caps the up-front reservation by what the input can hold.
template <typename NextLine>
EtcMatrix parse(NextLine next_line, std::size_t max_cells) {
  std::string_view line;
  if (!next_line(line)) fail("missing header");
  const Header h = parse_header(line);
  std::vector<double> values;
  values.reserve(std::min(h.tasks * h.machines, max_cells));
  for (std::size_t t = 0; t < h.tasks; ++t) {
    if (!next_line(line)) fail("truncated at row " + std::to_string(t));
    parse_row(line, t, h.machines, values);
  }
  while (next_line(line)) {
    if (!blank(line)) {
      fail("non-blank line after the " + std::to_string(h.tasks) +
           " declared rows");
    }
  }
  return EtcMatrix::from_values(h.tasks, h.machines, std::move(values));
}

}  // namespace

void write_csv(std::ostream& os, const EtcMatrix& m) {
  std::string line = header_line(m);
  os << line;
  for (std::size_t t = 0; t < m.num_tasks(); ++t) {
    line.clear();
    append_row(line, m.row(static_cast<TaskId>(t)));
    os << line;
  }
}

std::string to_csv(const EtcMatrix& m) {
  std::string out = header_line(m);
  for (std::size_t t = 0; t < m.num_tasks(); ++t) {
    append_row(out, m.row(static_cast<TaskId>(t)));
  }
  return out;
}

EtcMatrix read_csv(std::istream& is) {
  std::string buffer;
  return parse(
      [&](std::string_view& line) {
        if (!std::getline(is, buffer)) return false;
        line = buffer;
        return true;
      },
      kMaxCsvCells);
}

EtcMatrix from_csv(std::string_view text) {
  // Every cell takes at least one character and a separator after it.
  const std::size_t max_cells = text.size() / 2 + 1;
  return parse(
      [&](std::string_view& line) {
        if (text.empty()) return false;
        const std::size_t newline = std::min(text.find('\n'), text.size());
        line = text.substr(0, newline);
        text.remove_prefix(std::min(newline + 1, text.size()));
        return true;
      },
      max_cells);
}

}  // namespace hcsched::etc
