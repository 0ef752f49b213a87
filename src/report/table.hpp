// Fixed-width ASCII tables for reproducing the paper's tabular output.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace hcsched::report {

class TextTable {
 public:
  TextTable() = default;
  explicit TextTable(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void set_header(std::vector<std::string> header) {
    header_ = std::move(header);
  }
  void add_row(std::vector<std::string> row) {
    rows_.push_back(std::move(row));
  }

  /// Formats a double the way the paper prints them: integers without a
  /// decimal point, otherwise shortest fixed representation ("6.5", "0.31").
  static std::string num(double value, int max_decimals = 4);

  std::string to_string() const;

 private:
  std::vector<std::string> header_{};
  std::vector<std::vector<std::string>> rows_{};
};

std::ostream& operator<<(std::ostream& os, const TextTable& table);

}  // namespace hcsched::report
