// CSV-style serialization of ETC matrices.
//
// Format: one header line `tasks,machines`, then one comma-separated row per
// task. Round-trips exactly via max_digits10 formatting.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "etc/etc_matrix.hpp"

namespace hcsched::etc {

/// Largest tasks x machines a CSV header may declare (2^26 cells, 512 MiB
/// of doubles); checked before the matrix is allocated.
inline constexpr std::size_t kMaxCsvCells = std::size_t{1} << 26;

void write_csv(std::ostream& os, const EtcMatrix& m);
/// Fails closed with std::runtime_error (naming the row and column of a bad
/// cell) on a malformed header, a header above kMaxCsvCells, a short,
/// long or truncated row, a cell that is not a finite non-negative number
/// with nothing but whitespace around it, or a non-blank line after the
/// last row.
EtcMatrix read_csv(std::istream& is);

std::string to_csv(const EtcMatrix& m);
EtcMatrix from_csv(const std::string& text);

}  // namespace hcsched::etc
