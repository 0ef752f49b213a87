// CSV-style serialization of ETC matrices.
//
// Format: one header line `tasks,machines`, then one comma-separated row per
// task. The writer prints every cell as `%.17g` (std::to_chars, general
// format, max_digits10), so a matrix round-trips exactly. The reader parses
// each row in place with std::from_chars and builds the matrix through
// EtcMatrix::from_values.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "etc/etc_matrix.hpp"

namespace hcsched::etc {

/// Largest tasks x machines a CSV header may declare (2^26 cells, 512 MiB
/// of doubles); checked before the matrix is allocated.
inline constexpr std::size_t kMaxCsvCells = std::size_t{1} << 26;

void write_csv(std::ostream& os, const EtcMatrix& m);
/// Reads one line at a time. Fails closed with std::runtime_error (naming
/// the row and column of a bad cell) on a malformed header, a header above
/// kMaxCsvCells, a short, long or truncated row, a bad cell, or a
/// non-blank line after the last row.
///
/// Cell grammar: optional blanks (space, \t, \r, \f, \v), one decimal
/// number as std::from_chars reads it in the general format, optional
/// blanks. So no leading `+` ("not a number") and no hex float (the `0`
/// parses, then "trailing characters"); `inf` and `nan` parse but are "not
/// a finite non-negative time", as is any negative value except `-0`.
EtcMatrix read_csv(std::istream& is);

std::string to_csv(const EtcMatrix& m);
/// read_csv over an in-memory text, parsed in place.
EtcMatrix from_csv(std::string_view text);

}  // namespace hcsched::etc
