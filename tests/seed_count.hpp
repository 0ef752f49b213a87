// The --seeds argument shared by the fuzz runners (fastpath_fuzz, csv_fuzz).
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace hcsched::testing {

/// A seed count is a whole decimal number of at least 1: a sign, trailing
/// characters or 0 yield nullopt, so a runner never sweeps nothing and
/// passes.
inline std::optional<std::uint64_t> parse_seed_count(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value == 0) return std::nullopt;
  return value;
}

}  // namespace hcsched::testing
