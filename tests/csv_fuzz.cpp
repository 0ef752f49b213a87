// csv_fuzz — deterministic mutation fuzzer for the ETC CSV codec.
//
// Each seed derives a handful of inputs from a seed corpus generated here:
// the untrusted texts that tests/test_etc_io.cpp pins
// (EtcIo.UntrustedInputFailsClosed) and to_csv of small random matrices,
// including zeros, -0, subnormals and DBL_MAX. It then applies byte flips,
// truncations and insertions of `,`, `\n`, blanks, `e`, `+` and `.`. Every
// input must satisfy three properties:
//   1. from_csv either throws std::runtime_error whose message starts with
//      "EtcMatrix CSV:" or returns a matrix whose cells are all finite and
//      >= 0;
//   2. for a returned M, from_csv(to_csv(M)) == M and to_csv of that result
//      is byte-identical to to_csv(M);
//   3. read_csv on an istringstream agrees with from_csv on the text: the
//      same matrix, or the same message;
//   4. a returned matrix of 1..64 cells (at least one machine) either is
//      rejected by Problem::full with a "Problem:" std::invalid_argument
//      (its completion times could overflow) or survives one
//      IterativeMinimizer pass of MCT with finite final finishing times.
// The corpus also holds texts with cells of 1e308, whose column sums
// overflow (or just stay finite).
// A failure prints the seed, the input (escaped) and the broken property.
//
// Usage: csv_fuzz [--seeds N]
//   --seeds N   number of seeds to sweep, 1..N (default 256;
//               kInputsPerSeed inputs each)
// Exit code: 0 when every input holds, 1 on a failure, 2 on usage.
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/iterative.hpp"
#include "etc/etc_io.hpp"
#include "heuristics/mct.hpp"
#include "rng/rng.hpp"
#include "seed_count.hpp"

namespace {

using hcsched::etc::EtcMatrix;
using hcsched::rng::Rng;

constexpr std::size_t kInputsPerSeed = 16;

constexpr std::string_view kUntrusted[] = {
    "2,2\nnan,1\n2,3\n",
    "1,2\ninf,1\n",
    "1,2\n1,-0.5\n",
    "1,2\n2abc,1\n",
    "1,2\n1,,\n",
    "1,2\n1,1e999\n",
    "1,2\n1,2,99\n",
    "1,2\n1,2,\n",
    "1,2\n1,2\n3,4\n",
    "2,2x\n",
    "67108864,2\n",
    "-1,2\n",
    "0,-2\n",
    "4294967296,4294967296\n",
    "2,2\r\n1, 2\r\n 3 ,4\r\n\r\n",
    "0,0\n\n",
};

// Cells near DBL_MAX: the first three overflow a column sum, the last two
// stay finite.
constexpr std::string_view kOverflowing[] = {
    "2,2\n1e308,1e308\n1e308,1\n",
    "3,1\n1e308\n1e308\n1e308\n",
    "2,3\n1e308,1,1e308\n1e308,1e308,1\n",
    "2,2\n1e308,1\n1,1e308\n",
    "1,3\n1e308,1e308,1e308\n",
};

constexpr std::string_view kInsertions[] = {",", "\n", " ", "\t", "\r",
                                            "e", "+", "."};

double random_cell(Rng& rng) {
  switch (rng.below(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return static_cast<double>(rng.below(10));
    case 3:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.below(1000));
    case 4:
      return DBL_MAX;
    case 5:
      return std::ldexp(rng.uniform01(), static_cast<int>(rng.below(140)) - 70);
    default:
      return rng.uniform(0.0, 1000.0);
  }
}

std::string random_corpus_entry(Rng& rng) {
  if (rng.chance(0.4)) {
    return std::string(kUntrusted[rng.below(std::size(kUntrusted))]);
  }
  if (rng.chance(0.15)) {
    return std::string(kOverflowing[rng.below(std::size(kOverflowing))]);
  }
  const std::size_t tasks = rng.below(6);
  const std::size_t machines = rng.below(5);
  std::vector<double> values(tasks * machines);
  for (double& v : values) v = random_cell(rng);
  return hcsched::etc::to_csv(
      EtcMatrix::from_values(tasks, machines, std::move(values)));
}

void mutate(std::string& text, Rng& rng) {
  const std::size_t at = rng.below(text.size() + 1);
  switch (rng.below(4)) {
    case 0:  // flip one bit
      if (!text.empty()) {
        const std::size_t i = rng.below(text.size());
        text[i] = static_cast<char>(text[i] ^ (1 << rng.below(8)));
      }
      break;
    case 1:  // truncate
      text.resize(at);
      break;
    default:  // insert a separator, blank or number-grammar character
      text.insert(at, kInsertions[rng.below(std::size(kInsertions))]);
      break;
  }
}

std::string escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20 ||
               static_cast<unsigned char>(c) >= 0x7f) {
      constexpr char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xf];
      out += kHex[static_cast<unsigned char>(c) & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

/// A parse outcome: the matrix, or the message it failed with.
struct Outcome {
  std::optional<EtcMatrix> matrix;
  std::string error;
};

/// Runs `parse`; any exception other than an "EtcMatrix CSV:" runtime_error
/// is reported in `error` with a "foreign" prefix so it fails property 1.
template <typename Parse>
Outcome outcome_of(Parse parse) {
  Outcome out;
  try {
    out.matrix = parse();
  } catch (const std::runtime_error& e) {
    out.error = e.what();
    if (out.error.rfind("EtcMatrix CSV:", 0) != 0) {
      out.error = "foreign runtime_error: " + out.error;
    }
  } catch (const std::exception& e) {
    out.error = std::string("foreign exception: ") + e.what();
  }
  return out;
}

/// Property 4 for an accepted matrix: empty when it holds, else what broke.
std::string check_iterate(const EtcMatrix& m) {
  const std::size_t cells = m.num_tasks() * m.num_machines();
  if (m.num_machines() == 0 || cells > 64) return {};
  std::optional<hcsched::sched::Problem> problem;
  try {
    problem.emplace(hcsched::sched::Problem::full(m));
  } catch (const std::invalid_argument& e) {
    if (std::string_view(e.what()).starts_with("Problem:")) return {};
    return std::string("Problem::full threw a foreign message: ") + e.what();
  }
  try {
    const hcsched::heuristics::Mct mct;
    hcsched::rng::TieBreaker ties;
    const auto result =
        hcsched::core::IterativeMinimizer{}.run(mct, *problem, ties);
    for (const auto& [machine, finish] : result.final_finishing_times) {
      if (!std::isfinite(finish)) {
        return "MCT iterate: machine " + std::to_string(machine) +
               " finishes at a time that is not finite";
      }
    }
  } catch (const std::exception& e) {
    return std::string("MCT iterate threw on an accepted problem: ") +
           e.what();
  }
  return {};
}

/// Empty when every property holds for `text`, else what broke; `accepted`
/// tells whether the text parsed.
std::string check(const std::string& text, bool& accepted) {
  const Outcome parsed =
      outcome_of([&] { return hcsched::etc::from_csv(text); });
  if (parsed.error.rfind("foreign", 0) == 0) return parsed.error;
  std::istringstream stream(text);
  const Outcome streamed =
      outcome_of([&] { return hcsched::etc::read_csv(stream); });
  if (parsed.matrix.has_value() != streamed.matrix.has_value() ||
      parsed.error != streamed.error ||
      (parsed.matrix && !(*parsed.matrix == *streamed.matrix))) {
    return "read_csv disagrees with from_csv: '" + streamed.error +
           "' vs '" + parsed.error + "'";
  }
  accepted = parsed.matrix.has_value();
  if (!accepted) return {};
  const EtcMatrix& m = *parsed.matrix;
  for (const double v : m.data()) {
    if (!std::isfinite(v) || v < 0.0) {
      return "accepted a cell that is not a finite non-negative time";
    }
  }
  if (const std::string broken = check_iterate(m); !broken.empty()) {
    return broken;
  }
  const std::string canonical = hcsched::etc::to_csv(m);
  const Outcome again =
      outcome_of([&] { return hcsched::etc::from_csv(canonical); });
  if (!again.matrix) return "to_csv output rejected: " + again.error;
  if (!(*again.matrix == m)) return "from_csv(to_csv(M)) != M";
  if (hcsched::etc::to_csv(*again.matrix) != canonical) {
    return "to_csv(from_csv(to_csv(M))) is not byte-identical";
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto count = arg == "--seeds" && i + 1 < argc
                           ? hcsched::testing::parse_seed_count(argv[++i])
                           : std::nullopt;
    if (!count) {
      std::cerr << "usage: csv_fuzz [--seeds N]\n";
      return 2;
    }
    seeds = *count;
  }

  std::size_t inputs = 0;
  std::size_t accepted = 0;
  std::size_t failures = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed);
    for (std::size_t k = 0; k < kInputsPerSeed; ++k) {
      std::string text = random_corpus_entry(rng);
      const std::size_t mutations = rng.below(4);  // 0 keeps the entry
      for (std::size_t i = 0; i < mutations; ++i) mutate(text, rng);
      bool ok = false;
      const std::string broken = check(text, ok);
      ++inputs;
      if (ok) ++accepted;
      if (!broken.empty()) {
        ++failures;
        std::cout << "FAIL seed " << seed << " input " << k << " '"
                  << escape(text) << "': " << broken << "\n";
      }
    }
  }
  std::cout << "csv_fuzz: " << inputs << " inputs over " << seeds
            << " seeds, " << accepted << " accepted, " << failures << " failure"
            << (failures == 1 ? "" : "s") << "\n";
  return failures == 0 ? 0 : 1;
}
