// csv_fuzz — deterministic mutation fuzzer for the repository's two text
// codecs: the ETC CSV reader and the sweep checkpoint's JSON lines.
//
// ETC CSV. Each seed derives a handful of inputs from a seed corpus
// generated here: the untrusted texts that tests/test_etc_io.cpp pins
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
//
// Checkpoint lines. Each seed also encodes random trial outcomes (NaN, inf,
// -0 and subnormal doubles, counts around 1e15 and 2^53, strings with
// quotes, backslashes, control bytes and UTF-8), then applies byte flips,
// truncations and insertions of JSON punctuation, literals and deep '['
// runs. Against the tree-built reference codec (checkpoint_reference.hpp):
//   5. encode_trial of the outcome is byte-identical to the reference's
//      JsonValue(...).dump();
//   6. decode_trial of the (mutated) line agrees with the reference decoder
//      (JsonValue::parse + at()): the same outcome, bit for bit, or both
//      reject; the reference may only accept where a count is not an
//      integer in [0, 2^53], which decode_trial rejects;
//   7. an accepted line re-encodes to canonical bytes that decode to the
//      same outcome and re-encode to the same bytes.
// A failure prints the seed, the input (escaped) and the broken property.
//
// Usage: csv_fuzz [--seeds N]
//   --seeds N   number of seeds to sweep, 1..N (default 256;
//               kInputsPerSeed inputs of each codec each)
// Exit code: 0 when every input holds, 1 on a failure, 2 on usage.
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "checkpoint_reference.hpp"
#include "core/iterative.hpp"
#include "etc/etc_io.hpp"
#include "heuristics/mct.hpp"
#include "rng/rng.hpp"
#include "seed_count.hpp"
#include "sim/checkpoint.hpp"

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

// -- checkpoint lines ---------------------------------------------------

using hcsched::sim::CheckpointKey;
using hcsched::sim::TrialOutcome;
using Decoded = std::pair<CheckpointKey, TrialOutcome>;

double random_value(Rng& rng) {
  switch (rng.below(10)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return rng.chance(0.5) ? std::numeric_limits<double>::infinity()
                             : -std::numeric_limits<double>::infinity();
    case 2:
      return -0.0;
    case 3:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.below(1000));
    case 4:
      return rng.chance(0.5) ? DBL_MAX : -DBL_MAX;
    case 5:
      return static_cast<double>(rng.between(-1'000'000, 1'000'000));
    case 6:
      return 1e15 + static_cast<double>(rng.between(-2, 2));
    default:
      return std::ldexp(rng.uniform(-1.0, 1.0),
                        static_cast<int>(rng.below(120)) - 60);
  }
}

std::size_t random_count(Rng& rng) {
  constexpr std::size_t k2to53 = std::size_t{1} << 53;
  switch (rng.below(12)) {
    case 0:
      return 999'999'999'999'999 + rng.below(3);  // around 1e15
    case 1:
      return k2to53 - 1 + rng.below(3);  // around 2^53
    case 2:  // mostly past 2^53: the reader rejects the rounded double
      return static_cast<std::size_t>(rng.next_u64());
    default:
      return rng.below(70);
  }
}

std::string random_text(Rng& rng) {
  constexpr std::string_view kPieces[] = {
      "Min-Min", "heuristic-map", "fault injected", "\"", "\\", "/",
      "\n",     "\t",            "\x01",           "\x0b", "\x1b", "\x1f",
      "\x7f",   "caf\xc3\xa9",   " ",              "{\"v\":1}", "\\u0041", ""};
  std::string text;
  for (std::size_t i = rng.below(4); i > 0; --i) {
    text += kPieces[rng.below(std::size(kPieces))];
  }
  if (rng.chance(0.1)) text.push_back('\0');
  return text;
}

Decoded random_trial(Rng& rng) {
  Decoded trial;
  auto& [key, outcome] = trial;
  key.point = random_text(rng);
  key.seed = rng.next_u64() >> rng.below(64);
  key.trial = random_count(rng);
  outcome.completed = true;
  for (std::size_t i = rng.below(4); i > 0; --i) {
    hcsched::sim::TrialRecord r;
    r.heuristic = random_text(rng);
    r.machines_improved = random_count(rng);
    r.machines_unchanged = random_count(rng);
    r.machines_worsened = random_count(rng);
    for (std::size_t d = rng.below(6); d > 0; --d) {
      // Mostly finite: a non-finite delta writes `null`, which makes the
      // whole line unreadable.
      r.finish_deltas.push_back(rng.chance(0.9) ? rng.uniform(-1.0, 1.0)
                                                : random_value(rng));
    }
    r.has_mean_completion_delta = rng.chance(0.7);
    r.mean_completion_delta = random_value(rng);
    r.makespan_increased = rng.chance(0.5);
    r.original_makespan =
        rng.chance(0.9) ? rng.uniform(0.0, 1e4) : random_value(rng);
    r.has_gap = rng.chance(0.3);
    r.gap_pct = random_value(rng);
    r.gap_exact = rng.chance(0.5);
    outcome.records.push_back(std::move(r));
  }
  for (std::size_t i = rng.below(3); i > 0; --i) {
    hcsched::sim::QuarantineRecord q;
    q.heuristic = random_text(rng);
    q.site = random_text(rng);
    q.error = random_text(rng);
    q.trial = key.trial;
    q.study_seed = key.seed;
    outcome.quarantined.push_back(std::move(q));
  }
  return trial;
}

constexpr std::string_view kJsonInsertions[] = {
    "\"", "\\", ",", ":", "[", "]", "{", "}", "-", ".", "e", "0", "9", " ",
    "\n", "null", "true", "1.5", "1e300", "\\u00", "\"v\":2,",
    "\"improved\":3,", std::string_view("[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[["
                                       "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[")};

// Members inserted where a member may start: duplicates (whose first
// occurrence must win), unknown keys and wrong kinds.
constexpr std::string_view kMembers[] = {
    "\"v\":1,",          "\"v\":2,",        "\"point\":\"p\",",
    "\"seed\":\"12\",",    "\"trial\":5,",    "\"improved\":3,",
    "\"worsened\":0.5,", "\"heuristic\":\"X\",", "\"finish_deltas\":[-0,1],",
    "\"gap_pct\":1.5,",  "\"gap_exact\":1,", "\"error\":\"e\",",
    "\"future\":{\"a\":[{}]},"};

void mutate_line(std::string& line, Rng& rng) {
  const std::size_t at = rng.below(line.size() + 1);
  if (rng.chance(0.2)) {  // a member after the first '{' or ',' from `at`
    const std::size_t boundary = line.find_first_of("{,", at);
    if (boundary != std::string::npos) {
      line.insert(boundary + 1, kMembers[rng.below(std::size(kMembers))]);
    }
    return;
  }
  switch (rng.below(4)) {
    case 0:  // flip one bit
      if (!line.empty()) {
        const std::size_t i = rng.below(line.size());
        line[i] = static_cast<char>(line[i] ^ (1 << rng.below(8)));
      }
      break;
    case 1:  // truncate
      line.resize(at);
      break;
    default:  // insert punctuation, a literal, a field or a deep nesting
      line.insert(at, kJsonInsertions[rng.below(std::size(kJsonInsertions))]);
      break;
  }
}

bool same_double(double a, double b, bool bitwise) {
  return bitwise ? std::memcmp(&a, &b, sizeof a) == 0 : a == b;
}

/// Empty when `a` and `b` hold the same trial, else the first difference.
/// `bitwise` compares doubles by their bits (else -0 == 0).
std::string differs(const Decoded& a, const Decoded& b, bool bitwise) {
  if (a.first.point != b.first.point || a.first.seed != b.first.seed ||
      a.first.trial != b.first.trial) {
    return "key";
  }
  const TrialOutcome& x = a.second;
  const TrialOutcome& y = b.second;
  if (x.completed != y.completed) return "completed";
  if (x.records.size() != y.records.size()) return "record count";
  for (std::size_t i = 0; i < x.records.size(); ++i) {
    const auto& r = x.records[i];
    const auto& s = y.records[i];
    const std::string at = "record " + std::to_string(i) + " ";
    if (r.heuristic != s.heuristic) return at + "heuristic";
    if (r.machines_improved != s.machines_improved ||
        r.machines_unchanged != s.machines_unchanged ||
        r.machines_worsened != s.machines_worsened) {
      return at + "counts";
    }
    if (r.finish_deltas.size() != s.finish_deltas.size()) return at + "deltas";
    for (std::size_t d = 0; d < r.finish_deltas.size(); ++d) {
      if (!same_double(r.finish_deltas[d], s.finish_deltas[d], bitwise)) {
        return at + "delta " + std::to_string(d);
      }
    }
    if (r.has_mean_completion_delta != s.has_mean_completion_delta ||
        !same_double(r.mean_completion_delta, s.mean_completion_delta,
                     bitwise)) {
      return at + "mean_completion_delta";
    }
    if (r.makespan_increased != s.makespan_increased ||
        !same_double(r.original_makespan, s.original_makespan, bitwise)) {
      return at + "makespan";
    }
    if (r.has_gap != s.has_gap || r.gap_exact != s.gap_exact ||
        !same_double(r.gap_pct, s.gap_pct, bitwise)) {
      return at + "gap";
    }
  }
  if (x.quarantined.size() != y.quarantined.size()) return "quarantine count";
  for (std::size_t i = 0; i < x.quarantined.size(); ++i) {
    const auto& q = x.quarantined[i];
    const auto& r = y.quarantined[i];
    if (q.trial != r.trial || q.study_seed != r.study_seed ||
        q.heuristic != r.heuristic || q.site != r.site || q.error != r.error) {
      return "quarantine " + std::to_string(i);
    }
  }
  return {};
}

/// Properties 6 and 7 for one line: empty when they hold, else what broke.
std::string check_line(const std::string& line, bool& accepted) {
  const auto decoded = hcsched::sim::decode_trial(line);
  const auto reference = hcsched::testing::reference_decode(line);
  accepted = decoded.has_value();
  if (!reference.trial || reference.lenient_count) {
    if (decoded) {
      return reference.trial
                 ? "decode_trial accepted a count outside [0, 2^53]"
                 : "decode_trial accepted a line the reference rejects";
    }
    return {};
  }
  if (!decoded) return "decode_trial rejected a line the reference accepts";
  if (const std::string d = differs(*decoded, *reference.trial, true);
      !d.empty()) {
    return "decode_trial disagrees with the reference on the " + d;
  }
  const std::string canonical =
      hcsched::sim::encode_trial(decoded->first, decoded->second);
  const auto again = hcsched::sim::decode_trial(canonical);
  if (!again) return "the canonical re-encoding is rejected";
  if (const std::string d = differs(*again, *decoded, false); !d.empty()) {
    return "the canonical re-encoding decodes to another " + d;
  }
  if (hcsched::sim::encode_trial(again->first, again->second) != canonical) {
    return "the canonical re-encoding is not byte-stable";
  }
  return {};
}

/// One checkpoint input of `seed`: property 5 on a fresh outcome, then 6
/// and 7 on its mutated line.
std::string check_checkpoint(Rng& rng, std::string& line, bool& accepted) {
  const Decoded trial = random_trial(rng);
  line = hcsched::sim::encode_trial(trial.first, trial.second);
  if (line != hcsched::testing::reference_encode(trial.first, trial.second)) {
    return "encode_trial differs from the tree-built reference";
  }
  const std::size_t mutations = rng.below(4);  // 0 keeps the line
  for (std::size_t i = 0; i < mutations; ++i) mutate_line(line, rng);
  return check_line(line, accepted);
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

  std::size_t lines = 0;
  std::size_t lines_accepted = 0;
  std::size_t line_failures = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed ^ 0xC4EC9017C4EC9017ULL);  // a stream apart from the CSV one
    for (std::size_t k = 0; k < kInputsPerSeed; ++k) {
      std::string line;
      bool ok = false;
      const std::string broken = check_checkpoint(rng, line, ok);
      ++lines;
      if (ok) ++lines_accepted;
      if (!broken.empty()) {
        ++line_failures;
        std::cout << "FAIL checkpoint seed " << seed << " input " << k << " '"
                  << escape(line) << "': " << broken << "\n";
      }
    }
  }
  std::cout << "csv_fuzz: " << lines << " checkpoint lines over " << seeds
            << " seeds, " << lines_accepted << " accepted, " << line_failures
            << " failure" << (line_failures == 1 ? "" : "s") << "\n";
  return failures == 0 && line_failures == 0 ? 0 : 1;
}
