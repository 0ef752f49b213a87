#include "sim/checkpoint.hpp"

#include <charconv>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/fault/fault.hpp"

namespace hcsched::sim {

namespace {

constexpr int kVersion = 1;
/// Largest count a line may carry: 2^53, the end of the integers that the
/// doubles JSON numbers are read as hold exactly.
constexpr double kMaxCount = 9007199254740992.0;

void append_count(std::string& out, std::size_t count) {
  obs::append_json_number(out, static_cast<double>(count));
}

void append_optional(std::string& out, bool has, double value) {
  if (has) {
    obs::append_json_number(out, value);
  } else {
    out += "null";
  }
}

void append_bool(std::string& out, bool value) {
  out += value ? "true" : "false";
}

void append_record(std::string& out, const TrialRecord& record) {
  out += "{\"heuristic\":";
  obs::append_json_string(out, record.heuristic);
  out += ",\"improved\":";
  append_count(out, record.machines_improved);
  out += ",\"unchanged\":";
  append_count(out, record.machines_unchanged);
  out += ",\"worsened\":";
  append_count(out, record.machines_worsened);
  out += ",\"finish_deltas\":[";
  for (std::size_t i = 0; i < record.finish_deltas.size(); ++i) {
    if (i > 0) out.push_back(',');
    obs::append_json_number(out, record.finish_deltas[i]);
  }
  out += "],\"mean_completion_delta\":";
  append_optional(out, record.has_mean_completion_delta,
                  record.mean_completion_delta);
  out += ",\"makespan_increased\":";
  append_bool(out, record.makespan_increased);
  out += ",\"original_makespan\":";
  obs::append_json_number(out, record.original_makespan);
  out += ",\"gap_pct\":";
  append_optional(out, record.has_gap, record.gap_pct);
  out += ",\"gap_exact\":";
  append_bool(out, record.gap_exact);
  out.push_back('}');
}

void append_quarantined(std::string& out, const QuarantineRecord& q) {
  out += "{\"heuristic\":";
  obs::append_json_string(out, q.heuristic);
  out += ",\"site\":";
  obs::append_json_string(out, q.site);
  out += ",\"error\":";
  obs::append_json_string(out, q.error);
  out.push_back('}');
}

[[noreturn]] void corrupt(const char* what) {
  throw std::invalid_argument(std::string("checkpoint: ") + what);
}

/// A count: an integer in [0, 2^53]. A fraction, a negative or a larger
/// value marks the line corrupt instead of being truncated.
std::size_t read_count(obs::JsonReader& reader) {
  const double d = reader.read_number();
  if (!(d >= 0.0 && d <= kMaxCount) || d != std::floor(d)) {
    corrupt("count is not an integer in [0, 2^53]");
  }
  return static_cast<std::size_t>(d);
}

/// A number, or nullopt for `null` ("not recorded").
std::optional<double> read_optional(obs::JsonReader& reader) {
  if (reader.peek() == obs::JsonReader::Kind::kNull) {
    reader.read_null();
    return std::nullopt;
  }
  return reader.read_number();
}

/// Walks one object, calling `read(field)` for the first occurrence of each
/// key in `names` (the enumerators of Field, in order); unknown keys and
/// later duplicates are skipped, so the first occurrence wins. Fails unless
/// the first `required` names were all present.
template <typename Field, std::size_t N, typename Read>
void read_fields(obs::JsonReader& reader, const std::string_view (&names)[N],
                 std::size_t required, Read read) {
  static_assert(N < 32);
  std::string scratch;
  std::uint32_t seen = 0;
  reader.begin_object();
  while (const auto key = reader.next_key(scratch)) {
    std::size_t i = 0;
    while (i < N && *key != names[i]) ++i;
    if (i == N || (seen >> i & 1U) != 0) {
      reader.skip();
      continue;
    }
    seen |= 1U << i;
    read(static_cast<Field>(i));
  }
  const std::uint32_t all_required = (1U << required) - 1U;
  if ((seen & all_required) != all_required) corrupt("missing field");
}

enum class RecordField {
  kHeuristic,
  kImproved,
  kUnchanged,
  kWorsened,
  kFinishDeltas,
  kMeanCompletionDelta,
  kMakespanIncreased,
  kOriginalMakespan,
  kGapPct,
  kGapExact,
};
constexpr std::string_view kRecordFields[] = {
    "heuristic",          "improved",          "unchanged",
    "worsened",           "finish_deltas",     "mean_completion_delta",
    "makespan_increased", "original_makespan", "gap_pct",
    "gap_exact"};

/// `deltas` is the caller's buffer, reused across records so that each
/// record's finish_deltas is allocated once, at its exact size (a resumed
/// study holds every loaded record until it ends).
TrialRecord read_record(obs::JsonReader& reader, std::vector<double>& deltas) {
  TrialRecord record;
  // The first eight fields are required; gap_pct and gap_exact came after
  // v1's first lines and may be absent.
  read_fields<RecordField>(reader, kRecordFields, 8, [&](RecordField field) {
    switch (field) {
      case RecordField::kHeuristic:
        record.heuristic = reader.read_string();
        break;
      case RecordField::kImproved:
        record.machines_improved = read_count(reader);
        break;
      case RecordField::kUnchanged:
        record.machines_unchanged = read_count(reader);
        break;
      case RecordField::kWorsened:
        record.machines_worsened = read_count(reader);
        break;
      case RecordField::kFinishDeltas:
        deltas.clear();
        reader.begin_array();
        while (reader.next_item()) deltas.push_back(reader.read_number());
        record.finish_deltas.assign(deltas.begin(), deltas.end());
        break;
      case RecordField::kMeanCompletionDelta:
        if (const auto mean = read_optional(reader)) {
          record.has_mean_completion_delta = true;
          record.mean_completion_delta = *mean;
        }
        break;
      case RecordField::kMakespanIncreased:
        record.makespan_increased = reader.read_bool();
        break;
      case RecordField::kOriginalMakespan:
        record.original_makespan = reader.read_number();
        break;
      case RecordField::kGapPct:
        if (const auto gap = read_optional(reader)) {
          record.has_gap = true;
          record.gap_pct = *gap;
        }
        break;
      case RecordField::kGapExact:
        record.gap_exact = reader.read_bool();
        break;
    }
  });
  return record;
}

enum class QuarantineField { kHeuristic, kSite, kError };
constexpr std::string_view kQuarantineFields[] = {"heuristic", "site",
                                                  "error"};

QuarantineRecord read_quarantined(obs::JsonReader& reader) {
  QuarantineRecord q;
  read_fields<QuarantineField>(
      reader, kQuarantineFields, 3, [&](QuarantineField field) {
        std::string& target = field == QuarantineField::kHeuristic ? q.heuristic
                              : field == QuarantineField::kSite    ? q.site
                                                                   : q.error;
        target = reader.read_string();
      });
  return q;
}

enum class TrialField { kV, kPoint, kSeed, kTrial, kRecords, kQuarantined };
constexpr std::string_view kTrialFields[] = {
    "v", "point", "seed", "trial", "records", "quarantined"};

/// Opens `path` for append. A killed run leaves a last line without its
/// '\n'; that line is ended first, so the next line appended is not glued
/// onto it (which would lose its trial along with the torn one).
std::ofstream open_for_append(const std::string& path) {
  bool torn = false;
  if (std::ifstream tail(path, std::ios::binary | std::ios::ate);
      tail.is_open() && tail.tellg() > 0) {
    tail.seekg(-1, std::ios::end);
    torn = tail.get() != '\n';
  }
  std::ofstream out(path, std::ios::app);
  if (!out.is_open()) {
    throw std::runtime_error("checkpoint: cannot open " + path +
                             " for append");
  }
  if (torn && !(out << '\n').flush()) {
    throw std::runtime_error("checkpoint: write to " + path + " failed");
  }
  return out;
}

}  // namespace

const TrialOutcome* CheckpointData::find(std::string_view point,
                                         std::uint64_t seed,
                                         std::size_t trial) const {
  const auto it =
      trials.find(CheckpointKey{std::string(point), seed, trial});
  return it == trials.end() ? nullptr : &it->second;
}

std::string encode_trial(const CheckpointKey& key,
                         const TrialOutcome& outcome) {
  std::size_t size = 96 + key.point.size();
  for (const TrialRecord& record : outcome.records) {
    size += 256 + record.heuristic.size() + 24 * record.finish_deltas.size();
  }
  for (const QuarantineRecord& q : outcome.quarantined) {
    size += 48 + q.heuristic.size() + q.site.size() + q.error.size();
  }
  std::string line;
  line.reserve(size);
  line += "{\"v\":";
  append_count(line, kVersion);
  line += ",\"point\":";
  obs::append_json_string(line, key.point);
  // Decimal string: a uint64 seed survives the double-based JSON model.
  char seed[24];
  line += ",\"seed\":\"";
  line.append(seed, std::to_chars(seed, seed + sizeof seed, key.seed).ptr);
  line += "\",\"trial\":";
  append_count(line, key.trial);
  line += ",\"records\":[";
  for (std::size_t i = 0; i < outcome.records.size(); ++i) {
    if (i > 0) line.push_back(',');
    append_record(line, outcome.records[i]);
  }
  line += "],\"quarantined\":[";
  for (std::size_t i = 0; i < outcome.quarantined.size(); ++i) {
    if (i > 0) line.push_back(',');
    append_quarantined(line, outcome.quarantined[i]);
  }
  line += "]}";
  return line;
}

std::optional<std::pair<CheckpointKey, TrialOutcome>> decode_trial(
    std::string_view line) {
  try {
    obs::JsonReader reader(line);
    CheckpointKey key;
    TrialOutcome outcome;
    outcome.completed = true;
    bool current_version = false;
    read_fields<TrialField>(reader, kTrialFields, 6, [&](TrialField field) {
      switch (field) {
        case TrialField::kV:
          current_version =
              reader.read_number() == static_cast<double>(kVersion);
          break;
        case TrialField::kPoint:
          key.point = reader.read_string();
          break;
        case TrialField::kSeed: {
          std::string scratch;
          const std::string_view text = reader.read_string(scratch);
          const auto [ptr, ec] = std::from_chars(
              text.data(), text.data() + text.size(), key.seed);
          if (ec != std::errc{} || ptr != text.data() + text.size()) {
            corrupt("seed is not a decimal uint64");
          }
          break;
        }
        case TrialField::kTrial:
          key.trial = read_count(reader);
          break;
        case TrialField::kRecords: {
          std::vector<double> deltas;
          reader.begin_array();
          while (reader.next_item()) {
            outcome.records.push_back(read_record(reader, deltas));
          }
          outcome.records.shrink_to_fit();  // exact, like the deltas
          break;
        }
        case TrialField::kQuarantined:
          reader.begin_array();
          while (reader.next_item()) {
            outcome.quarantined.push_back(read_quarantined(reader));
          }
          outcome.quarantined.shrink_to_fit();
          break;
      }
    });
    reader.finish();
    if (!current_version) return std::nullopt;
    for (QuarantineRecord& q : outcome.quarantined) {
      q.trial = key.trial;
      q.study_seed = key.seed;
    }
    return std::make_pair(std::move(key), std::move(outcome));
  } catch (const std::exception&) {
    return std::nullopt;  // syntax error, missing field or kind mismatch
  }
}

CheckpointData load_checkpoint(const std::string& path) {
  HCSCHED_SPAN(load_span, "checkpoint.load");
  CheckpointData data;
  std::ifstream in(path);
  if (!in.is_open()) return data;  // resuming from nothing
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++data.lines_read;
    if (auto decoded = decode_trial(line)) {
      // Later duplicates win: an appended re-run supersedes earlier lines.
      data.trials.insert_or_assign(std::move(decoded->first),
                                   std::move(decoded->second));
    } else {
      ++data.corrupt_lines;
      HCSCHED_COUNT(obs::Counter::kCheckpointCorruptLines);
      HCSCHED_TRACE_EVENT("checkpoint.corrupt_line",
                          {{"path", obs::JsonValue(path)},
                           {"line", obs::JsonValue(data.lines_read)}});
    }
  }
  HCSCHED_SPAN_ATTR(load_span, "lines", obs::JsonValue(data.lines_read));
  HCSCHED_SPAN_ATTR(load_span, "corrupt",
                    obs::JsonValue(data.corrupt_lines));
  return data;
}

CheckpointWriter::CheckpointWriter(const std::string& path)
    : path_(path), out_(open_for_append(path)) {}

void CheckpointWriter::append_trial(const CheckpointKey& key,
                                    const TrialOutcome& outcome) {
  fault::maybe_inject(fault::Site::kCheckpointWrite, key.trial);
  HCSCHED_SPAN(write_span, "checkpoint.append");
  HCSCHED_SPAN_ATTR(write_span, "trial", obs::JsonValue(key.trial));
  std::string line = encode_trial(key, outcome);
  line.push_back('\n');
  // Audited: durability requires the flush inside the lock — a checkpoint
  // line must be on disk before the next writer interleaves (crash-resume
  // replays only fully flushed lines).
  const core::MutexLock lock(mutex_);
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  out_.flush();  // lint:allow(blocking-under-lock)
  if (!out_) {
    throw std::runtime_error("checkpoint: write to " + path_ + " failed");
  }
  HCSCHED_COUNT(obs::Counter::kCheckpointTrialsWritten);
  HCSCHED_TRACE_EVENT("checkpoint.trial_written",
                      {{"point", obs::JsonValue(key.point)},
                       {"trial", obs::JsonValue(key.trial)}});
}

}  // namespace hcsched::sim
