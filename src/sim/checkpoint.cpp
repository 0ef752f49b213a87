#include "sim/checkpoint.hpp"

#include <charconv>
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

obs::JsonValue encode_records(const std::vector<TrialRecord>& records) {
  obs::JsonValue::Array array;
  array.reserve(records.size());
  for (const TrialRecord& record : records) {
    obs::JsonValue::Object object;
    object.reserve(9);
    object.emplace_back("heuristic", obs::JsonValue(record.heuristic));
    object.emplace_back("improved", obs::JsonValue(record.machines_improved));
    object.emplace_back("unchanged", obs::JsonValue(record.machines_unchanged));
    object.emplace_back("worsened", obs::JsonValue(record.machines_worsened));
    obs::JsonValue::Array deltas;
    deltas.reserve(record.finish_deltas.size());
    for (const double d : record.finish_deltas) {
      deltas.emplace_back(d);
    }
    object.emplace_back("finish_deltas", obs::JsonValue(std::move(deltas)));
    object.emplace_back("mean_completion_delta",
                        record.has_mean_completion_delta
                            ? obs::JsonValue(record.mean_completion_delta)
                            : obs::JsonValue(nullptr));
    object.emplace_back("makespan_increased",
                        obs::JsonValue(record.makespan_increased));
    object.emplace_back("original_makespan",
                        obs::JsonValue(record.original_makespan));
    object.emplace_back("gap_pct", record.has_gap
                                       ? obs::JsonValue(record.gap_pct)
                                       : obs::JsonValue(nullptr));
    object.emplace_back("gap_exact", obs::JsonValue(record.gap_exact));
    array.emplace_back(std::move(object));
  }
  return obs::JsonValue(std::move(array));
}

obs::JsonValue encode_quarantined(
    const std::vector<QuarantineRecord>& quarantined) {
  obs::JsonValue::Array array;
  array.reserve(quarantined.size());
  for (const QuarantineRecord& q : quarantined) {
    obs::JsonValue::Object object;
    object.reserve(3);
    object.emplace_back("heuristic", obs::JsonValue(q.heuristic));
    object.emplace_back("site", obs::JsonValue(q.site));
    object.emplace_back("error", obs::JsonValue(q.error));
    array.emplace_back(std::move(object));
  }
  return obs::JsonValue(std::move(array));
}

std::size_t as_size(const obs::JsonValue& v) {
  const double d = v.as_number();
  if (!(d >= 0.0)) throw std::invalid_argument("negative count");
  return static_cast<std::size_t>(d);
}

/// Tolerant lookup for fields added after v1. Unlike `.at()` — whose throw
/// marks the whole line corrupt — an absent key returns nullptr, so lines
/// written before the field existed still decode (the field reads as "not
/// recorded", matching the header's "unknown keys are ignored" promise in
/// the other direction).
const obs::JsonValue* find_field(const obs::JsonValue& item,
                                 std::string_view key) {
  for (const auto& [name, value] : item.as_object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::vector<TrialRecord> decode_records(const obs::JsonValue& value) {
  std::vector<TrialRecord> records;
  records.reserve(value.as_array().size());
  for (const obs::JsonValue& item : value.as_array()) {
    TrialRecord record;
    record.heuristic = item.at("heuristic").as_string();
    record.machines_improved = as_size(item.at("improved"));
    record.machines_unchanged = as_size(item.at("unchanged"));
    record.machines_worsened = as_size(item.at("worsened"));
    const auto& deltas = item.at("finish_deltas").as_array();
    record.finish_deltas.reserve(deltas.size());
    for (const obs::JsonValue& d : deltas) {
      record.finish_deltas.push_back(d.as_number());
    }
    const obs::JsonValue& mean = item.at("mean_completion_delta");
    if (!mean.is_null()) {
      record.has_mean_completion_delta = true;
      record.mean_completion_delta = mean.as_number();
    }
    record.makespan_increased = item.at("makespan_increased").as_bool();
    record.original_makespan = item.at("original_makespan").as_number();
    if (const obs::JsonValue* gap = find_field(item, "gap_pct");
        gap != nullptr && !gap->is_null()) {
      record.has_gap = true;
      record.gap_pct = gap->as_number();
    }
    if (const obs::JsonValue* exact = find_field(item, "gap_exact");
        exact != nullptr) {
      record.gap_exact = exact->as_bool();
    }
    records.push_back(std::move(record));
  }
  return records;
}

std::vector<QuarantineRecord> decode_quarantined(const obs::JsonValue& value,
                                                 const CheckpointKey& key) {
  std::vector<QuarantineRecord> quarantined;
  quarantined.reserve(value.as_array().size());
  for (const obs::JsonValue& item : value.as_array()) {
    QuarantineRecord q;
    q.trial = key.trial;
    q.study_seed = key.seed;
    q.heuristic = item.at("heuristic").as_string();
    q.site = item.at("site").as_string();
    q.error = item.at("error").as_string();
    quarantined.push_back(std::move(q));
  }
  return quarantined;
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
  obs::JsonValue::Object object;
  object.reserve(6);
  object.emplace_back("v", obs::JsonValue(kVersion));
  object.emplace_back("point", obs::JsonValue(key.point));
  // Decimal string: a uint64 seed survives the double-based JSON model.
  object.emplace_back("seed", obs::JsonValue(std::to_string(key.seed)));
  object.emplace_back("trial", obs::JsonValue(key.trial));
  object.emplace_back("records", encode_records(outcome.records));
  object.emplace_back("quarantined", encode_quarantined(outcome.quarantined));
  return obs::JsonValue(std::move(object)).dump();
}

std::optional<std::pair<CheckpointKey, TrialOutcome>> decode_trial(
    std::string_view line) {
  try {
    const obs::JsonValue value = obs::JsonValue::parse(line);
    const double version = value.at("v").as_number();
    if (version != static_cast<double>(kVersion)) return std::nullopt;

    CheckpointKey key;
    key.point = value.at("point").as_string();
    const std::string& seed_text = value.at("seed").as_string();
    const auto [ptr, ec] = std::from_chars(
        seed_text.data(), seed_text.data() + seed_text.size(), key.seed);
    if (ec != std::errc{} || ptr != seed_text.data() + seed_text.size()) {
      return std::nullopt;
    }
    key.trial = as_size(value.at("trial"));

    TrialOutcome outcome;
    outcome.completed = true;
    outcome.records = decode_records(value.at("records"));
    outcome.quarantined = decode_quarantined(value.at("quarantined"), key);
    return std::make_pair(std::move(key), std::move(outcome));
  } catch (const std::exception&) {
    return std::nullopt;  // syntax error, missing key, or kind mismatch
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
    : path_(path), out_(path, std::ios::app) {
  if (!out_.is_open()) {
    throw std::runtime_error("checkpoint: cannot open " + path +
                             " for append");
  }
}

void CheckpointWriter::append_trial(const CheckpointKey& key,
                                    const TrialOutcome& outcome) {
  fault::maybe_inject(fault::Site::kCheckpointWrite, key.trial);
  HCSCHED_SPAN(write_span, "checkpoint.append");
  HCSCHED_SPAN_ATTR(write_span, "trial", obs::JsonValue(key.trial));
  const std::string line = encode_trial(key, outcome);
  // Audited: durability requires the flush inside the lock — a checkpoint
  // line must be on disk before the next writer interleaves (crash-resume
  // replays only fully flushed lines).
  const core::MutexLock lock(mutex_);
  out_ << line << '\n';
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
