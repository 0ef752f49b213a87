// Tree-built reference codec for checkpoint lines (csv_fuzz's differential
// oracle). It encodes through a JsonValue tree and dump(), and decodes
// through JsonValue::parse and at(), the way sim/checkpoint.cpp did before
// it wrote and read lines directly. Counts keep that codec's leniency: any
// number >= 0 is truncated to size_t, and `lenient_count` reports when the
// value was not an integer in [0, 2^53], which decode_trial rejects.
#pragma once

#include <charconv>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "sim/checkpoint.hpp"

namespace hcsched::testing {

using obs::JsonValue;

inline std::string reference_encode(const sim::CheckpointKey& key,
                                    const sim::TrialOutcome& outcome) {
  JsonValue::Array records;
  for (const sim::TrialRecord& record : outcome.records) {
    JsonValue::Array deltas(record.finish_deltas.begin(),
                            record.finish_deltas.end());
    records.emplace_back(JsonValue::Object{
        {"heuristic", JsonValue(record.heuristic)},
        {"improved", JsonValue(record.machines_improved)},
        {"unchanged", JsonValue(record.machines_unchanged)},
        {"worsened", JsonValue(record.machines_worsened)},
        {"finish_deltas", JsonValue(std::move(deltas))},
        {"mean_completion_delta",
         record.has_mean_completion_delta
             ? JsonValue(record.mean_completion_delta)
             : JsonValue(nullptr)},
        {"makespan_increased", JsonValue(record.makespan_increased)},
        {"original_makespan", JsonValue(record.original_makespan)},
        {"gap_pct",
         record.has_gap ? JsonValue(record.gap_pct) : JsonValue(nullptr)},
        {"gap_exact", JsonValue(record.gap_exact)}});
  }
  JsonValue::Array quarantined;
  for (const sim::QuarantineRecord& q : outcome.quarantined) {
    quarantined.emplace_back(
        JsonValue::Object{{"heuristic", JsonValue(q.heuristic)},
                          {"site", JsonValue(q.site)},
                          {"error", JsonValue(q.error)}});
  }
  return JsonValue(JsonValue::Object{
                       {"v", JsonValue(1)},
                       {"point", JsonValue(key.point)},
                       {"seed", JsonValue(std::to_string(key.seed))},
                       {"trial", JsonValue(key.trial)},
                       {"records", JsonValue(std::move(records))},
                       {"quarantined", JsonValue(std::move(quarantined))}})
      .dump();
}

struct ReferenceDecoded {
  std::optional<std::pair<sim::CheckpointKey, sim::TrialOutcome>> trial;
  /// Some count the reference truncated is not an integer in [0, 2^53].
  bool lenient_count = false;
};

inline ReferenceDecoded reference_decode(std::string_view line) {
  ReferenceDecoded out;
  const auto as_size = [&out](const JsonValue& v) {
    const double d = v.as_number();
    if (!(d >= 0.0)) throw std::invalid_argument("negative count");
    if (d > 9007199254740992.0 || d != std::floor(d)) {
      out.lenient_count = true;
    }
    return d >= 18446744073709551616.0 ? std::size_t{0}
                                       : static_cast<std::size_t>(d);
  };
  try {
    const JsonValue value = JsonValue::parse(line);
    if (value.at("v").as_number() != 1.0) return out;
    sim::CheckpointKey key;
    key.point = value.at("point").as_string();
    const std::string& seed = value.at("seed").as_string();
    const auto [ptr, ec] =
        std::from_chars(seed.data(), seed.data() + seed.size(), key.seed);
    if (ec != std::errc{} || ptr != seed.data() + seed.size()) return out;
    key.trial = as_size(value.at("trial"));

    sim::TrialOutcome outcome;
    outcome.completed = true;
    for (const JsonValue& item : value.at("records").as_array()) {
      sim::TrialRecord r;
      r.heuristic = item.at("heuristic").as_string();
      r.machines_improved = as_size(item.at("improved"));
      r.machines_unchanged = as_size(item.at("unchanged"));
      r.machines_worsened = as_size(item.at("worsened"));
      for (const JsonValue& d : item.at("finish_deltas").as_array()) {
        r.finish_deltas.push_back(d.as_number());
      }
      if (const JsonValue& mean = item.at("mean_completion_delta");
          !mean.is_null()) {
        r.has_mean_completion_delta = true;
        r.mean_completion_delta = mean.as_number();
      }
      r.makespan_increased = item.at("makespan_increased").as_bool();
      r.original_makespan = item.at("original_makespan").as_number();
      if (const JsonValue* gap = item.find("gap_pct");
          gap != nullptr && !gap->is_null()) {
        r.has_gap = true;
        r.gap_pct = gap->as_number();
      }
      if (const JsonValue* exact = item.find("gap_exact")) {
        r.gap_exact = exact->as_bool();
      }
      outcome.records.push_back(std::move(r));
    }
    for (const JsonValue& item : value.at("quarantined").as_array()) {
      sim::QuarantineRecord q;
      q.trial = key.trial;
      q.study_seed = key.seed;
      q.heuristic = item.at("heuristic").as_string();
      q.site = item.at("site").as_string();
      q.error = item.at("error").as_string();
      outcome.quarantined.push_back(std::move(q));
    }
    out.trial.emplace(std::move(key), std::move(outcome));
  } catch (const std::exception&) {
    out.trial.reset();  // syntax error, missing key or kind mismatch
  }
  return out;
}

}  // namespace hcsched::testing
