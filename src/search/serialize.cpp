#include "search/serialize.h"

#include <utility>

#include "io/serialize.h"

namespace sramlp::io {

JsonValue to_json(const search::SearchSpec& spec) {
  JsonValue v = JsonValue::object();
  v.set("config", to_json(spec.config));
  if (spec.base) v.set("base", to_json(*spec.base));
  v.set("peak_budget_w", JsonValue::number(spec.peak_budget_w));
  v.set("window_cycles", JsonValue::integer(spec.window_cycles));
  v.set("seed", JsonValue::integer(spec.seed));
  v.set("restarts", JsonValue::integer(spec.restarts));
  v.set("steps", JsonValue::integer(spec.steps));
  v.set("idle_quantum", JsonValue::integer(spec.idle_quantum));
  v.set("max_idle_quanta", JsonValue::integer(spec.max_idle_quanta));
  v.set("max_front", JsonValue::integer(spec.max_front));
  return v;
}

search::SearchSpec search_spec_from_json(const JsonValue& json) {
  search::SearchSpec spec;
  spec.config = session_config_from_json(json.at("config"));
  if (json.has("base")) spec.base = march_from_json(json.at("base"));
  spec.peak_budget_w = json.at("peak_budget_w").as_double();
  spec.window_cycles = json.at("window_cycles").as_uint();
  spec.seed = json.at("seed").as_uint();
  spec.restarts = json.at("restarts").as_size();
  spec.steps = json.at("steps").as_size();
  spec.idle_quantum = json.at("idle_quantum").as_uint();
  spec.max_idle_quanta = json.at("max_idle_quanta").as_size();
  spec.max_front = json.at("max_front").as_size();
  return spec;
}

JsonValue to_json(const search::ScheduleResult& result) {
  JsonValue v = JsonValue::object();
  v.set("schedule", to_json(result.schedule));
  v.set("cycles", JsonValue::integer(result.cycles));
  v.set("energy_j", JsonValue::number(result.energy_j));
  v.set("peak_power_w", JsonValue::number(result.peak_power_w));
  v.set("verified_peak_w", JsonValue::number(result.verified_peak_w));
  v.set("verified", JsonValue::boolean(result.verified));
  return v;
}

search::ScheduleResult schedule_result_from_json(const JsonValue& json) {
  search::ScheduleResult result{march_from_json(json.at("schedule"))};
  result.cycles = json.at("cycles").as_uint();
  result.energy_j = json.at("energy_j").as_double();
  result.peak_power_w = json.at("peak_power_w").as_double();
  result.verified_peak_w = json.at("verified_peak_w").as_double();
  result.verified = json.at("verified").as_bool();
  return result;
}

JsonValue to_json(const search::SearchOutcome& outcome) {
  JsonValue v = JsonValue::object();
  JsonValue front = JsonValue::array();
  for (const search::ScheduleResult& point : outcome.front)
    front.push_back(to_json(point));
  v.set("front", std::move(front));
  return v;
}

search::SearchOutcome restart_result_from_json(const JsonValue& json) {
  search::SearchOutcome result;
  const JsonValue& front = json.at("front");
  result.front.reserve(front.size());
  for (std::size_t i = 0; i < front.size(); ++i)
    result.front.push_back(schedule_result_from_json(front.at(i)));
  return result;
}

}  // namespace sramlp::io
