#include "io/serialize.h"

#include "march/algorithms.h"
#include "util/error.h"

namespace sramlp::io {

namespace {

JsonValue coord_to_json(const sram::CellCoord& cell) {
  JsonValue v = JsonValue::object();
  v.set("row", JsonValue::integer(cell.row));
  v.set("col", JsonValue::integer(cell.col));
  return v;
}

sram::CellCoord coord_from_json(const JsonValue& json) {
  return {json.at("row").as_size(), json.at("col").as_size()};
}

const char* background_slug(sram::BackgroundKind kind) {
  switch (kind) {
    case sram::BackgroundKind::kSolid0: return "solid0";
    case sram::BackgroundKind::kSolid1: return "solid1";
    case sram::BackgroundKind::kCheckerboard: return "checkerboard";
    case sram::BackgroundKind::kRowStripes: return "row_stripes";
    case sram::BackgroundKind::kColumnStripes: return "column_stripes";
  }
  throw Error("invalid BackgroundKind");
}

const char* column_model_slug(sram::ColumnModel model) {
  switch (model) {
    case sram::ColumnModel::kBitslicedCohort: return "bitsliced_cohort";
    case sram::ColumnModel::kPerColumnReference: return "per_column_reference";
  }
  throw Error("invalid ColumnModel");
}

sram::ColumnModel column_model_from_slug(const std::string& slug) {
  for (const auto model : {sram::ColumnModel::kBitslicedCohort,
                           sram::ColumnModel::kPerColumnReference})
    if (slug == column_model_slug(model)) return model;
  throw Error("unknown column model '" + slug + "'");
}

const char* direction_slug(march::Direction direction) {
  switch (direction) {
    case march::Direction::kUp: return "up";
    case march::Direction::kDown: return "down";
    case march::Direction::kEither: return "either";
  }
  throw Error("invalid Direction");
}

march::Direction direction_from_slug(const std::string& slug) {
  for (const auto d : {march::Direction::kUp, march::Direction::kDown,
                       march::Direction::kEither})
    if (slug == direction_slug(d)) return d;
  throw Error("unknown march direction '" + slug + "'");
}

march::Operation operation_from_string(const std::string& text) {
  for (const auto op : {march::Operation::kR0, march::Operation::kR1,
                        march::Operation::kW0, march::Operation::kW1})
    if (text == march::to_string(op)) return op;
  throw Error("unknown march operation '" + text + "'");
}

constexpr faults::FaultKind kAllFaultKinds[] = {
    faults::FaultKind::kStuckAt0,
    faults::FaultKind::kStuckAt1,
    faults::FaultKind::kTransitionUp,
    faults::FaultKind::kTransitionDown,
    faults::FaultKind::kWriteDisturb,
    faults::FaultKind::kReadDestructive,
    faults::FaultKind::kDeceptiveReadDestructive,
    faults::FaultKind::kIncorrectRead,
    faults::FaultKind::kCouplingInversion,
    faults::FaultKind::kCouplingIdempotent,
    faults::FaultKind::kCouplingState,
    faults::FaultKind::kDynamicReadDestructive,
    faults::FaultKind::kResSensitive,
    faults::FaultKind::kDataRetention,
};

faults::FaultKind fault_kind_from_string(const std::string& name) {
  for (const auto kind : kAllFaultKinds)
    if (name == faults::to_string(kind)) return kind;
  throw Error("unknown fault kind '" + name + "'");
}

}  // namespace

// --- sram --------------------------------------------------------------------

JsonValue to_json(const sram::Geometry& geometry) {
  JsonValue v = JsonValue::object();
  v.set("rows", JsonValue::integer(geometry.rows));
  v.set("cols", JsonValue::integer(geometry.cols));
  v.set("word_width", JsonValue::integer(geometry.word_width));
  return v;
}

sram::Geometry geometry_from_json(const JsonValue& json) {
  sram::Geometry g;
  g.rows = json.at("rows").as_size();
  g.cols = json.at("cols").as_size();
  g.word_width = json.at("word_width").as_size();
  g.validate();
  return g;
}

JsonValue to_json(const sram::DataBackground& background) {
  return JsonValue::string(background_slug(background.kind()));
}

sram::DataBackground background_from_json(const JsonValue& json) {
  const std::string& slug = json.as_string();
  for (const auto kind : sram::DataBackground::kinds())
    if (slug == background_slug(kind)) return sram::DataBackground(kind);
  throw Error("unknown data background '" + slug + "'");
}

// --- march -------------------------------------------------------------------

JsonValue to_json(const march::MarchTest& test) {
  JsonValue v = JsonValue::object();
  v.set("name", JsonValue::string(test.name()));
  JsonValue elements = JsonValue::array();
  for (const march::MarchElement& e : test.elements()) {
    JsonValue el = JsonValue::object();
    if (e.is_pause()) {
      el.set("pause_cycles", JsonValue::integer(e.pause_cycles));
    } else {
      el.set("direction", JsonValue::string(direction_slug(e.direction)));
      JsonValue ops = JsonValue::array();
      for (const march::Operation op : e.ops)
        ops.push_back(JsonValue::string(march::to_string(op)));
      el.set("ops", std::move(ops));
    }
    elements.push_back(std::move(el));
  }
  v.set("elements", std::move(elements));
  return v;
}

march::MarchTest march_from_json(const JsonValue& json) {
  const std::string& name = json.at("name").as_string();
  if (!json.has("elements")) {
    // Bare name: look the algorithm up in the built-in library.
    for (const march::MarchTest& test : march::algorithms::all())
      if (test.name() == name) return test;
    throw Error("unknown built-in March algorithm '" + name + "'");
  }
  const JsonValue& elements = json.at("elements");
  std::vector<march::MarchElement> parsed;
  parsed.reserve(elements.size());
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const JsonValue& el = elements.at(i);
    march::MarchElement e;
    if (el.has("pause_cycles")) {
      e.pause_cycles = el.at("pause_cycles").as_size();
    } else {
      e.direction = direction_from_slug(el.at("direction").as_string());
      const JsonValue& ops = el.at("ops");
      for (std::size_t j = 0; j < ops.size(); ++j)
        e.ops.push_back(operation_from_string(ops.at(j).as_string()));
    }
    parsed.push_back(std::move(e));
  }
  return march::MarchTest(name, std::move(parsed));
}

// --- power -------------------------------------------------------------------

JsonValue to_json(const power::TechnologyParams& tech) {
  JsonValue v = JsonValue::object();
  v.set("vdd", JsonValue::number(tech.vdd));
  v.set("clock_period", JsonValue::number(tech.clock_period));
  v.set("c_bitline", JsonValue::number(tech.c_bitline));
  v.set("c_cellnode", JsonValue::number(tech.c_cellnode));
  v.set("c_wordline_per_column",
        JsonValue::number(tech.c_wordline_per_column));
  v.set("read_swing", JsonValue::number(tech.read_swing));
  v.set("res_fight_current", JsonValue::number(tech.res_fight_current));
  v.set("decay_tau_cycles", JsonValue::number(tech.decay_tau_cycles));
  v.set("discharged_threshold",
        JsonValue::number(tech.discharged_threshold));
  v.set("e_decoder_per_address_bit",
        JsonValue::number(tech.e_decoder_per_address_bit));
  v.set("e_addressbus_per_bit", JsonValue::number(tech.e_addressbus_per_bit));
  v.set("e_clock_tree", JsonValue::number(tech.e_clock_tree));
  v.set("e_sense_amp_per_bit", JsonValue::number(tech.e_sense_amp_per_bit));
  v.set("e_write_driver_per_bit",
        JsonValue::number(tech.e_write_driver_per_bit));
  v.set("e_data_io_per_bit", JsonValue::number(tech.e_data_io_per_bit));
  v.set("e_control_base", JsonValue::number(tech.e_control_base));
  v.set("c_control_element", JsonValue::number(tech.c_control_element));
  return v;
}

power::TechnologyParams technology_from_json(const JsonValue& json) {
  power::TechnologyParams tech;
  tech.vdd = json.at("vdd").as_double();
  tech.clock_period = json.at("clock_period").as_double();
  tech.c_bitline = json.at("c_bitline").as_double();
  tech.c_cellnode = json.at("c_cellnode").as_double();
  tech.c_wordline_per_column = json.at("c_wordline_per_column").as_double();
  tech.read_swing = json.at("read_swing").as_double();
  tech.res_fight_current = json.at("res_fight_current").as_double();
  tech.decay_tau_cycles = json.at("decay_tau_cycles").as_double();
  tech.discharged_threshold = json.at("discharged_threshold").as_double();
  tech.e_decoder_per_address_bit =
      json.at("e_decoder_per_address_bit").as_double();
  tech.e_addressbus_per_bit = json.at("e_addressbus_per_bit").as_double();
  tech.e_clock_tree = json.at("e_clock_tree").as_double();
  tech.e_sense_amp_per_bit = json.at("e_sense_amp_per_bit").as_double();
  tech.e_write_driver_per_bit = json.at("e_write_driver_per_bit").as_double();
  tech.e_data_io_per_bit = json.at("e_data_io_per_bit").as_double();
  tech.e_control_base = json.at("e_control_base").as_double();
  tech.c_control_element = json.at("c_control_element").as_double();
  tech.validate();
  return tech;
}

JsonValue to_json(const power::EnergyMeter& meter) {
  JsonValue v = JsonValue::object();
  v.set("cycles", JsonValue::integer(meter.cycles()));
  JsonValue totals = JsonValue::object();
  for (std::size_t i = 0; i < power::kEnergySourceCount; ++i) {
    const auto source = static_cast<power::EnergySource>(i);
    const double energy = meter.total(source);
    if (energy != 0.0)
      totals.set(power::to_string(source), JsonValue::number(energy));
  }
  v.set("totals", std::move(totals));
  return v;
}

power::EnergyMeter meter_from_json(const JsonValue& json) {
  power::EnergyMeter meter;
  meter.tick_cycles(json.at("cycles").as_uint());
  const JsonValue& totals = json.at("totals");
  for (const auto& [name, value] : totals.members()) {
    bool found = false;
    for (std::size_t i = 0; i < power::kEnergySourceCount && !found; ++i) {
      const auto source = static_cast<power::EnergySource>(i);
      if (name == power::to_string(source)) {
        // One add() per source reproduces the serialized total exactly.
        meter.add(source, value.as_double());
        found = true;
      }
    }
    SRAMLP_REQUIRE(found, "unknown energy source '" + name + "'");
  }
  return meter;
}

JsonValue to_json(const power::TraceSummary& trace) {
  JsonValue v = JsonValue::object();
  v.set("window_cycles", JsonValue::integer(trace.window_cycles));
  v.set("total_cycles", JsonValue::integer(trace.total_cycles));
  v.set("windows", JsonValue::integer(trace.windows));
  v.set("peak_window", JsonValue::integer(trace.peak_window));
  v.set("peak_window_energy_j", JsonValue::number(trace.peak_window_energy_j));
  v.set("peak_power_w", JsonValue::number(trace.peak_power_w));
  v.set("supply_energy_j", JsonValue::number(trace.supply_energy_j));
  v.set("average_power_w", JsonValue::number(trace.average_power_w));
  JsonValue elements = JsonValue::array();
  for (const power::ElementEnergy& e : trace.elements) {
    JsonValue el = JsonValue::object();
    el.set("element", JsonValue::integer(e.element));
    el.set("start_cycle", JsonValue::integer(e.start_cycle));
    el.set("cycles", JsonValue::integer(e.cycles));
    el.set("supply_energy_j", JsonValue::number(e.supply_energy_j));
    el.set("precharge_energy_j", JsonValue::number(e.precharge_energy_j));
    elements.push_back(std::move(el));
  }
  v.set("elements", std::move(elements));
  if (!trace.window_supply_j.empty()) {
    JsonValue windows = JsonValue::array();
    for (const double w : trace.window_supply_j)
      windows.push_back(JsonValue::number(w));
    v.set("window_supply_j", std::move(windows));
  }
  return v;
}

power::TraceSummary trace_summary_from_json(const JsonValue& json) {
  power::TraceSummary trace;
  trace.window_cycles = json.at("window_cycles").as_uint();
  trace.total_cycles = json.at("total_cycles").as_uint();
  trace.windows = json.at("windows").as_uint();
  trace.peak_window = json.at("peak_window").as_uint();
  trace.peak_window_energy_j = json.at("peak_window_energy_j").as_double();
  trace.peak_power_w = json.at("peak_power_w").as_double();
  trace.supply_energy_j = json.at("supply_energy_j").as_double();
  trace.average_power_w = json.at("average_power_w").as_double();
  const JsonValue& elements = json.at("elements");
  trace.elements.reserve(elements.size());
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const JsonValue& el = elements.at(i);
    power::ElementEnergy e;
    e.element = el.at("element").as_size();
    e.start_cycle = el.at("start_cycle").as_uint();
    e.cycles = el.at("cycles").as_uint();
    e.supply_energy_j = el.at("supply_energy_j").as_double();
    e.precharge_energy_j = el.at("precharge_energy_j").as_double();
    trace.elements.push_back(e);
  }
  if (json.has("window_supply_j")) {
    const JsonValue& windows = json.at("window_supply_j");
    trace.window_supply_j.reserve(windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i)
      trace.window_supply_j.push_back(windows.at(i).as_double());
  }
  return trace;
}

// --- core configuration ------------------------------------------------------

std::string to_slug(sram::Mode mode) {
  switch (mode) {
    case sram::Mode::kFunctional: return "functional";
    case sram::Mode::kLowPowerTest: return "low_power_test";
  }
  throw Error("invalid Mode");
}

sram::Mode mode_from_slug(const std::string& slug) {
  for (const auto mode : {sram::Mode::kFunctional, sram::Mode::kLowPowerTest})
    if (slug == to_slug(mode)) return mode;
  throw Error("unknown mode '" + slug + "'");
}

std::string to_slug(core::BackendChoice backend) {
  switch (backend) {
    case core::BackendChoice::kAuto: return "auto";
    case core::BackendChoice::kAnalytic: return "analytic";
    case core::BackendChoice::kCycleAccurate: return "cycle_accurate";
  }
  throw Error("invalid BackendChoice");
}

core::BackendChoice backend_from_slug(const std::string& slug) {
  for (const auto backend :
       {core::BackendChoice::kAuto, core::BackendChoice::kAnalytic,
        core::BackendChoice::kCycleAccurate})
    if (slug == to_slug(backend)) return backend;
  throw Error("unknown backend '" + slug + "'");
}

JsonValue to_json(const core::SessionConfig& config) {
  JsonValue v = JsonValue::object();
  v.set("geometry", to_json(config.geometry));
  v.set("tech", to_json(config.tech));
  v.set("mode", JsonValue::string(to_slug(config.mode)));
  if (config.order) {
    JsonValue order = JsonValue::object();
    order.set("kind",
              JsonValue::string(march::to_string(config.order->kind())));
    order.set("rows", JsonValue::integer(config.order->rows()));
    order.set("col_groups", JsonValue::integer(config.order->col_groups()));
    JsonValue sequence = JsonValue::array();
    for (const march::Address& a : config.order->sequence()) {
      JsonValue addr = JsonValue::array();
      addr.push_back(JsonValue::integer(a.row));
      addr.push_back(JsonValue::integer(a.col));
      sequence.push_back(std::move(addr));
    }
    order.set("sequence", std::move(sequence));
    v.set("order", std::move(order));
  }
  v.set("row_transition_restore",
        JsonValue::boolean(config.row_transition_restore));
  v.set("strict_lp_order", JsonValue::boolean(config.strict_lp_order));
  v.set("invert_background", JsonValue::boolean(config.invert_background));
  v.set("background", to_json(config.background));
  v.set("wordline_duty", JsonValue::number(config.wordline_duty));
  v.set("swap_threshold_frac", JsonValue::number(config.swap_threshold_frac));
  v.set("column_model",
        JsonValue::string(column_model_slug(config.column_model)));
  if (config.trace) {
    JsonValue trace = JsonValue::object();
    trace.set("window_cycles", JsonValue::integer(config.trace->window_cycles));
    trace.set("keep_windows", JsonValue::boolean(config.trace->keep_windows));
    v.set("trace", std::move(trace));
  }
  return v;
}

core::SessionConfig session_config_from_json(const JsonValue& json) {
  core::SessionConfig config;
  config.geometry = geometry_from_json(json.at("geometry"));
  config.tech = technology_from_json(json.at("tech"));
  config.mode = mode_from_slug(json.at("mode").as_string());
  if (json.has("order")) {
    const JsonValue& order = json.at("order");
    const JsonValue& sequence = order.at("sequence");
    std::vector<march::Address> addresses;
    addresses.reserve(sequence.size());
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      const JsonValue& a = sequence.at(i);
      addresses.push_back({a.at(0).as_size(), a.at(1).as_size()});
    }
    // Rebuilt as a custom order: execution (and the LP-mode order check)
    // depends only on the sequence, not on the factory that built it.
    config.order = march::AddressOrder::custom(order.at("rows").as_size(),
                                               order.at("col_groups").as_size(),
                                               std::move(addresses));
  }
  config.row_transition_restore = json.at("row_transition_restore").as_bool();
  config.strict_lp_order = json.at("strict_lp_order").as_bool();
  config.invert_background = json.at("invert_background").as_bool();
  config.background = background_from_json(json.at("background"));
  config.wordline_duty = json.at("wordline_duty").as_double();
  config.swap_threshold_frac = json.at("swap_threshold_frac").as_double();
  config.column_model =
      column_model_from_slug(json.at("column_model").as_string());
  if (json.has("trace")) {
    const JsonValue& trace = json.at("trace");
    power::TraceConfig tc;
    tc.window_cycles = trace.at("window_cycles").as_uint();
    tc.keep_windows = trace.at("keep_windows").as_bool();
    config.trace = tc;
  }
  return config;
}

JsonValue to_json(const core::SweepGrid& grid) {
  JsonValue v = JsonValue::object();
  JsonValue geometries = JsonValue::array();
  for (const sram::Geometry& g : grid.geometries)
    geometries.push_back(to_json(g));
  v.set("geometries", std::move(geometries));
  JsonValue backgrounds = JsonValue::array();
  for (const sram::DataBackground& b : grid.backgrounds)
    backgrounds.push_back(to_json(b));
  v.set("backgrounds", std::move(backgrounds));
  JsonValue algorithms = JsonValue::array();
  for (const march::MarchTest& a : grid.algorithms)
    algorithms.push_back(to_json(a));
  v.set("algorithms", std::move(algorithms));
  v.set("base", to_json(grid.base));
  return v;
}

core::SweepGrid sweep_grid_from_json(const JsonValue& json) {
  core::SweepGrid grid;
  const JsonValue& geometries = json.at("geometries");
  grid.geometries.clear();
  for (std::size_t i = 0; i < geometries.size(); ++i)
    grid.geometries.push_back(geometry_from_json(geometries.at(i)));
  const JsonValue& backgrounds = json.at("backgrounds");
  grid.backgrounds.clear();
  for (std::size_t i = 0; i < backgrounds.size(); ++i)
    grid.backgrounds.push_back(background_from_json(backgrounds.at(i)));
  const JsonValue& algorithms = json.at("algorithms");
  grid.algorithms.clear();
  for (std::size_t i = 0; i < algorithms.size(); ++i)
    grid.algorithms.push_back(march_from_json(algorithms.at(i)));
  grid.base = session_config_from_json(json.at("base"));
  return grid;
}

// --- faults ------------------------------------------------------------------

JsonValue to_json(const faults::FaultSpec& spec) {
  JsonValue v = JsonValue::object();
  v.set("kind", JsonValue::string(faults::to_string(spec.kind)));
  v.set("victim", coord_to_json(spec.victim));
  if (faults::is_coupling(spec.kind)) {
    v.set("aggressor", coord_to_json(spec.aggressor));
    v.set("aggressor_up", JsonValue::boolean(spec.aggressor_up));
    v.set("aggressor_state", JsonValue::boolean(spec.aggressor_state));
  }
  v.set("forced_value", JsonValue::boolean(spec.forced_value));
  v.set("res_threshold", JsonValue::number(spec.res_threshold));
  v.set("retention_idle_cycles",
        JsonValue::integer(spec.retention_idle_cycles));
  return v;
}

faults::FaultSpec fault_spec_from_json(const JsonValue& json) {
  faults::FaultSpec spec;
  spec.kind = fault_kind_from_string(json.at("kind").as_string());
  spec.victim = coord_from_json(json.at("victim"));
  if (json.has("aggressor")) {
    spec.aggressor = coord_from_json(json.at("aggressor"));
    spec.aggressor_up = json.at("aggressor_up").as_bool();
    spec.aggressor_state = json.at("aggressor_state").as_bool();
  }
  spec.forced_value = json.at("forced_value").as_bool();
  spec.res_threshold = json.at("res_threshold").as_double();
  spec.retention_idle_cycles = json.at("retention_idle_cycles").as_uint();
  return spec;
}

// --- results -----------------------------------------------------------------

JsonValue to_json(const core::SessionResult& result) {
  JsonValue v = JsonValue::object();
  v.set("algorithm", JsonValue::string(result.algorithm));
  v.set("mode", JsonValue::string(to_slug(result.mode)));
  v.set("fell_back_to_functional",
        JsonValue::boolean(result.fell_back_to_functional));
  v.set("cycles", JsonValue::integer(result.cycles));
  v.set("supply_energy_j", JsonValue::number(result.supply_energy_j));
  v.set("energy_per_cycle_j", JsonValue::number(result.energy_per_cycle_j));
  v.set("meter", to_json(result.meter));
  JsonValue stats = JsonValue::object();
  stats.set("cycles", JsonValue::integer(result.stats.cycles));
  stats.set("reads", JsonValue::integer(result.stats.reads));
  stats.set("writes", JsonValue::integer(result.stats.writes));
  stats.set("read_mismatches",
            JsonValue::integer(result.stats.read_mismatches));
  stats.set("faulty_swaps", JsonValue::integer(result.stats.faulty_swaps));
  stats.set("row_transitions",
            JsonValue::integer(result.stats.row_transitions));
  stats.set("restore_cycles", JsonValue::integer(result.stats.restore_cycles));
  stats.set("full_res_column_cycles",
            JsonValue::integer(result.stats.full_res_column_cycles));
  stats.set("decay_stress_equiv_post_op",
            JsonValue::number(result.stats.decay_stress_equiv_post_op));
  stats.set("decay_stress_equiv_pre_op",
            JsonValue::number(result.stats.decay_stress_equiv_pre_op));
  v.set("stats", std::move(stats));
  v.set("mismatches", JsonValue::integer(result.mismatches));
  JsonValue detections = JsonValue::array();
  for (const core::Detection& d : result.first_detections) {
    JsonValue det = JsonValue::object();
    det.set("element", JsonValue::integer(d.element));
    det.set("op", JsonValue::integer(d.op));
    det.set("row", JsonValue::integer(d.row));
    det.set("col_group", JsonValue::integer(d.col_group));
    det.set("col", JsonValue::integer(d.col));
    detections.push_back(std::move(det));
  }
  v.set("first_detections", std::move(detections));
  if (result.trace) v.set("trace", to_json(*result.trace));
  return v;
}

core::SessionResult session_result_from_json(const JsonValue& json) {
  core::SessionResult result;
  result.algorithm = json.at("algorithm").as_string();
  result.mode = mode_from_slug(json.at("mode").as_string());
  result.fell_back_to_functional =
      json.at("fell_back_to_functional").as_bool();
  result.cycles = json.at("cycles").as_uint();
  result.supply_energy_j = json.at("supply_energy_j").as_double();
  result.energy_per_cycle_j = json.at("energy_per_cycle_j").as_double();
  result.meter = meter_from_json(json.at("meter"));
  const JsonValue& stats = json.at("stats");
  result.stats.cycles = stats.at("cycles").as_uint();
  result.stats.reads = stats.at("reads").as_uint();
  result.stats.writes = stats.at("writes").as_uint();
  result.stats.read_mismatches = stats.at("read_mismatches").as_uint();
  result.stats.faulty_swaps = stats.at("faulty_swaps").as_uint();
  result.stats.row_transitions = stats.at("row_transitions").as_uint();
  result.stats.restore_cycles = stats.at("restore_cycles").as_uint();
  result.stats.full_res_column_cycles =
      stats.at("full_res_column_cycles").as_uint();
  result.stats.decay_stress_equiv_post_op =
      stats.at("decay_stress_equiv_post_op").as_double();
  result.stats.decay_stress_equiv_pre_op =
      stats.at("decay_stress_equiv_pre_op").as_double();
  result.mismatches = json.at("mismatches").as_uint();
  const JsonValue& detections = json.at("first_detections");
  for (std::size_t i = 0; i < detections.size(); ++i) {
    const JsonValue& det = detections.at(i);
    core::Detection d;
    d.element = det.at("element").as_size();
    d.op = det.at("op").as_size();
    d.row = det.at("row").as_size();
    d.col_group = det.at("col_group").as_size();
    d.col = det.at("col").as_size();
    result.first_detections.push_back(d);
  }
  if (json.has("trace"))
    result.trace = trace_summary_from_json(json.at("trace"));
  return result;
}

JsonValue to_json(const core::PrrComparison& comparison) {
  JsonValue v = JsonValue::object();
  v.set("functional", to_json(comparison.functional));
  v.set("low_power", to_json(comparison.low_power));
  v.set("prr", JsonValue::number(comparison.prr));
  return v;
}

core::PrrComparison prr_comparison_from_json(const JsonValue& json) {
  core::PrrComparison comparison;
  comparison.functional = session_result_from_json(json.at("functional"));
  comparison.low_power = session_result_from_json(json.at("low_power"));
  comparison.prr = json.at("prr").as_double();
  return comparison;
}

JsonValue to_json(const core::SweepPointResult& point) {
  JsonValue v = JsonValue::object();
  v.set("index", JsonValue::integer(point.index));
  v.set("geometry", JsonValue::integer(point.geometry));
  v.set("background", JsonValue::integer(point.background));
  v.set("algorithm", JsonValue::integer(point.algorithm));
  v.set("backend", JsonValue::string(to_slug(point.backend)));
  v.set("prr", to_json(point.prr));
  return v;
}

core::SweepPointResult sweep_point_from_json(const JsonValue& json) {
  core::SweepPointResult point;
  point.index = json.at("index").as_size();
  point.geometry = json.at("geometry").as_size();
  point.background = json.at("background").as_size();
  point.algorithm = json.at("algorithm").as_size();
  point.backend = backend_from_slug(json.at("backend").as_string());
  point.prr = prr_comparison_from_json(json.at("prr"));
  return point;
}

JsonValue to_json(const core::CampaignEntry& entry) {
  JsonValue v = JsonValue::object();
  v.set("spec", to_json(entry.spec));
  v.set("detected_functional", JsonValue::boolean(entry.detected_functional));
  v.set("detected_low_power", JsonValue::boolean(entry.detected_low_power));
  v.set("mismatches_functional",
        JsonValue::integer(entry.mismatches_functional));
  v.set("mismatches_low_power",
        JsonValue::integer(entry.mismatches_low_power));
  return v;
}

core::CampaignEntry campaign_entry_from_json(const JsonValue& json) {
  core::CampaignEntry entry;
  entry.spec = fault_spec_from_json(json.at("spec"));
  entry.detected_functional = json.at("detected_functional").as_bool();
  entry.detected_low_power = json.at("detected_low_power").as_bool();
  entry.mismatches_functional = json.at("mismatches_functional").as_uint();
  entry.mismatches_low_power = json.at("mismatches_low_power").as_uint();
  return entry;
}

}  // namespace sramlp::io
