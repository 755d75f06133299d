#include "core/session.h"

#include <string>

#include "engine/analytic_backend.h"
#include "engine/cycle_accurate_backend.h"
#include "util/error.h"

namespace sramlp::core {

namespace {

sram::SramConfig make_array_config(const SessionConfig& config, bool lp_ok) {
  sram::SramConfig ac;
  ac.geometry = config.geometry;
  ac.tech = config.tech;
  ac.mode = (config.mode == sram::Mode::kLowPowerTest && lp_ok)
                ? sram::Mode::kLowPowerTest
                : sram::Mode::kFunctional;
  ac.row_transition_restore = config.row_transition_restore;
  ac.wordline_duty = config.wordline_duty;
  ac.swap_threshold_frac = config.swap_threshold_frac;
  ac.column_model = config.column_model;
  return ac;
}

/// Power Reduction Ratio from a pair of per-cycle energies (Table 1).
double prr_of(const SessionResult& functional, const SessionResult& low_power) {
  const double pf = functional.energy_per_cycle_j;
  return pf > 0.0 ? 1.0 - low_power.energy_per_cycle_j / pf : 0.0;
}

}  // namespace

TestSession::TestSession(const SessionConfig& config)
    : config_(config),
      order_(config.order ? *config.order
                          : march::AddressOrder::word_line_after_word_line(
                                config.geometry.rows,
                                config.geometry.col_groups())),
      array_(make_array_config(config, /*lp_ok=*/true)) {
  SRAMLP_REQUIRE(order_->rows() == config_.geometry.rows &&
                     order_->col_groups() == config_.geometry.col_groups(),
                 "address order does not match the array geometry");

  // Paper §4: the low-power test mode assumes the word-line-after-word-line
  // sequence; algorithms needing another order must use functional mode.
  if (config_.mode == sram::Mode::kLowPowerTest &&
      !order_->is_word_line_after_word_line()) {
    SRAMLP_REQUIRE(!config_.strict_lp_order,
                   "low-power test mode requires the "
                   "word-line-after-word-line address order (March DOF-1)");
    fell_back_ = true;
    array_.set_mode(sram::Mode::kFunctional);
  }
}

void TestSession::attach_fault_model(sram::CellFaultModel* model) {
  faults_ = model;
  array_.attach_fault_model(model);
}

engine::CommandStream TestSession::make_stream(
    const march::MarchTest& test) const {
  engine::StreamOptions options;
  options.low_power = array_.mode() == sram::Mode::kLowPowerTest;
  options.row_transition_restore = config_.row_transition_restore;
  options.invert_background = config_.invert_background;
  options.background = config_.background;
  options.trace = config_.trace;
  options.waveform_sink = config_.waveform_sink;
  return engine::CommandStream(test, *order_, options);
}

SessionResult TestSession::run(const march::MarchTest& test) {
  engine::CycleAccurateBackend backend(array_);
  return run(test, backend);
}

SessionResult TestSession::run(const march::MarchTest& test,
                               engine::ExecutionBackend& backend) {
  SRAMLP_REQUIRE(faults_ == nullptr || backend.supports_faults(),
                 std::string("backend '") + backend.name() +
                     "' ignores fault models; detach the model or use a "
                     "fault-capable backend");

  engine::CommandStream stream = make_stream(test);
  engine::ExecutionResult exec = backend.run(stream);

  SessionResult result;
  result.algorithm = test.name();
  result.mode = array_.mode();
  result.fell_back_to_functional = fell_back_;
  result.cycles = exec.cycles;
  result.supply_energy_j = exec.supply_energy_j;
  result.energy_per_cycle_j = exec.energy_per_cycle_j;
  result.meter = std::move(exec.meter);
  result.stats = exec.stats;
  result.mismatches = exec.mismatches;
  result.first_detections = std::move(exec.first_detections);
  result.trace = std::move(exec.trace);
  return result;
}

PrrComparison TestSession::compare_modes(const SessionConfig& config,
                                         const march::MarchTest& test,
                                         sram::CellFaultModel* faults) {
  PrrComparison cmp;

  SessionConfig functional = config;
  functional.mode = sram::Mode::kFunctional;
  TestSession fs(functional);
  fs.attach_fault_model(faults);
  cmp.functional = fs.run(test);

  SessionConfig low_power = config;
  low_power.mode = sram::Mode::kLowPowerTest;
  TestSession ls(low_power);
  ls.attach_fault_model(faults);
  cmp.low_power = ls.run(test);

  cmp.prr = prr_of(cmp.functional, cmp.low_power);
  return cmp;
}

PrrComparison TestSession::compare_modes_analytic(const SessionConfig& config,
                                                  const march::MarchTest& test) {
  // Session-free fast path: no per-cell array is ever built, the two mode
  // runs share one address order, and the default word-line-after-word-
  // line order is computed rather than materialised.  The closed form reads
  // only the order's size, so a default sweep point costs O(1).
  const march::AddressOrder order =
      config.order ? *config.order
                   : march::AddressOrder::word_line_after_word_line(
                         config.geometry.rows, config.geometry.col_groups());
  SRAMLP_REQUIRE(order.rows() == config.geometry.rows &&
                     order.col_groups() == config.geometry.col_groups(),
                 "address order does not match the array geometry");
  // Paper §4 fallback, as TestSession would resolve it for the LP leg.
  const bool lp_ok = order.is_word_line_after_word_line();
  SRAMLP_REQUIRE(lp_ok || !config.strict_lp_order,
                 "low-power test mode requires the "
                 "word-line-after-word-line address order (March DOF-1)");

  engine::AnalyticBackend backend(config.tech, config.geometry);
  const auto run_schedule = [&](bool low_power) {
    engine::StreamOptions options;
    options.low_power = low_power;
    options.row_transition_restore = config.row_transition_restore;
    options.invert_background = config.invert_background;
    options.background = config.background;
    options.trace = config.trace;
    engine::CommandStream stream(test, order, options);
    engine::ExecutionResult exec = backend.run(stream);

    SessionResult result;
    result.algorithm = test.name();
    result.mode = low_power ? sram::Mode::kLowPowerTest
                            : sram::Mode::kFunctional;
    result.cycles = exec.cycles;
    result.supply_energy_j = exec.supply_energy_j;
    result.energy_per_cycle_j = exec.energy_per_cycle_j;
    result.stats = exec.stats;
    result.trace = std::move(exec.trace);
    return result;
  };

  PrrComparison cmp;
  cmp.functional = run_schedule(false);
  cmp.low_power = run_schedule(lp_ok);
  cmp.low_power.fell_back_to_functional = !lp_ok;
  cmp.prr = prr_of(cmp.functional, cmp.low_power);
  return cmp;
}

}  // namespace sramlp::core
