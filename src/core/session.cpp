#include "core/session.h"

#include <string>

#include "engine/analytic_backend.h"
#include "engine/cycle_accurate_backend.h"
#include "util/error.h"

namespace sramlp::core {

namespace {

sram::SramConfig make_array_config(const SessionConfig& config,
                                   sram::Mode mode) {
  sram::SramConfig ac;
  ac.geometry = config.geometry;
  ac.tech = config.tech;
  ac.mode = mode;
  ac.wordline_duty = config.wordline_duty;
  ac.swap_threshold_frac = config.swap_threshold_frac;
  ac.column_model = config.column_model;
  return ac;
}

/// The address order of @p config (word-line-after-word-line unless one is
/// configured), checked against the geometry.  @p mode is the requested
/// mode on entry and the mode the run executes in on return: paper §4
/// sends the low-power mode on any other order back to functional mode, or
/// throws when strict_lp_order is set.
march::AddressOrder resolve_order(const SessionConfig& config,
                                  sram::Mode* mode) {
  march::AddressOrder order =
      config.order ? *config.order
                   : march::AddressOrder::word_line_after_word_line(
                         config.geometry.rows, config.geometry.col_groups());
  SRAMLP_REQUIRE(order.rows() == config.geometry.rows &&
                     order.col_groups() == config.geometry.col_groups(),
                 "address order does not match the array geometry");
  if (*mode == sram::Mode::kLowPowerTest &&
      !order.is_word_line_after_word_line()) {
    SRAMLP_REQUIRE(!config.strict_lp_order,
                   "low-power test mode requires the "
                   "word-line-after-word-line address order (March DOF-1)");
    *mode = sram::Mode::kFunctional;
  }
  return order;
}

/// The stream schedule of one run of @p config.
engine::StreamOptions stream_options(const SessionConfig& config,
                                     sram::Mode mode) {
  engine::StreamOptions options;
  options.low_power = mode == sram::Mode::kLowPowerTest;
  options.row_transition_restore = config.row_transition_restore;
  options.invert_background = config.invert_background;
  options.background = config.background;
  options.trace = config.trace;
  options.waveform_sink = config.waveform_sink;
  return options;
}

SessionResult session_result(const march::MarchTest& test, sram::Mode mode,
                             bool fell_back, engine::ExecutionResult exec) {
  SessionResult result;
  result.algorithm = test.name();
  result.mode = mode;
  result.fell_back_to_functional = fell_back;
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

/// Power Reduction Ratio from a pair of per-cycle energies (Table 1).
double prr_of(const SessionResult& functional, const SessionResult& low_power) {
  const double pf = functional.energy_per_cycle_j;
  return pf > 0.0 ? 1.0 - low_power.energy_per_cycle_j / pf : 0.0;
}

}  // namespace

TestSession::TestSession(const SessionConfig& config)
    : config_(config), array_(make_array_config(config, config.mode)) {
  sram::Mode mode = config.mode;
  order_ = resolve_order(config, &mode);
  if (mode != config.mode) {
    fell_back_ = true;
    array_.set_mode(mode);
  }
}

void TestSession::attach_fault_model(sram::CellFaultModel* model) {
  faults_ = model;
  array_.attach_fault_model(model);
}

engine::CommandStream TestSession::make_stream(
    const march::MarchTest& test) const {
  return engine::CommandStream(test, *order_,
                               stream_options(config_, array_.mode()));
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
  return session_result(test, array_.mode(), fell_back_, backend.run(stream));
}

PrrComparison TestSession::compare_modes(const SessionConfig& config,
                                         const march::MarchTest& test,
                                         sram::CellFaultModel* faults) {
  const auto run_mode = [&](sram::Mode mode) {
    SessionConfig mode_config = config;
    mode_config.mode = mode;
    TestSession session(mode_config);
    session.attach_fault_model(faults);
    return session.run(test);
  };
  PrrComparison cmp;
  cmp.functional = run_mode(sram::Mode::kFunctional);
  cmp.low_power = run_mode(sram::Mode::kLowPowerTest);
  cmp.prr = prr_of(cmp.functional, cmp.low_power);
  return cmp;
}

PrrComparison TestSession::compare_modes_analytic(const SessionConfig& config,
                                                  const march::MarchTest& test) {
  // Session-free fast path: no per-cell array is ever built, the two mode
  // runs share one address order, and the default word-line-after-word-
  // line order is computed rather than materialised.  The closed form reads
  // only the order's size, so a default sweep point costs O(1).
  sram::Mode lp_mode = sram::Mode::kLowPowerTest;
  const march::AddressOrder order = resolve_order(config, &lp_mode);

  engine::AnalyticBackend backend(config.tech, config.geometry);
  const auto run_schedule = [&](sram::Mode mode, bool fell_back) {
    engine::CommandStream stream(test, order, stream_options(config, mode));
    return session_result(test, mode, fell_back, backend.run(stream));
  };

  PrrComparison cmp;
  cmp.functional = run_schedule(sram::Mode::kFunctional, false);
  cmp.low_power =
      run_schedule(lp_mode, lp_mode != sram::Mode::kLowPowerTest);
  cmp.prr = prr_of(cmp.functional, cmp.low_power);
  return cmp;
}

}  // namespace sramlp::core
