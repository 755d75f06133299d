// TestSession — the paper's low-power March testing flow, assembled.
//
// A session owns one simulated SRAM and runs March tests on it in either
// operating mode.  It implements the policy responsibilities the paper
// assigns to the test controller:
//
//  * fixing the address sequence to word-line-after-word-line when the
//    low-power test mode is selected (March DOF-1 makes this legal); any
//    other order triggers the paper's §4 fallback to functional mode
//    (or an error, when strict_lp_order is set);
//  * building the engine::CommandStream that resolves the per-cycle
//    decisions (Fig. 7 restore scheduling, scan direction, background);
//  * routing the stream through an engine::ExecutionBackend — the
//    cycle-accurate array by default, or any caller-supplied backend
//    (e.g. the closed-form analytic one for fault-free sweeps).
//
// compare_modes() packages the paper's headline measurement: the same
// algorithm run in both modes on identical arrays, reduced to the Power
// Reduction Ratio PRR = 1 - PLPT / PF.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/backend.h"
#include "engine/command_stream.h"
#include "march/address_order.h"
#include "march/test.h"
#include "power/meter.h"
#include "power/trace.h"
#include "sram/array.h"

namespace sramlp::core {

/// Session configuration (one array, one mode).
struct SessionConfig {
  sram::Geometry geometry;
  power::TechnologyParams tech = power::TechnologyParams::tech_0p13um();
  sram::Mode mode = sram::Mode::kFunctional;
  /// Address sequence; defaults to word-line-after-word-line.
  std::optional<march::AddressOrder> order;
  /// Apply the one-cycle functional restore at row transitions (Fig. 7).
  bool row_transition_restore = true;
  /// Throw instead of falling back to functional mode when the low-power
  /// mode is requested with an incompatible address order.
  bool strict_lp_order = false;
  /// Run the complemented test (every operation's data bit flipped).
  bool invert_background = false;
  /// Data background pattern: March data bits are logical relative to it
  /// (physical cell value = bit XOR background(row, col)).
  sram::DataBackground background;
  double wordline_duty = 0.5;
  double swap_threshold_frac = 0.5;
  /// Column-state engine of the simulated array.  The default bitsliced
  /// cohort engine is bit-identical to the per-column reference
  /// (regression-tested); the reference exists for parity verification.
  sram::ColumnModel column_model = sram::ColumnModel::kBitslicedCohort;
  /// Opt-in time-resolved power accounting: when set, every run carries a
  /// power::TraceSummary (peak-window power, per-March-element breakdown)
  /// in SessionResult::trace.  Energy totals are bit-identical to an
  /// untraced run; the cycle-accurate array folds the trace's windows in
  /// its batched runs.  A low-power run costs ~1.1-1.5x its untraced
  /// twin; a fault-free functional run advances each window's chains
  /// with power::repeat_add (a stretch an earlier row already added from
  /// the same slots is replayed), ~2x an untraced run that itself costs
  /// O(rows x elements).
  std::optional<power::TraceConfig> trace;
  /// Opt-in per-cycle waveform export (borrowed, may be nullptr): a
  /// power::WaveformWriter (or any raw-event MeterSink) subscribed to
  /// every cycle-accurate run of this session — including both runs of a
  /// compare_modes pair.  Needs the raw event stream, so the array meters
  /// every event through EnergyMeter::add; totals stay bit-identical.
  power::MeterSink* waveform_sink = nullptr;
};

/// Location of a detected mismatch (the engine records the first
/// engine::kMaxFirstDetections of them).
using Detection = engine::Detection;

/// Cap on SessionResult::first_detections, re-exported from the engine.
inline constexpr std::size_t kMaxFirstDetections = engine::kMaxFirstDetections;

/// Everything measured over one March run.
struct SessionResult {
  std::string algorithm;
  sram::Mode mode = sram::Mode::kFunctional;
  bool fell_back_to_functional = false;
  std::uint64_t cycles = 0;
  double supply_energy_j = 0.0;
  double energy_per_cycle_j = 0.0;
  power::EnergyMeter meter;   ///< full per-source accounting
  sram::ArrayStats stats;
  std::uint64_t mismatches = 0;
  bool detected() const { return mismatches > 0; }
  std::vector<Detection> first_detections;  ///< capped at kMaxFirstDetections
  /// Time-resolved accounting; present iff SessionConfig::trace was set.
  std::optional<power::TraceSummary> trace;
};

/// Functional vs low-power runs of the same algorithm plus the PRR.
struct PrrComparison {
  SessionResult functional;
  SessionResult low_power;
  /// Power Reduction Ratio: 1 - PLPT / PF (the paper's Table 1 metric).
  double prr = 0.0;
};

class TestSession {
 public:
  explicit TestSession(const SessionConfig& config);

  const SessionConfig& config() const { return config_; }
  /// The resolved address order every run of this session walks.
  const march::AddressOrder& order() const { return *order_; }
  sram::SramArray& array() { return array_; }
  const sram::SramArray& array() const { return array_; }

  /// Attach a fault model for subsequent runs (non-owning; nullptr clears).
  void attach_fault_model(sram::CellFaultModel* model);

  /// Build the command stream for @p test under this session's resolved
  /// schedule (mode after fallback, restore policy, background).  The
  /// session must outlive the stream (it owns the address order).
  engine::CommandStream make_stream(const march::MarchTest& test) const;

  /// Run one March test on the cycle-accurate backend (the session's own
  /// array); meters are reset at the start of the run.
  SessionResult run(const march::MarchTest& test);

  /// Run one March test through @p backend.  Backends that ignore fault
  /// models are rejected while one is attached.
  SessionResult run(const march::MarchTest& test,
                    engine::ExecutionBackend& backend);

  /// Run @p test in functional and low-power mode on two identical arrays
  /// built from @p config (mode field ignored) and compute the PRR.
  /// @p faults, when given, is attached to both runs in sequence.
  static PrrComparison compare_modes(const SessionConfig& config,
                                     const march::MarchTest& test,
                                     sram::CellFaultModel* faults = nullptr);

  /// compare_modes through the closed-form analytic backend: no per-cell
  /// simulation, fault-free only — for geometry/algorithm sweeps.
  static PrrComparison compare_modes_analytic(const SessionConfig& config,
                                              const march::MarchTest& test);

 private:
  SessionConfig config_;
  std::optional<march::AddressOrder> order_;
  sram::SramArray array_;
  sram::CellFaultModel* faults_ = nullptr;
  bool fell_back_ = false;
};

}  // namespace sramlp::core
