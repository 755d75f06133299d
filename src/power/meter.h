// Per-source energy accounting for the cycle simulator — the PROBE half of
// the probe/sink metering layer.
//
// The meter is the single point every simulated energy event passes
// through: the SramArray engines call add()/add_spread() and the meter (a)
// accumulates the scalar per-source totals and (b) forwards the event —
// (source, joules, count, cycle) — to an optionally attached MeterSink.
// power::PowerTrace (power/trace.h) is the shipped sink: it folds the
// event stream into fixed time windows and per-March-element accumulators
// for peak-power analysis.  Attaching a sink never changes the scalar
// totals: the accumulation arithmetic is identical with and without one
// (regression-tested in test_bitsliced_parity.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "power/energy_source.h"
#include "power/repeat_add.h"
#include "util/error.h"

namespace sramlp::power {

/// One line of a breakdown report.
struct BreakdownEntry {
  EnergySource source;
  double energy_j;
  double share;  ///< fraction of supply energy (0 for non-supply sinks)
};

/// Subscriber to an EnergyMeter's event stream (the sink half of the
/// probe/sink layer).  Implementations must not touch the meter they are
/// attached to (no re-entrancy).
class MeterSink {
 public:
  virtual ~MeterSink() = default;

  /// @p count events of @p joules each, all at clock cycle @p cycle (the
  /// meter's cycle counter at accumulation time).
  virtual void on_add(EnergySource source, double joules, std::uint64_t count,
                      std::uint64_t cycle) = 0;

  /// A block accumulation of @p joules total spread uniformly over the
  /// @p cycles cycles starting at @p first_cycle (idle windows).
  virtual void on_spread(EnergySource source, double joules,
                         std::uint64_t first_cycle,
                         std::uint64_t cycles) = 0;

  // --- bulk-fold contract (the traced batch fast path) ----------------------
  //
  // A sink whose accumulators are per (source, window) and per
  // (source, element) blocks of repeated additions may opt into bulk
  // folding: the simulator's batch executor then keeps working copies of
  // the current window/element blocks in registers — exactly like it holds
  // the meter's raw totals — performs on each copy the additions on_add
  // would have performed, and writes the blocks back at window boundaries
  // and spill points (a fault-free functional run advances the blocks
  // directly, each chain by power::repeat_add).  Because each
  // (source, window/element) accumulator receives the identical addition
  // sequence, the folded result is bit-identical to the per-event stream.  Sinks that need the events
  // themselves (waveform writers) simply keep the default: the executor
  // then sends every event through add().

  /// Opt in to bulk folding.  Returning true promises the three methods
  /// below are implemented and that skipping per-event on_add delivery in
  /// favour of direct slot accumulation is observationally equivalent.
  virtual bool bulk_fold_supported() const { return false; }

  /// Window width in cycles (>= 1); window index = cycle / width.
  virtual std::uint64_t bulk_window_cycles() const { return 1; }

  /// Writable per-source accumulator block (kEnergySourceCount doubles,
  /// indexed by EnergySource) of window @p window.  Requesting a window
  /// finalizes all earlier ones, so requests must be monotone; the pointer
  /// is invalidated by any other call into the sink.
  virtual double* bulk_window_slots(std::uint64_t window) {
    (void)window;
    return nullptr;
  }

  /// Writable per-source accumulator block of the current element.
  /// Invalidated by any other call into the sink.
  virtual double* bulk_element_slots() { return nullptr; }
};

/// Accumulates energy per source and counts clock cycles.
///
/// "Supply energy" is what the paper's PF / PLPT measure: everything drawn
/// from VDD.  Bit-line decay stress is tracked too (for the α analysis and
/// Fig. 6b) but spends charge that the supply already paid for at pre-charge
/// time, so it is excluded from supply totals.
///
/// Copy/move semantics: the measurements (totals, cycle count) are copied;
/// the attached sink is NOT.  A sink subscribes to one live meter — result
/// snapshots (SessionResult::meter) must not carry a pointer to a trace
/// whose run has ended.
class EnergyMeter {
 public:
  EnergyMeter() = default;
  EnergyMeter(const EnergyMeter& other)
      : totals_(other.totals_), cycles_(other.cycles_) {}
  EnergyMeter(EnergyMeter&& other) noexcept
      : totals_(other.totals_), cycles_(other.cycles_) {}
  EnergyMeter& operator=(const EnergyMeter& other) {
    totals_ = other.totals_;
    cycles_ = other.cycles_;
    return *this;
  }
  EnergyMeter& operator=(EnergyMeter&& other) noexcept {
    totals_ = other.totals_;
    cycles_ = other.cycles_;
    return *this;
  }

  /// Attribute @p joules to @p source. Negative amounts are rejected.
  void add(EnergySource source, double joules) {
    SRAMLP_REQUIRE(source != EnergySource::kCount, "not a real source");
    SRAMLP_REQUIRE(joules >= 0.0, "energy contributions must be non-negative");
    totals_[static_cast<std::size_t>(source)] += joules;
    if (sink_ != nullptr) sink_->on_add(source, joules, 1, cycles_);
  }

  /// Attribute @p joules to @p source, @p count times.
  ///
  /// The total equals @p count successive additions — NOT a single
  /// `joules * count` product.  IEEE-754 addition is not distributive: 0.1
  /// added ten times is 0.9999999999999999, 10 * 0.1 is 1.0.  The
  /// bitsliced SramArray engine meters whole decay cohorts with one bulk
  /// add where the per-column reference engine performs one add per
  /// column; the repeated-addition identity is what keeps the two engines'
  /// totals bit-identical (the parity contract of
  /// test_bitsliced_parity.cpp, pinned directly by
  /// test_power.cpp:BulkAddBitIdenticalToScalarAdds).  power::repeat_add
  /// computes those additions' exact result in O(binades crossed) rather
  /// than O(count).
  void add(EnergySource source, double joules, std::uint64_t count) {
    SRAMLP_REQUIRE(source != EnergySource::kCount, "not a real source");
    SRAMLP_REQUIRE(joules >= 0.0, "energy contributions must be non-negative");
    double& total = totals_[static_cast<std::size_t>(source)];
    total = repeat_add(total, joules, count);
    if (sink_ != nullptr) sink_->on_add(source, joules, count, cycles_);
  }

  /// Attribute `cycles * joules_per_cycle` to @p source as one addition,
  /// telling an attached sink the energy covers the @p cycles cycles
  /// starting NOW (idle blocks: the scalar total is one multiply-add — the
  /// exact arithmetic the idle paths always used — while the trace spreads
  /// it across the windows the block spans).
  void add_spread(EnergySource source, double joules_per_cycle,
                  std::uint64_t cycles) {
    SRAMLP_REQUIRE(source != EnergySource::kCount, "not a real source");
    SRAMLP_REQUIRE(joules_per_cycle >= 0.0,
                   "energy contributions must be non-negative");
    const double joules = static_cast<double>(cycles) * joules_per_cycle;
    totals_[static_cast<std::size_t>(source)] += joules;
    if (sink_ != nullptr) sink_->on_spread(source, joules, cycles_, cycles);
  }

  /// Subscribe @p sink to subsequent events (nullptr detaches).  Wiring,
  /// not measurement: reset() keeps the sink, copies drop it.
  void attach_sink(MeterSink* sink) { sink_ = sink; }
  bool has_sink() const { return sink_ != nullptr; }
  MeterSink* sink() { return sink_; }

  /// Advance the cycle counter (call once per simulated clock cycle).
  void tick_cycle() { ++cycles_; }

  /// Advance the cycle counter by @p count cycles (idle blocks).
  void tick_cycles(std::uint64_t count) { cycles_ += count; }

  std::uint64_t cycles() const { return cycles_; }

  /// Total energy attributed to one source.
  double total(EnergySource source) const {
    return totals_[static_cast<std::size_t>(source)];
  }

  /// Mutable view of the per-source accumulators, for the simulator's
  /// block executor: it copies them into registers for the duration of a
  /// run and writes them back, performing exactly the additions add()
  /// would have — same values, same order, same totals to the bit.
  /// Available with no sink, or with a bulk-fold-capable sink (whose
  /// window/element blocks the executor folds the same way — see
  /// MeterSink::bulk_fold_supported).  A sink that needs the event stream
  /// itself keeps this unavailable: raw accumulation would bypass it
  /// (SramArray meters such runs event by event through add() instead).
  std::array<double, kEnergySourceCount>& raw_totals() {
    SRAMLP_REQUIRE(sink_ == nullptr || sink_->bulk_fold_supported(),
                   "raw accumulator access would bypass the attached "
                   "trace sink; meter through add() instead");
    return totals_;
  }

  /// Total energy drawn from the supply (all supply_drawn sources).
  double supply_total() const;

  /// Supply energy attributed to pre-charge-related sources only.
  double precharge_total() const;

  /// Average supply energy per clock cycle; 0 when no cycle elapsed.
  double supply_per_cycle() const;

  /// Per-source report, largest supply share first; zero-energy sources
  /// are omitted.
  std::vector<BreakdownEntry> breakdown() const;

  /// Reset all totals and the cycle count (the attached sink stays).
  void reset();

 private:
  std::array<double, kEnergySourceCount> totals_{};
  std::uint64_t cycles_ = 0;
  MeterSink* sink_ = nullptr;
};

}  // namespace sramlp::power
