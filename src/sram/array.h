// Cycle-accurate SRAM array simulator with per-event energy accounting.
//
// The simulator models the paper's two-phase clock cycle (Fig. 2):
//   * operate phase — word line high; the selected column group's pre-charge
//     is off and the read/write executes; other columns behave per mode;
//   * restore phase — word line low; the selected columns' pre-charge
//     restores their bit-lines to VDD.
//
// Functional mode: every column's pre-charge circuit is always on, so all
// cells sharing the active word line except the selected group suffer a full
// Read Equivalent Stress each cycle (energy P_A per column per cycle drawn
// through the pre-charge keepers).
//
// Low-power test mode (the paper's contribution): only the selected column
// group and the group that immediately follows in scan order are pre-charged.
// Every other bit-line floats and is discharged by the cell it stays
// connected to (exponential decay, Fig. 6a); the energy dissipated that way
// comes from charge already stored on the bit-line, not from the supply.
// The follower group's pre-charge must recharge its decayed bit-lines (the
// cost of which the simulator meters explicitly) and sustains the single
// remaining full RES.  On the last operation before a row change the caller
// raises restore_row_transition, which re-enables every pre-charge circuit
// for that one cycle (Fig. 7) — omitting it reproduces the faulty-swap
// mechanism, which the simulator models faithfully.
//
// Two column-state engines implement the same contract:
//
//   * ColumnModel::kBitslicedCohort (default) — cell data lives in the
//     64-cell-packed CellArray and is read/written/compared a word group at
//     a time; floating columns are grouped into *decay cohorts* keyed by
//     their decay-start cycle, so settling, recharging and stressing a
//     whole cohort costs one closed-form evaluation plus bulk meter
//     accumulation instead of per-column work.  Per-column ColumnState is
//     materialized lazily, only for columns something actually observes:
//     RES-sensitive columns of an attached fault model (which need
//     per-cycle on_res callbacks), columns left with partial bit-line
//     voltage across a non-restored row hand-over or an idle window, and
//     nothing else.  Diagnostics (bitline_low_side_voltage,
//     precharge_was_active) evaluate the cohort closed form on demand
//     without materializing.
//
//   * ColumnModel::kPerColumnReference — the original per-column engine,
//     kept as the executable specification.  The cohort path is required
//     (and regression-tested) to produce bit-identical supply energy,
//     ArrayStats and detections; EnergyMeter::add(source, joules, count)
//     accumulates in bulk with the bits of repeated additions (computed
//     exactly in O(binades) by power::repeat_add) precisely so the cohort
//     path's per-source floating-point sums match the reference path's
//     addition-by-addition.
//
// The bitsliced engine has one cycle executor, fast_run_impl: cycle() is a
// one-address, one-operation run through it.  It is compiled per meter
// accumulation policy — totals only, a bulk-folding sink (PowerTrace), or
// a sink that receives every event (WaveformWriter) — and execute_run
// picks the policy from the attached sink.  A fault-free functional run
// (no per-event sink, no materialized column, no hook or RES-sensitive
// cell on its row) repeats the same constant additions at every address,
// so execute_run advances every address but the last in one step
// (functional_interior: each accumulator chain by power::repeat_add, the
// data path word-parallel over the whole row) and runs only the last
// through fast_run_impl; every meter source, statistic, trace window and
// element slot keeps its bits.
//
// Bit-line voltages are tracked lazily (closed-form exponential decay from
// the last capture point, memoized per integer cycle count), so a cycle
// costs O(word_width) amortised work and full 512x512 March runs complete
// in milliseconds.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "power/meter.h"
#include "power/technology.h"
#include "sram/background.h"
#include "sram/cell_array.h"
#include "sram/command.h"
#include "sram/fault_hooks.h"
#include "sram/geometry.h"

namespace sramlp::sram {

/// Which column-state engine executes the cycles (see file comment).
enum class ColumnModel {
  kBitslicedCohort,    ///< word-packed data + decay-cohort accounting (fast)
  kPerColumnReference, ///< original per-column engine (executable spec)
};

/// Static configuration of one simulated array.
struct SramConfig {
  Geometry geometry;
  power::TechnologyParams tech = power::TechnologyParams::tech_0p13um();
  Mode mode = Mode::kFunctional;
  /// Fraction of the cycle the word line stays high (decay advances only
  /// while cells are connected to their bit-lines).
  double wordline_duty = 0.5;
  /// A floating bit-line below this fraction of VDD overpowers an opposing
  /// cell at row entry (bit-line capacitance >> cell node capacitance).
  double swap_threshold_frac = 0.5;
  /// Column-state engine; the reference model exists for parity tests.
  ColumnModel column_model = ColumnModel::kBitslicedCohort;
};

/// Counters accumulated over a run.
struct ArrayStats {
  std::uint64_t cycles = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_mismatches = 0;
  std::uint64_t faulty_swaps = 0;
  std::uint64_t row_transitions = 0;
  std::uint64_t restore_cycles = 0;
  /// Column-cycles of full RES (pre-charge fighting a connected cell).
  std::uint64_t full_res_column_cycles = 0;
  /// Integrated decaying stress in "full-RES column-cycle" equivalents,
  /// split by decay phase (the paper's α analysis covers the post-op tail).
  double decay_stress_equiv_post_op = 0.0;
  double decay_stress_equiv_pre_op = 0.0;

  /// Average stressed cells per cycle counting the post-operation tail plus
  /// the follower column — the paper's α (expected inside (2, 10)).
  double alpha_post_op() const;
  /// Same including the pre-operation decay the paper's analysis omits.
  double alpha_total() const;
};

/// The simulated memory.
class SramArray {
 public:
  explicit SramArray(const SramConfig& config);

  const SramConfig& config() const { return config_; }
  const Geometry& geometry() const { return config_.geometry; }
  Mode mode() const { return config_.mode; }
  ColumnModel column_model() const { return config_.column_model; }

  /// Switch operating mode between runs; resets bit-line state to
  /// pre-charged (a functional settling period is assumed) but keeps data.
  void set_mode(Mode mode);

  /// Execute one clock cycle. In low-power test mode the caller must issue
  /// addresses word-line-after-word-line (the TestSession enforces this).
  /// The cycle runs as a one-address, one-operation execute_run.
  CycleResult cycle(const CycleCommand& command);

  /// Execute a whole-row batch of cycles (see RunCommand): group_count
  /// addresses in scan order, op_count operations each.  Supply energy,
  /// statistics, cell contents and detections are bit-identical to
  /// issuing the equivalent CycleCommands through cycle(); the bitsliced
  /// engine executes the batch with meter accumulators held in registers
  /// (unless the attached sink needs every event) and per-cycle glue
  /// amortised over the row.
  RunResult execute_run(const RunCommand& run);

  /// Idle for @p cycles clock cycles (March "Del" elements): no access,
  /// word lines low.  Only the clock tree and the control FSM burn energy;
  /// floating bit-lines hold their charge (no discharge path with the
  /// access transistors off).  Retention faults receive on_idle().
  void idle(std::uint64_t cycles);

  /// Attach (or clear) the behavioural fault model. Non-owning.
  void attach_fault_model(CellFaultModel* model);

  // --- direct data access (no energy, no hooks, no clocking) -------------
  bool peek(std::size_t row, std::size_t col) const {
    return cells_.get(row, col);
  }
  void poke(std::size_t row, std::size_t col, bool value) {
    cells_.set(row, col, value);
  }
  /// Fault-model backdoor used by coupling faults to strike victims.
  void force(CellCoord cell, bool value) {
    cells_.set(cell.row, cell.col, value);
  }
  CellArray& cells() { return cells_; }
  const CellArray& cells() const { return cells_; }

  const power::EnergyMeter& meter() const { return meter_; }
  power::EnergyMeter& meter() { return meter_; }
  const ArrayStats& stats() const { return stats_; }

  /// Average supply energy per cycle so far [J].
  double energy_per_cycle() const { return meter_.supply_per_cycle(); }

  /// Reset meters and statistics.  Measurement-only: the electrical state
  /// is untouched — bit-line voltages, decay cohorts and lazily
  /// materialized per-column state all survive unchanged, so a reset in
  /// the middle of a run never perturbs subsequent decay, swap or
  /// detection behaviour (regression-tested).
  void reset_measurements();

  /// Current voltage of a column's cell-driven bit-line [V] (diagnostics;
  /// evaluates the lazy decay — or the column's cohort closed form — at
  /// the present cycle, without materializing per-column state).
  double bitline_low_side_voltage(std::size_t col) const;

  /// True if the column's pre-charge circuit is on this cycle (diagnostic
  /// snapshot of the last executed cycle; Fig. 4 activity map).
  bool precharge_was_active(std::size_t col) const;

 private:
  /// Per-column bit-line pair, captured at cycle `since`.
  struct ColumnState {
    double v_bl = 0.0;
    double v_blb = 0.0;
    std::uint64_t since = 0;
    bool connected = false;      ///< decaying (WL high, pre-charge off)
    bool pre_op_phase = false;   ///< decay began at row entry (not post-op)
  };

  // --- shared helpers ----------------------------------------------------
  double decayed(double v, std::uint64_t from_cycle) const;
  /// Memoized exp(-(elapsed * duty) / tau); same bits as computing it raw.
  double decay_factor(std::uint64_t elapsed) const {
    if (elapsed < decay_memo_.size()) return decay_memo_[elapsed];
    return decay_factor_slow(elapsed);
  }
  double decay_factor_slow(std::uint64_t elapsed) const;
  /// Current (v_bl, v_blb) of a column, without mutating state.
  void evaluate(const ColumnState& s, std::size_t col, double* v_bl,
                double* v_blb) const;
  /// Fold elapsed decay into the capture point and meter the stress.
  void settle(std::size_t col);
  /// Settle, meter the recharge to VDD into @p source, mark pre-charged.
  void recharge(std::size_t col, power::EnergySource source);
  /// Mark a column as decaying from VDD starting now.
  void begin_decay(std::size_t col, bool pre_op);
  /// Full RES on one column for one cycle (fight energy + hooks).
  void apply_full_res(std::size_t row, std::size_t col);
  void charge_peripheral(const CycleCommand& command);
  /// The reference engine's read/write data-path of one selected cell
  /// (meters + fault hooks); fast_run_impl's hooked path mirrors it.
  void op_bit(const CycleCommand& command, std::size_t col,
              CycleResult* result);

  // --- per-column reference engine ---------------------------------------
  CycleResult reference_cycle(const CycleCommand& command);
  void reference_idle(std::uint64_t cycles);
  std::uint32_t enter_row(std::size_t row);
  CycleResult execute_op(const CycleCommand& command);
  /// execute_run on the reference engine: one reference_cycle per address
  /// and operation.
  RunResult reference_run(const RunCommand& run);

  // --- bitsliced / decay-cohort engine ------------------------------------
  /// A set of columns whose bit-lines all float from VDD since the same
  /// cycle; one closed-form evaluation covers every member.
  struct Cohort {
    std::uint64_t start = 0;  ///< decay-start cycle (may be one ahead)
    bool pre_op = false;      ///< decay began at row entry
  };
  /// Everything the bulk paths need to know about a cohort "now".
  struct CohortEval {
    double v_low = 0.0;      ///< decayed low-side voltage
    double stress_j = 0.0;   ///< settle: bit-line charge spent, per column
    double equiv = 0.0;      ///< settle: full-RES column-cycle equivalents
    double dv = 0.0;         ///< voltage deficit folded by a settle
    double recharge_e = 0.0; ///< supply energy to restore one pair to VDD
  };
  /// Loop-invariant constants of the cohort closed form: each is the exact
  /// left-to-right subtree eval_factor's expressions compute from the
  /// configuration, hoisted once.
  struct CohortEvalConstants {
    double vdd = 0.0;
    double half_c = 0.0;         ///< 0.5 * c_bitline
    double c_vdd = 0.0;          ///< c_bitline * vdd
    double tau_over_duty = 0.0;  ///< decay_tau_cycles / wordline_duty
  };

  void fast_idle(std::uint64_t cycles);
  std::uint32_t fast_enter_row(std::size_t row);
  /// The Fig. 7 all-column restore cycle's column work (recharge + RES +
  /// the everything-pre-charged tail) for runs outside virtual mode.
  void fast_restore_cycle(std::size_t row, std::size_t first_col);
  /// Where the batch executor's metered events go.  execute_run picks the
  /// policy from the attached sink, never from configuration.
  enum class Accumulation {
    kTotals,    ///< no sink: meter totals held in registers
    kBulkSink,  ///< bulk-fold sink (PowerTrace): totals + window/element
                ///< blocks held in registers
    kEvents,    ///< any other sink: every event through EnergyMeter::add
  };
  /// The bitsliced engine's one cycle executor: every run, including the
  /// one-address, one-operation runs cycle() issues.
  template <Accumulation kPolicy>
  RunResult fast_run_impl(const RunCommand& run);
  /// Every address but the last of a fault-free functional run (no
  /// materialized column, no hook or RES-sensitive cell on the row, no
  /// per-event sink) in one step: the data path decided op-major over the
  /// addresses' columns, each source's total, element and trace-window
  /// chain advanced by power::repeat_add, the counters multiplied.  False,
  /// with nothing changed, when the run does not qualify or a read would
  /// mismatch.
  bool functional_interior(const RunCommand& run);
  CohortEval eval_cohort(const Cohort& cohort) const;
  /// eval_cohort keyed by elapsed decay cycles, served from the grow-only
  /// memo below (evaluated directly past the memo cap).
  CohortEval eval_elapsed(std::uint64_t elapsed) const;
  void grow_eval_table(std::uint64_t elapsed) const;
  /// The cohort closed form for one decay factor f = exp(-t/tau):
  ///   v_low = vdd * f,  dv = vdd - v_low,
  ///   stress_j = half_c * (vdd * vdd - v_low * v_low),
  ///   equiv = tau_over_duty * dv / vdd,  recharge_e = c_vdd * dv.
  CohortEval eval_factor(double factor) const;
  /// Meter the settle of @p count cohort members (stress + α bookkeeping).
  void cohort_settle_bulk(const CohortEval& eval, bool pre_op,
                          std::uint64_t count);
  /// Settle + recharge-to-VDD of @p count cohort members into @p source.
  void cohort_recharge_bulk(const CohortEval& eval, const Cohort& cohort,
                            std::uint64_t count, power::EnergySource source);
  /// Full RES on @p count columns at once (no sensitive columns inside:
  /// those are always materialized and take the per-column path).
  void full_res_bulk(std::uint64_t count);
  /// Promote a cohort-tracked or pre-charged column to explicit
  /// ColumnState (exact: cohorts capture at VDD, decay stays lazy).
  void materialize_column(std::size_t col);
  /// Walk [begin, end) as maximal runs of columns sharing a state tag.
  template <typename Fn>
  void for_each_run(std::size_t begin, std::size_t end, Fn&& fn) const {
    std::size_t col = begin;
    while (col < end) {
      const std::uint32_t tag = cohort_of_[col];
      std::size_t run_end = col + 1;
      while (run_end < end && cohort_of_[run_end] == tag) ++run_end;
      fn(col, run_end - col, tag);
      col = run_end;
    }
  }
  void compact_cohorts();
  /// Set a column's state tag.  Every write that can enter or leave
  /// kColMaterialized goes through here, so materialized_count_ stays
  /// exact and a run learns in O(1) whether any column is materialized.
  void set_col_tag(std::size_t col, std::uint32_t tag) {
    materialized_count_ += tag == kColMaterialized;
    materialized_count_ -= cohort_of_[col] == kColMaterialized;
    cohort_of_[col] = tag;
  }

  SramConfig config_;
  CellArray cells_;
  power::EnergyMeter meter_;
  ArrayStats stats_;
  CellFaultModel* faults_ = nullptr;
  /// Sensitive cells grouped by row (from the fault model).
  std::vector<std::vector<std::size_t>> sensitive_by_row_;

  /// Hot-loop constants derived from the technology + geometry once; every
  /// value is the identical product/call the engines previously computed
  /// per cycle (pure functions of config), cached for speed.
  struct PerCycleEnergies {
    double wordline = 0.0;
    double decoder = 0.0;
    double address_bus = 0.0;
    double clock_tree = 0.0;
    double control_base = 0.0;
    double res_fight = 0.0;
    double cell_res = 0.0;
    double others_res_fight = 0.0;  ///< (cols - w) columns of RES fight
    double others_cell_res = 0.0;
    double control_element_group = 0.0;  ///< w control elements switching
    double lptest_driver = 0.0;
    double sense_amp = 0.0;
    double data_io = 0.0;
    double read_restore = 0.0;
    double write_driver = 0.0;
    double write_restore = 0.0;
  };
  PerCycleEnergies e_;

  std::vector<ColumnState> columns_;
  std::vector<bool> precharge_active_;  ///< reference engine only
  std::uint64_t cycle_ = 0;
  std::optional<std::size_t> active_row_;
  std::optional<std::size_t> last_col_group_;
  bool restored_last_cycle_ = false;

  // --- bitsliced-engine state --------------------------------------------
  static constexpr std::uint32_t kColPrecharged = 0xFFFFFFFFu;
  static constexpr std::uint32_t kColMaterialized = 0xFFFFFFFEu;
  bool fast_ = true;                      ///< config_.column_model cached
  std::vector<std::uint32_t> cohort_of_;  ///< per-column state tag
  std::size_t materialized_count_ = 0;    ///< tags equal to kColMaterialized
  std::vector<Cohort> cohorts_;
  std::vector<bool> always_materialized_; ///< RES-sensitive columns
  /// Rows where the fault model's data-path hooks can act (from
  /// CellFaultModel::relevant_rows); other rows run word-parallel.
  std::vector<bool> hooked_rows_;
  bool all_rows_hooked_ = false;
  /// Last cycle's pre-charge activity, reconstructed on demand instead of
  /// refilling an O(cols) snapshot every cycle.
  struct PrechargeSnapshot {
    bool valid = false;
    bool all_on = false;
    std::size_t first_col = 0;
    std::size_t width = 0;
    bool has_follower = false;
    std::size_t follower_first = 0;
  };
  PrechargeSnapshot snap_;
  /// Both memos below cover elapsed cycles [0, kDecayMemoCap).
  static constexpr std::size_t kDecayMemoCap = 4096;
  mutable std::vector<double> decay_memo_;  ///< exp factor per elapsed cycle
  /// Grow-only memo of eval_cohort by elapsed cycle: cohort evaluations
  /// depend only on (elapsed, fixed config), so one table serves every
  /// cohort of every run.  Filled from the decay-factor memo into storage
  /// reserved up front: only the touched pages count toward RSS, and no
  /// reallocation keeps an old and a new copy alive together.
  mutable std::vector<CohortEval> eval_table_;
  /// Hoisted constants of the cohort closed form.
  CohortEvalConstants eval_k_;
  /// Runs shorter than this many cycles stay in the loop: the one-step
  /// path's fixed cost per run (building the chains, stepping each one)
  /// outweighs the cycles it saves (a 16x16 March C- session took 2.5x
  /// the loop's time through it, 32x32 about the same).
  static constexpr std::size_t kMinInteriorCycles = 64;
  /// functional_interior's per-source address chains, in reused storage.
  std::vector<power::AddTerm> chain_terms_;
  std::vector<std::size_t> chain_ops_;
  /// One trace window's share of a run interior: which operations the
  /// run applies, the operation index and length of the stretch, and the
  /// window's slots before and after its additions.
  struct WindowStretch {
    std::vector<bool> kinds;  ///< is_read per operation
    std::size_t phase = 0;
    std::uint64_t span = 0;
    std::array<double, power::kEnergySourceCount> before{};
    std::array<double, power::kEnergySourceCount> after{};
  };
  /// The last few stretches functional_interior computed, replayed when a
  /// later row repeats one exactly.
  static constexpr std::size_t kWindowMemoEntries = 8;
  std::vector<WindowStretch> window_memo_;
  std::size_t memo_next_ = 0;
};

}  // namespace sramlp::sram
