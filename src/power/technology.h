// Technology operating point and derived per-event energies.
//
// All event energies the cycle simulator charges to the EnergyMeter derive
// from this one parameter set.  The default preset reproduces the paper's
// experimental setup: 0.13 um, VDD = 1.6 V, 3 ns clock, 512x512 array.
//
// Calibration notes.  The paper reports no per-event energies, only the
// measured outcome (~50 % PRR on a 0.13 um 512x512 array), so these values
// are calibrated to its published behaviour rather than extracted from a
// process; bench_ablation_parameters shows which of them the PRR depends on.
//  * res_fight_current is the steady current a '0'-storing cell sinks from a
//    live pre-charge keeper during a Read Equivalent Stress; the device-level
//    fixture in circuit/subcircuits.h measures the same quantity and an
//    integration test keeps the two consistent.
//  * decay_tau_cycles makes a floating bit-line cross the logic-0 threshold
//    in ~9 clock cycles, matching the paper's Fig. 6.
//  * the peripheral energies put the unselected-column pre-charge activity
//    at ~50 % of functional-mode test power, consistent with the paper's
//    measured ~50 % PRR and the 70-80 % total pre-charge share it cites.
#pragma once

#include <cstddef>

namespace sramlp::power {

/// Process / design-point parameters plus derived per-event energies.
struct TechnologyParams {
  // --- operating point -------------------------------------------------
  double vdd = 1.6;           ///< supply [V]
  double clock_period = 3e-9; ///< cycle time [s]

  // --- array electricals -----------------------------------------------
  double c_bitline = 300e-15;          ///< bit-line capacitance [F]
  double c_cellnode = 2e-15;           ///< cell internal node capacitance [F]
  double c_wordline_per_column = 1e-15;///< word-line load per column [F]
  double read_swing = 0.4;             ///< bit-line swing sensed on read [V]
  double res_fight_current = 26e-6;    ///< RES fight current [A] (sets P_A)
  double decay_tau_cycles = 3.0;       ///< floating-BL decay constant [cycles]
  double discharged_threshold = 0.05;  ///< fraction of VDD treated as logic 0

  // --- peripheral event energies [J] -----------------------------------
  double e_decoder_per_address_bit = 0.4e-12;
  double e_addressbus_per_bit = 0.4e-12;
  double e_clock_tree = 6e-12;
  double e_sense_amp_per_bit = 3e-12;
  double e_write_driver_per_bit = 5e-12;
  double e_data_io_per_bit = 4e-12;
  double e_control_base = 1.5e-12;     ///< memory control FSM, per cycle

  // --- modified pre-charge control logic --------------------------------
  /// Load switched by one control element; ~3 orders below a bit-line.
  double c_control_element = 0.5e-15;

  /// The paper's experimental technology.
  static TechnologyParams tech_0p13um() { return {}; }

  // --- derived event energies -------------------------------------------

  /// Paper P_A x T: supply energy one pre-charge circuit spends feeding a
  /// full RES for one cycle (fight current flows during the WL-high half).
  double e_res_fight_per_cycle() const {
    return vdd * res_fight_current * 0.5 * clock_period;
  }

  /// Dynamic energy of the cell's internal nodes bouncing during one RES.
  /// The disturbed node rises to roughly read_swing/2.
  double e_cell_res_dynamic() const {
    const double dv = 0.5 * read_swing;
    return c_cellnode * dv * dv;
  }

  /// Selected-column bit-line restore after a read (swing only).
  double e_read_restore() const { return c_bitline * vdd * read_swing; }

  /// Selected-column bit-line restore after a write (full rail).
  double e_write_restore() const { return c_bitline * vdd * vdd; }

  /// Recharging one bit-line from @p v_from back to VDD.
  double e_bitline_restore_from(double v_from) const {
    const double dv = vdd - v_from;
    return dv > 0.0 ? c_bitline * vdd * dv : 0.0;
  }

  /// Word-line swing energy for a row of @p columns cells.
  double e_wordline(std::size_t columns) const {
    return c_wordline_per_column * static_cast<double>(columns) * vdd * vdd;
  }

  /// LPtest line: same equivalent capacitance as a word line (paper §5.3).
  double e_lptest_driver(std::size_t columns) const {
    return e_wordline(columns);
  }

  /// One modified pre-charge control element switching once.
  double e_control_element_switch() const {
    return c_control_element * vdd * vdd;
  }

  /// Voltage of a floating bit-line @p cycles after its pre-charge switched
  /// off, starting from @p v0 (discharged through the cell, Fig. 6a).
  double decayed_voltage(double v0, double cycles) const;

  /// Cycles for a floating bit-line to fall from VDD below the logic-0
  /// threshold (paper Fig. 6: "nearly nine clock cycles").
  double cycles_to_discharge() const;

  /// Basic sanity checks; throws sramlp::Error when violated.
  void validate() const;
};

}  // namespace sramlp::power
