// Switch-level MOSFET model.
//
// The paper validates its technique with 0.13 µm Spice simulations.  For the
// charge-bookkeeping questions this library answers (how fast does a floating
// bit-line discharge through a cell, how hard does a cell fight a pre-charge
// keeper, what is the propagation delay of a transmission gate), a long-
// channel square-law model integrated explicitly is sufficient and keeps the
// simulator dependency-free.  It stands in for the paper's Spice decks: the
// questions above depend on charge and current ratios (C_BL >> C_cellnode,
// keeper vs cell drive), which the square law preserves, not on short-
// channel detail, which no result here reads.
#pragma once

#include <algorithm>

namespace sramlp::circuit {

/// Device polarity.
enum class MosType { kNmos, kPmos };

/// Square-law device parameters.
struct MosParams {
  double vth = 0.35;  ///< threshold voltage [V] (magnitude, both polarities)
  double k = 100e-6;  ///< transconductance k' * W/L [A/V^2]
};

/// Drain current of an NMOS-style square-law device given terminal voltages,
/// with source/drain symmetry (current flows from the higher to the lower
/// terminal).  Returns the current flowing from @p vd_terminal into
/// @p vs_terminal (positive when vd_terminal is higher).
inline double nmos_current(double vg, double vd_terminal, double vs_terminal,
                           const MosParams& p) {
  // Exploit symmetry: treat the lower terminal as the source.
  const bool swapped = vd_terminal < vs_terminal;
  const double vd = swapped ? vs_terminal : vd_terminal;
  const double vs = swapped ? vd_terminal : vs_terminal;
  const double vgs = vg - vs;
  const double vov = vgs - p.vth;
  if (vov <= 0.0) return 0.0;  // cut-off (sub-threshold leakage ignored)
  const double vds = vd - vs;
  double i = 0.0;
  if (vds < vov) {
    i = p.k * (vov * vds - 0.5 * vds * vds);  // triode
  } else {
    i = 0.5 * p.k * vov * vov;  // saturation
  }
  return swapped ? -i : i;
}

/// PMOS dual of nmos_current: current flowing from @p vs_terminal into
/// @p vd_terminal (positive when vs_terminal is higher and the gate is low).
inline double pmos_current(double vg, double vd_terminal, double vs_terminal,
                           const MosParams& p) {
  // A PMOS with terminals (g, d, s) behaves like an NMOS in the mirrored
  // voltage space v -> -v.
  return -nmos_current(-vg, -vd_terminal, -vs_terminal, p);
}

}  // namespace sramlp::circuit
