// The paper's published numbers, used by benches and regression tests to
// print expected-vs-measured comparisons.  `bench_table1_prr` prints the
// Table 1 comparison; the repository benchmark (perfbench/) reports the
// worst Table 1 PRR error as its `prr_error_pts` metric.
#pragma once

#include <array>

namespace sramlp::core {

/// One row of the paper's Table 1 (DATE 2006, Dilillo et al.).
struct Table1Row {
  const char* algorithm;
  int elements;
  int operations;
  int reads;
  int writes;
  double prr;  ///< published Power Reduction Ratio
};

/// Table 1 — "PRR for different March algorithms", 512x512, 0.13 um,
/// 3 ns cycle, 1.6 V.
inline constexpr std::array<Table1Row, 5> kTable1{{
    {"March C-", 6, 10, 5, 5, 0.473},
    {"March SS", 6, 22, 13, 9, 0.500},
    {"MATS+", 3, 5, 2, 3, 0.481},
    {"March SR", 6, 14, 8, 6, 0.495},
    {"March G", 7, 23, 10, 13, 0.505},
}};

/// Other quantitative claims reproduced by the benches.
namespace paper_claims {

/// Fig. 6a: a floating bit-line discharges to logic 0 in "nearly nine
/// clock cycles".
inline constexpr double kDischargeCycles = 9.0;

/// §5 source 4: the average number of cells undergoing (possibly reduced)
/// RES in low-power test mode lies in (2, 10).
inline constexpr double kAlphaLow = 2.0;
inline constexpr double kAlphaHigh = 10.0;

/// §5 source 4: cell dissipation during a RES is ~3 orders of magnitude
/// below the pre-charge circuit's share.
inline constexpr double kCellToPrechargeRatio = 1e-3;

/// §5 source 2 examples: a row transition every 512 cycles for one-op
/// elements and every 2048 cycles for four-op elements (512 columns).
inline constexpr double kRowTransitionPeriod1op = 512.0;
inline constexpr double kRowTransitionPeriod4op = 2048.0;

/// §4: ten transistors of added control logic per column.
inline constexpr int kControlTransistors = 10;

/// §5 conclusion: overall test power reduction of roughly 50 %.
inline constexpr double kHeadlinePrr = 0.50;

/// Ref [8] as cited: pre-charge activity is 70-80 % of SRAM power; used as
/// an upper bound on the pre-charge share in our functional-mode runs.
inline constexpr double kPrechargeShareUpper = 0.80;

}  // namespace paper_claims

}  // namespace sramlp::core
