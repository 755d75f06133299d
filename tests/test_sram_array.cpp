// Behavioural tests of the cycle-accurate SRAM array: data correctness,
// per-mode energy accounting, lazy bit-line decay, the faulty-swap hazard
// and the row-transition restore, RES bookkeeping and the alpha metric.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/paper_reference.h"
#include "power/analytic.h"
#include "sram/array.h"
#include "util/error.h"
#include "util/stats.h"

namespace {

using namespace sramlp;
using power::EnergySource;
using sram::CycleCommand;
using sram::Mode;
using sram::Scan;
using sram::SramArray;
using sram::SramConfig;

SramConfig small_config(Mode mode, std::size_t rows = 8,
                        std::size_t cols = 8) {
  SramConfig cfg;
  cfg.geometry = {rows, cols, 1};
  cfg.mode = mode;
  return cfg;
}

CycleCommand write_cmd(std::size_t row, std::size_t col, bool value) {
  CycleCommand c;
  c.row = row;
  c.col_group = col;
  c.is_read = false;
  c.value = value;
  return c;
}

CycleCommand read_cmd(std::size_t row, std::size_t col, bool expected) {
  CycleCommand c;
  c.row = row;
  c.col_group = col;
  c.is_read = true;
  c.value = expected;
  return c;
}

// --- cell array ------------------------------------------------------------

TEST(CellArray, SetGetAndFill) {
  sram::CellArray cells({4, 4, 1});
  EXPECT_FALSE(cells.get(2, 3));
  cells.set(2, 3, true);
  EXPECT_TRUE(cells.get(2, 3));
  EXPECT_EQ(cells.popcount(), 1u);
  cells.fill(true);
  EXPECT_TRUE(cells.uniform(true));
  EXPECT_EQ(cells.popcount(), 16u);
  cells.fill(false);
  EXPECT_TRUE(cells.uniform(false));
}

TEST(CellArray, PopcountExactForNonMultipleOf64) {
  sram::CellArray cells({3, 7, 1});  // 21 cells
  cells.fill(true);
  EXPECT_EQ(cells.popcount(), 21u);
}

TEST(CellArray, BoundsChecked) {
  sram::CellArray cells({4, 4, 1});
  EXPECT_THROW(cells.get(4, 0), Error);
  EXPECT_THROW(cells.set(0, 4, true), Error);
}

/// splitmix64: a deterministic cell stream for the slice tests.
bool next_bit(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return ((z ^ (z >> 31)) & 1u) != 0;
}

void fill_random(sram::CellArray& cells, std::uint64_t seed) {
  for (std::size_t r = 0; r < cells.geometry().rows; ++r)
    for (std::size_t c = 0; c < cells.geometry().cols; ++c)
      cells.set(r, c, next_bit(seed));
}

std::size_t count_ones(const sram::CellArray& cells) {
  std::size_t ones = 0;
  for (std::size_t r = 0; r < cells.geometry().rows; ++r)
    for (std::size_t c = 0; c < cells.geometry().cols; ++c)
      ones += cells.get(r, c) ? 1 : 0;
  return ones;
}

// The word-parallel slice primitives against per-cell references.  Each
// slice covers 0, 1, 2, 9 or 17 full storage words, starts word-aligned
// (bit offset 0) or with a 27-cell head (bit offset 37), and ends in a
// 5-cell tail; one mismatch lands in the last full word.
TEST(CellArray, SliceKernelsMatchPerCellReference) {
  const std::uint64_t pattern = 0x0123456789abcdefull;  // aperiodic in 64
  for (const std::size_t full : {0u, 1u, 2u, 9u, 17u}) {
    for (const std::size_t off : {0u, 37u}) {
      const std::string where =
          std::to_string(full) + " full words at offset " +
          std::to_string(off);
      const std::size_t cols = 64 * (full + 2);  // rows start word-aligned
      const std::size_t head = off == 0 ? 0 : 64 - off;
      const std::size_t count = head + 64 * full + 5;
      // A cell inside the slice's last full word.
      const std::size_t last_full_col = off + head + 64 * full - 51;

      sram::CellArray cells({2, cols, 1});
      fill_random(cells, full * 100 + off);
      cells.fill_row_pattern(1, off, count, pattern);
      for (std::size_t s = 0; s < count; ++s)
        ASSERT_EQ(cells.get(1, off + s), ((pattern >> (s & 63)) & 1u) != 0)
            << where << " cell " << s;
      EXPECT_TRUE(cells.row_matches_pattern(1, off, count, pattern)) << where;
      // Cells outside the slice never count.
      cells.set(1, off + count, !cells.get(1, off + count));
      if (off != 0) cells.set(1, off - 1, !cells.get(1, off - 1));
      EXPECT_TRUE(cells.row_matches_pattern(1, off, count, pattern)) << where;
      if (full != 0) {
        cells.set(1, last_full_col, !cells.get(1, last_full_col));
        EXPECT_FALSE(cells.row_matches_pattern(1, off, count, pattern))
            << where;
      }

      // copy_row_range: flip count and contents against a per-cell copy.
      fill_random(cells, full * 100 + off + 1);
      sram::CellArray expect = cells;
      std::uint32_t flips = 0;
      for (std::size_t c = off; c < off + count; ++c) {
        flips += cells.get(0, c) != cells.get(1, c) ? 1 : 0;
        expect.set(1, c, cells.get(0, c));
      }
      EXPECT_EQ(cells.copy_row_range(1, 0, off, count), flips) << where;
      for (std::size_t c = 0; c < cols; ++c)
        ASSERT_EQ(cells.get(1, c), expect.get(1, c)) << where << " col " << c;
      if (full != 0)
        cells.set(1, last_full_col, !cells.get(1, last_full_col));
      EXPECT_EQ(cells.copy_row_range(1, 0, off, count), full != 0 ? 1u : 0u)
          << where;
      EXPECT_EQ(cells.popcount(), count_ones(cells)) << where;

      // popcount() over exactly `full` words plus an `off`-cell partial one.
      sram::CellArray row({1, std::max<std::size_t>(2, 64 * full + off), 1});
      fill_random(row, full * 100 + off + 2);
      EXPECT_EQ(row.popcount(), count_ones(row)) << where;
    }
  }
}

// --- functional data path ----------------------------------------------------

TEST(SramArray, WriteThenReadBackEveryCell) {
  SramArray a(small_config(Mode::kFunctional));
  // Checkerboard write.
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      a.cycle(write_cmd(r, c, (r + c) % 2 == 0));
  std::uint64_t mismatches = 0;
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c) {
      const auto res = a.cycle(read_cmd(r, c, (r + c) % 2 == 0));
      if (res.mismatch) ++mismatches;
      EXPECT_EQ(res.read_value, (r + c) % 2 == 0);
    }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(a.stats().reads, 64u);
  EXPECT_EQ(a.stats().writes, 64u);
}

TEST(SramArray, MismatchCountedWhenExpectationWrong) {
  SramArray a(small_config(Mode::kFunctional));
  a.cycle(write_cmd(0, 0, true));
  const auto res = a.cycle(read_cmd(0, 0, false));  // expects 0, cell has 1
  EXPECT_TRUE(res.mismatch);
  EXPECT_TRUE(res.read_value);
  EXPECT_EQ(a.stats().read_mismatches, 1u);
}

TEST(SramArray, PeekPokeBypassClocking) {
  SramArray a(small_config(Mode::kFunctional));
  a.poke(3, 3, true);
  EXPECT_TRUE(a.peek(3, 3));
  EXPECT_EQ(a.meter().cycles(), 0u);
}

// --- functional-mode energy ---------------------------------------------------

// Every functional read cycle must cost exactly the analytic model's Pr,
// and every write cycle Pw (the simulator and model share the constants).
TEST(SramArray, FunctionalCycleEnergyMatchesAnalyticModel) {
  const std::size_t rows = 16;
  const std::size_t cols = 16;
  SramArray a(small_config(Mode::kFunctional, rows, cols));
  const power::AnalyticModel model(a.config().tech, rows, cols);

  a.cycle(write_cmd(0, 0, true));
  const double e_write = a.meter().supply_total();
  EXPECT_NEAR(e_write, model.pw(), 1e-18);

  a.reset_measurements();
  a.cycle(read_cmd(0, 0, true));
  const double e_read = a.meter().supply_total();
  EXPECT_NEAR(e_read, model.pr(), 1e-18);
  EXPECT_GT(e_write, e_read);  // paper: writes cost more than reads
}

// Functional-mode energy must not depend on the address pattern.
TEST(SramArray, FunctionalEnergyIsAddressIndependent) {
  const auto run_pattern = [](const std::vector<std::size_t>& cols) {
    SramArray a(small_config(Mode::kFunctional));
    for (std::size_t c : cols) a.cycle(write_cmd(c % 8, c, true));
    return a.meter().supply_total();
  };
  const double seq = run_pattern({0, 1, 2, 3, 4, 5, 6, 7});
  const double rnd = run_pattern({5, 2, 7, 0, 3, 6, 1, 4});
  EXPECT_NEAR(seq, rnd, 1e-20);
}

TEST(SramArray, FunctionalPrechargeAllActive) {
  SramArray a(small_config(Mode::kFunctional));
  a.cycle(read_cmd(0, 0, false));
  for (std::size_t c = 0; c < 8; ++c)
    EXPECT_TRUE(a.precharge_was_active(c));
}

// --- low-power mode: pre-charge activity (Fig. 4) ----------------------------

TEST(SramArray, LpModeOnlySelectedAndFollowerPrecharged) {
  SramArray a(small_config(Mode::kLowPowerTest));
  a.cycle(read_cmd(0, 3, false));
  std::size_t active = 0;
  for (std::size_t c = 0; c < 8; ++c)
    if (a.precharge_was_active(c)) ++active;
  EXPECT_EQ(active, 2u);
  EXPECT_TRUE(a.precharge_was_active(3));
  EXPECT_TRUE(a.precharge_was_active(4));  // follower in ascending scan
}

TEST(SramArray, LpModeDescendingFollowerIsPreviousColumn) {
  SramArray a(small_config(Mode::kLowPowerTest));
  CycleCommand c = read_cmd(0, 3, false);
  c.scan = Scan::kDescending;
  a.cycle(c);
  EXPECT_TRUE(a.precharge_was_active(3));
  EXPECT_TRUE(a.precharge_was_active(2));
  EXPECT_FALSE(a.precharge_was_active(4));
}

TEST(SramArray, LpModeLastColumnHasNoFollower) {
  SramArray a(small_config(Mode::kLowPowerTest));
  a.cycle(read_cmd(0, 7, false));
  std::size_t active = 0;
  for (std::size_t c = 0; c < 8; ++c)
    if (a.precharge_was_active(c)) ++active;
  EXPECT_EQ(active, 1u);  // the paper: the last CS is not wrapped around
}

TEST(SramArray, RestoreCycleActivatesAllPrecharges) {
  SramArray a(small_config(Mode::kLowPowerTest));
  CycleCommand c = read_cmd(0, 7, false);
  c.restore_row_transition = true;
  a.cycle(c);
  for (std::size_t col = 0; col < 8; ++col)
    EXPECT_TRUE(a.precharge_was_active(col));
  EXPECT_EQ(a.stats().restore_cycles, 1u);
  EXPECT_GT(a.meter().total(EnergySource::kLpTestDriver), 0.0);
}

// --- bit-line decay -----------------------------------------------------------

// A deselected column's cell-driven bit-line follows the exponential decay
// of the technology model (paper Fig. 6a at array level).
TEST(SramArray, DeselectedColumnBitlineDecays) {
  auto cfg = small_config(Mode::kLowPowerTest, 4, 16);
  SramArray a(cfg);
  a.cycle(write_cmd(0, 0, true));  // operate on column 0, then move away
  const double vdd = cfg.tech.vdd;
  double previous = vdd;
  for (std::size_t c = 1; c < 8; ++c) {
    a.cycle(write_cmd(0, c, true));
    const double v = a.bitline_low_side_voltage(0);
    EXPECT_LE(v, previous + 1e-12);
    previous = v;
  }
  // After 7 cycles at duty 0.5 / tau 3: v = vdd * exp(-7*0.5/3).
  const double expected =
      vdd * std::exp(-7.0 * a.config().wordline_duty /
                     cfg.tech.decay_tau_cycles);
  EXPECT_NEAR(a.bitline_low_side_voltage(0), expected, 0.02 * vdd);
}

TEST(SramArray, FunctionalBitlinesStayPrecharged) {
  SramArray a(small_config(Mode::kFunctional));
  for (std::size_t c = 0; c < 8; ++c) a.cycle(write_cmd(0, c, true));
  for (std::size_t c = 0; c < 8; ++c)
    EXPECT_NEAR(a.bitline_low_side_voltage(c), a.config().tech.vdd, 1e-9);
}

// --- faulty swap hazard (Fig. 6c / Fig. 7) ------------------------------------

// Without the restore, entering the next row lets discharged bit-lines
// overwrite opposite-valued cells.  The array restores only when a command
// raises restore_row_transition, and none here does.
TEST(SramArray, RowEntryWithoutRestoreSwapsOpposingCells) {
  const std::size_t cols = 16;
  SramArray a(small_config(Mode::kLowPowerTest, 2, cols));
  // Row 1 holds the complement of what row 0's cells will drive.
  for (std::size_t c = 0; c < cols; ++c) a.poke(1, c, false);
  // Walk row 0 writing '1' everywhere (drives BL low on deselect), then
  // hop to row 1 without a restore cycle (no command requests one).
  for (std::size_t c = 0; c < cols; ++c) a.cycle(write_cmd(0, c, true));
  const auto res = a.cycle(read_cmd(1, 0, false));
  // All sufficiently-discharged columns of row 1 flipped to '1'; the
  // recently-visited columns near the row's end are still too high to
  // overpower their cells (the paper's "few of them not completely
  // discharged").
  EXPECT_GT(res.faulty_swaps, 0u);
  EXPECT_GT(a.stats().faulty_swaps, 4u);
  EXPECT_LT(a.stats().faulty_swaps, cols);
  for (std::size_t c = 1; c < 6; ++c)
    EXPECT_TRUE(a.peek(1, c)) << "column " << c << " should have swapped";
  EXPECT_FALSE(a.peek(1, cols - 1)) << "last column decayed only briefly";
}

TEST(SramArray, RowEntryAfterRestoreCausesNoSwaps) {
  auto cfg = small_config(Mode::kLowPowerTest, 2, 8);
  SramArray a(cfg);
  for (std::size_t c = 0; c < 8; ++c) a.poke(1, c, false);
  for (std::size_t c = 0; c < 8; ++c) {
    CycleCommand cmd = write_cmd(0, c, true);
    cmd.restore_row_transition = (c == 7);  // last op on the row
    a.cycle(cmd);
  }
  a.cycle(read_cmd(1, 0, false));
  EXPECT_EQ(a.stats().faulty_swaps, 0u);
  for (std::size_t c = 0; c < 8; ++c) EXPECT_FALSE(a.peek(1, c));
}

// Cells matching the bit-line-implied value are reinforced, not corrupted.
// No command requests the restore, so row 1 is entered over discharged
// bit-lines.
TEST(SramArray, MatchingCellsAreNotSwapped) {
  SramArray a(small_config(Mode::kLowPowerTest, 2, 8));
  for (std::size_t c = 0; c < 8; ++c) a.poke(1, c, true);  // same value
  for (std::size_t c = 0; c < 8; ++c) a.cycle(write_cmd(0, c, true));
  a.cycle(read_cmd(1, 0, true));
  EXPECT_EQ(a.stats().faulty_swaps, 0u);
}

// Functional mode never swaps: every bit-line is held at VDD.
TEST(SramArray, FunctionalModeNeverSwaps) {
  SramArray a(small_config(Mode::kFunctional, 2, 8));
  for (std::size_t c = 0; c < 8; ++c) a.poke(1, c, false);
  for (std::size_t c = 0; c < 8; ++c) a.cycle(write_cmd(0, c, true));
  a.cycle(read_cmd(1, 0, false));
  EXPECT_EQ(a.stats().faulty_swaps, 0u);
}

// --- LP-mode energy vs the analytic model --------------------------------------

TEST(SramArray, LpSavesEnergyPerCycle) {
  const std::size_t rows = 4;
  const std::size_t cols = 64;
  const auto run = [&](Mode mode) {
    SramArray a(small_config(mode, rows, cols));
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) {
        CycleCommand cmd = write_cmd(r, c, true);
        cmd.restore_row_transition = mode == Mode::kLowPowerTest &&
                                     c == cols - 1 && r != rows - 1;
        a.cycle(cmd);
      }
    return a.energy_per_cycle();
  };
  const double pf = run(Mode::kFunctional);
  const double plpt = run(Mode::kLowPowerTest);
  EXPECT_LT(plpt, pf);
}

// --- RES bookkeeping and alpha ---------------------------------------------------

TEST(SramArray, FunctionalResCountsAllUnselectedColumns) {
  SramArray a(small_config(Mode::kFunctional, 4, 16));
  a.cycle(read_cmd(0, 0, false));
  EXPECT_EQ(a.stats().full_res_column_cycles, 15u);
  a.cycle(read_cmd(0, 1, false));
  EXPECT_EQ(a.stats().full_res_column_cycles, 30u);
}

TEST(SramArray, LpResCountsOnlyFollower) {
  SramArray a(small_config(Mode::kLowPowerTest, 4, 16));
  a.cycle(read_cmd(0, 0, false));
  EXPECT_EQ(a.stats().full_res_column_cycles, 1u);
}

// Paper §5 source 4: alpha, the average number of stressed cells per cycle
// in LP mode (follower + decaying tail), lies in (2, 10).
TEST(SramArray, AlphaWithinPaperBounds) {
  const std::size_t rows = 8;
  const std::size_t cols = 64;
  SramArray a(small_config(Mode::kLowPowerTest, rows, cols));
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      CycleCommand cmd = write_cmd(r, c, true);
      cmd.restore_row_transition = c == cols - 1 && r != rows - 1;
      a.cycle(cmd);
    }
  const double alpha = a.stats().alpha_post_op();
  EXPECT_GT(alpha, core::paper_claims::kAlphaLow);
  EXPECT_LT(alpha, core::paper_claims::kAlphaHigh);
  // The total including pre-operation decay is larger but same order.
  EXPECT_GE(a.stats().alpha_total(), alpha);
  EXPECT_LT(a.stats().alpha_total(), 20.0);
}

// Decay stress spends bit-line charge, not supply energy.
TEST(SramArray, DecayStressExcludedFromSupply) {
  SramArray a(small_config(Mode::kLowPowerTest, 2, 16));
  for (std::size_t c = 0; c < 16; ++c) a.cycle(write_cmd(0, c, true));
  const double stress =
      a.meter().total(EnergySource::kBitlineDecayStress);
  EXPECT_GT(stress, 0.0);
  double sum = 0.0;
  for (const auto& e : a.meter().breakdown())
    if (power::info(e.source).supply_drawn) sum += e.energy_j;
  EXPECT_NEAR(sum, a.meter().supply_total(), 1e-20);
}

// --- word-oriented extension -----------------------------------------------------

TEST(SramArray, WordOrientedWritesWholeWord) {
  SramConfig cfg;
  cfg.geometry = {4, 16, 4};  // 4 bits per word, 4 groups
  cfg.mode = Mode::kFunctional;
  SramArray a(cfg);
  a.cycle(write_cmd(1, 2, true));  // group 2 = columns 8..11
  for (std::size_t c = 8; c < 12; ++c) EXPECT_TRUE(a.peek(1, c));
  EXPECT_FALSE(a.peek(1, 7));
  EXPECT_FALSE(a.peek(1, 12));
}

TEST(SramArray, WordOrientedLpPrechargesTwoGroups) {
  SramConfig cfg;
  cfg.geometry = {4, 16, 4};
  cfg.mode = Mode::kLowPowerTest;
  SramArray a(cfg);
  a.cycle(read_cmd(0, 1, false));
  std::size_t active = 0;
  for (std::size_t c = 0; c < 16; ++c)
    if (a.precharge_was_active(c)) ++active;
  EXPECT_EQ(active, 8u);  // selected group + follower group
}

// --- configuration validation ------------------------------------------------------

TEST(SramArray, RejectsBadConfig) {
  SramConfig cfg = small_config(Mode::kFunctional);
  cfg.wordline_duty = 0.0;
  EXPECT_THROW(SramArray{cfg}, Error);
  cfg = small_config(Mode::kFunctional);
  cfg.swap_threshold_frac = 1.0;
  EXPECT_THROW(SramArray{cfg}, Error);
  cfg = small_config(Mode::kFunctional);
  cfg.geometry = {4, 4, 3};  // cols not divisible by word width
  EXPECT_THROW(SramArray{cfg}, Error);
}

TEST(SramArray, RejectsOutOfRangeAccess) {
  SramArray a(small_config(Mode::kFunctional));
  EXPECT_THROW(a.cycle(read_cmd(8, 0, false)), Error);
  EXPECT_THROW(a.cycle(read_cmd(0, 8, false)), Error);
}

TEST(SramArray, ModeSwitchResetsBitlines) {
  SramArray a(small_config(Mode::kLowPowerTest, 2, 8));
  for (std::size_t c = 0; c < 8; ++c) a.cycle(write_cmd(0, c, true));
  EXPECT_LT(a.bitline_low_side_voltage(0), a.config().tech.vdd);
  a.set_mode(Mode::kFunctional);
  EXPECT_NEAR(a.bitline_low_side_voltage(0), a.config().tech.vdd, 1e-12);
}

}  // namespace
