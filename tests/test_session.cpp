// Tests of core::TestSession: cycle counts, restore scheduling, the LP
// addressing constraint (paper §4), data-background independence, mode
// result-equivalence (the paper's central correctness claim), and PRR.
#include <gtest/gtest.h>

#include "core/session.h"
#include "faults/models.h"
#include "march/algorithms.h"
#include "power/analytic.h"
#include "util/error.h"
#include "util/stats.h"

namespace {

using namespace sramlp;
using core::SessionConfig;
using core::SessionResult;
using core::TestSession;
using sram::Mode;

SessionConfig small_config(Mode mode, std::size_t rows = 8,
                           std::size_t cols = 8) {
  SessionConfig cfg;
  cfg.geometry = {rows, cols, 1};
  cfg.mode = mode;
  return cfg;
}

TEST(TestSession, CycleCountIsOpsTimesAddresses) {
  TestSession s(small_config(Mode::kFunctional));
  const auto result = s.run(march::algorithms::march_c_minus());
  EXPECT_EQ(result.cycles, 10u * 64u);  // 10 ops x 64 addresses
  EXPECT_EQ(result.mismatches, 0u);     // fault-free
  EXPECT_FALSE(result.detected());
}

TEST(TestSession, FaultFreeRunsPassForWholeLibrary) {
  for (const auto& test : march::algorithms::all()) {
    for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
      TestSession s(small_config(mode));
      const auto r = s.run(test);
      EXPECT_EQ(r.mismatches, 0u) << test.name() << " mode "
                                  << static_cast<int>(mode);
      EXPECT_EQ(r.stats.faulty_swaps, 0u) << test.name();
    }
  }
}

// Restore cycles: one per row hand-over inside each element plus the
// hand-overs between elements whose first row differs.
TEST(TestSession, RestoreCyclesMatchRowTransitions) {
  TestSession s(small_config(Mode::kLowPowerTest, 4, 8));
  const auto r = s.run(march::algorithms::march_c_minus());
  // Every row transition must have been preceded by a restore cycle:
  // transitions == restores (the test ends without a trailing restore).
  EXPECT_EQ(r.stats.restore_cycles, r.stats.row_transitions);
  EXPECT_GT(r.stats.restore_cycles, 0u);
  EXPECT_EQ(r.stats.faulty_swaps, 0u);
}

TEST(TestSession, FunctionalModeNeverIssuesRestores) {
  TestSession s(small_config(Mode::kFunctional, 4, 8));
  const auto r = s.run(march::algorithms::march_c_minus());
  EXPECT_EQ(r.stats.restore_cycles, 0u);
}

// Paper §4: LP mode with a non-word-line-after-word-line order must either
// fall back to functional mode or (strict) be rejected.
TEST(TestSession, LpWithWrongOrderFallsBack) {
  SessionConfig cfg = small_config(Mode::kLowPowerTest);
  cfg.order = march::AddressOrder::pseudo_random(8, 8, 3);
  TestSession s(cfg);
  const auto r = s.run(march::algorithms::mats_plus());
  EXPECT_TRUE(r.fell_back_to_functional);
  EXPECT_EQ(r.mode, Mode::kFunctional);
  EXPECT_EQ(r.mismatches, 0u);
}

TEST(TestSession, StrictLpWithWrongOrderThrows) {
  SessionConfig cfg = small_config(Mode::kLowPowerTest);
  cfg.order = march::AddressOrder::fast_row(8, 8);
  cfg.strict_lp_order = true;
  EXPECT_THROW(TestSession{cfg}, Error);
}

TEST(TestSession, FunctionalModeAcceptsAnyOrder) {
  SessionConfig cfg = small_config(Mode::kFunctional);
  cfg.order = march::AddressOrder::gray_code(8, 8);
  TestSession s(cfg);
  const auto r = s.run(march::algorithms::march_x());
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_FALSE(r.fell_back_to_functional);
}

TEST(TestSession, OrderGeometryMismatchRejected) {
  SessionConfig cfg = small_config(Mode::kFunctional, 8, 8);
  cfg.order = march::AddressOrder::word_line_after_word_line(4, 4);
  EXPECT_THROW(TestSession{cfg}, Error);
}

// The paper's data-background independence: the complemented test runs
// cleanly and consumes the same energy.
TEST(TestSession, InvertedBackgroundSameEnergyNoMismatch) {
  SessionConfig cfg = small_config(Mode::kLowPowerTest);
  TestSession normal(cfg);
  const auto a = normal.run(march::algorithms::march_c_minus());
  cfg.invert_background = true;
  TestSession inverted(cfg);
  const auto b = inverted.run(march::algorithms::march_c_minus());
  EXPECT_EQ(b.mismatches, 0u);
  EXPECT_NEAR(a.supply_energy_j, b.supply_energy_j,
              1e-6 * a.supply_energy_j);
}

// Central correctness claim: mode does not change what the test observes
// or leaves behind.
TEST(TestSession, ModesLeaveIdenticalArrayContents) {
  for (const auto& test : march::algorithms::table1()) {
    TestSession f(small_config(Mode::kFunctional));
    TestSession l(small_config(Mode::kLowPowerTest));
    f.run(test);
    l.run(test);
    for (std::size_t r = 0; r < 8; ++r)
      for (std::size_t c = 0; c < 8; ++c)
        EXPECT_EQ(f.array().peek(r, c), l.array().peek(r, c))
            << test.name() << " cell (" << r << "," << c << ")";
  }
}

TEST(TestSession, LpModeUsesLessEnergy) {
  const auto cmp = TestSession::compare_modes(
      small_config(Mode::kFunctional, 8, 64),
      march::algorithms::march_c_minus());
  EXPECT_GT(cmp.prr, 0.0);
  EXPECT_LT(cmp.prr, 1.0);
  EXPECT_LT(cmp.low_power.supply_energy_j, cmp.functional.supply_energy_j);
  EXPECT_EQ(cmp.functional.cycles, cmp.low_power.cycles);
  EXPECT_EQ(cmp.functional.mode, Mode::kFunctional);
  EXPECT_EQ(cmp.low_power.mode, Mode::kLowPowerTest);
}

// The cycle simulator and the §5 closed-form model must agree on both PF
// and PLPT (they share every constant; the sim adds only partial-decay
// effects near row boundaries).
TEST(TestSession, SimulatorMatchesAnalyticModel) {
  const std::size_t rows = 16;
  const std::size_t cols = 128;
  const auto test = march::algorithms::march_c_minus();
  const auto cmp = TestSession::compare_modes(
      small_config(Mode::kFunctional, rows, cols), test);
  const power::AnalyticModel model(cmp.functional.meter.cycles() != 0
                                       ? power::TechnologyParams::tech_0p13um()
                                       : power::TechnologyParams::tech_0p13um(),
                                   rows, cols);
  const auto counts = test.counts();
  EXPECT_NEAR(cmp.functional.energy_per_cycle_j, model.pf(counts),
              1e-3 * model.pf(counts));
  EXPECT_NEAR(cmp.low_power.energy_per_cycle_j, model.plpt(counts),
              3e-2 * model.plpt(counts));
}

TEST(TestSession, DetectionLocationsRecorded) {
  SessionConfig cfg = small_config(Mode::kFunctional);
  TestSession s(cfg);
  s.array().poke(2, 3, true);  // pre-set garbage the init element will fix
  faults::FaultSet set(
      {faults::FaultSpec{.kind = faults::FaultKind::kStuckAt1,
                         .victim = {2, 3}}});
  s.attach_fault_model(&set);
  const auto r = s.run(march::algorithms::march_c_minus());
  EXPECT_TRUE(r.detected());
  ASSERT_FALSE(r.first_detections.empty());
  EXPECT_EQ(r.first_detections[0].row, 2u);
  EXPECT_EQ(r.first_detections[0].col_group, 3u);
  EXPECT_LE(r.first_detections.size(), core::kMaxFirstDetections);
}

// Word-oriented runs (paper §6 future work) behave like bit-oriented ones.
// The row must be wide enough for the saving to beat the follower-recharge
// overhead (the technique targets wide arrays).
TEST(TestSession, WordOrientedModesAgree) {
  SessionConfig cfg;
  cfg.geometry = {8, 128, 4};
  cfg.mode = Mode::kFunctional;
  const auto cmp = TestSession::compare_modes(
      cfg, march::algorithms::march_c_minus());
  EXPECT_EQ(cmp.functional.mismatches, 0u);
  EXPECT_EQ(cmp.low_power.mismatches, 0u);
  EXPECT_GT(cmp.prr, 0.0);
}

TEST(TestSession, WordOrientedPrrBelowBitOriented) {
  SessionConfig bit;
  bit.geometry = {8, 128, 1};
  SessionConfig word;
  word.geometry = {8, 128, 8};
  const auto t = march::algorithms::mats_plus();
  const double prr_bit = TestSession::compare_modes(bit, t).prr;
  const double prr_word = TestSession::compare_modes(word, t).prr;
  EXPECT_GT(prr_bit, prr_word);
}

// On a narrow array the low-power mode can even cost energy (the follower
// recharge dominates); the saving must grow into clear wins as the row
// widens — the crossover the geometry-sweep bench quantifies.
TEST(TestSession, SavingGrowsWithRowWidth) {
  const auto t = march::algorithms::march_c_minus();
  double last = -1.0;
  for (std::size_t cols : {16u, 64u, 256u}) {
    SessionConfig cfg;
    cfg.geometry = {8, cols, 1};
    const double prr = TestSession::compare_modes(cfg, t).prr;
    EXPECT_GT(prr, last) << cols;
    last = prr;
  }
  EXPECT_GT(last, 0.25);  // 256 columns already saves substantially
}

}  // namespace
