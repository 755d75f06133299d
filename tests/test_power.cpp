// Unit tests for the power module: energy-source taxonomy, meter, exact
// repeated addition, technology parameters, and the paper's §5 analytic
// model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/paper_reference.h"
#include "power/analytic.h"
#include "power/energy_source.h"
#include "power/meter.h"
#include "power/repeat_add.h"
#include "power/technology.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

using namespace sramlp;
using power::EnergySource;

// --- energy source taxonomy ----------------------------------------------

TEST(EnergySource, EveryEntryHasInfo) {
  for (std::size_t i = 0; i < power::kEnergySourceCount; ++i) {
    const auto s = static_cast<EnergySource>(i);
    EXPECT_NE(power::to_string(s), nullptr);
    EXPECT_GT(std::string(power::to_string(s)).size(), 0u);
  }
}

TEST(EnergySource, DecayStressIsNotSupplyDrawn) {
  EXPECT_FALSE(power::info(EnergySource::kBitlineDecayStress).supply_drawn);
  EXPECT_TRUE(power::info(EnergySource::kPrechargeResFight).supply_drawn);
}

TEST(EnergySource, PrechargeRelatedSetMatchesPaperTargets) {
  // The activity the paper reduces: RES fight, restores, follower recharge.
  for (EnergySource s :
       {EnergySource::kPrechargeResFight, EnergySource::kPrechargeRestoreRead,
        EnergySource::kPrechargeRestoreWrite,
        EnergySource::kPrechargeNextColumn,
        EnergySource::kRowTransitionRestore})
    EXPECT_TRUE(power::info(s).precharge_related) << power::to_string(s);
  for (EnergySource s :
       {EnergySource::kWordline, EnergySource::kDecoder,
        EnergySource::kSenseAmp, EnergySource::kLpTestDriver})
    EXPECT_FALSE(power::info(s).precharge_related) << power::to_string(s);
}

// --- meter ----------------------------------------------------------------

TEST(EnergyMeter, AccumulatesPerSource) {
  power::EnergyMeter m;
  m.add(EnergySource::kSenseAmp, 1e-12);
  m.add(EnergySource::kSenseAmp, 2e-12);
  m.add(EnergySource::kDecoder, 5e-12);
  EXPECT_DOUBLE_EQ(m.total(EnergySource::kSenseAmp), 3e-12);
  EXPECT_DOUBLE_EQ(m.total(EnergySource::kDecoder), 5e-12);
  EXPECT_DOUBLE_EQ(m.supply_total(), 8e-12);
}

TEST(EnergyMeter, SupplyExcludesStoredChargeStress) {
  power::EnergyMeter m;
  m.add(EnergySource::kBitlineDecayStress, 7e-12);
  m.add(EnergySource::kWordline, 1e-12);
  EXPECT_DOUBLE_EQ(m.supply_total(), 1e-12);
  EXPECT_DOUBLE_EQ(m.total(EnergySource::kBitlineDecayStress), 7e-12);
}

TEST(EnergyMeter, PrechargeTotalSelectsRelatedSources) {
  power::EnergyMeter m;
  m.add(EnergySource::kPrechargeResFight, 3e-12);
  m.add(EnergySource::kClockTree, 10e-12);
  EXPECT_DOUBLE_EQ(m.precharge_total(), 3e-12);
}

TEST(EnergyMeter, PerCycleAveraging) {
  power::EnergyMeter m;
  m.add(EnergySource::kClockTree, 6e-12);
  EXPECT_EQ(m.supply_per_cycle(), 0.0);  // no cycles yet
  m.tick_cycle();
  m.tick_cycle();
  EXPECT_DOUBLE_EQ(m.supply_per_cycle(), 3e-12);
  EXPECT_EQ(m.cycles(), 2u);
}

TEST(EnergyMeter, BreakdownSortedAndShared) {
  power::EnergyMeter m;
  m.add(EnergySource::kClockTree, 1e-12);
  m.add(EnergySource::kPrechargeResFight, 3e-12);
  const auto b = m.breakdown();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0].source, EnergySource::kPrechargeResFight);
  EXPECT_DOUBLE_EQ(b[0].share, 0.75);
  EXPECT_DOUBLE_EQ(b[1].share, 0.25);
}

TEST(EnergyMeter, RejectsNegativeEnergy) {
  power::EnergyMeter m;
  EXPECT_THROW(m.add(EnergySource::kDecoder, -1.0), Error);
  EXPECT_THROW(m.add(EnergySource::kCount, 1.0), Error);
}

// The cohort-bulk metering of the bitsliced array path depends on this
// identity holding EXACTLY (same floating-point bits), not approximately:
// add(source, e, n) must equal n scalar add(source, e) calls.
TEST(EnergyMeter, BulkAddBitIdenticalToScalarAdds) {
  // 0.1 is a repeating fraction in binary: ten repeated additions land on
  // 0.9999999999999999, while 10 * 0.1 rounds to exactly 1.0 — so this
  // test distinguishes a faithful bulk add from a multiply-based one.
  for (const std::uint64_t n : {0ull, 1ull, 3ull, 10ull, 64ull, 65537ull}) {
    power::EnergyMeter scalar;
    for (std::uint64_t i = 0; i < n; ++i)
      scalar.add(EnergySource::kSenseAmp, 0.1);
    power::EnergyMeter bulk;
    bulk.add(EnergySource::kSenseAmp, 0.1, n);
    EXPECT_EQ(scalar.total(EnergySource::kSenseAmp),
              bulk.total(EnergySource::kSenseAmp))
        << "n=" << n;
  }
  power::EnergyMeter bulk10;
  bulk10.add(EnergySource::kSenseAmp, 0.1, 10);
  EXPECT_NE(bulk10.total(EnergySource::kSenseAmp), 10.0 * 0.1);
}

TEST(EnergyMeter, BulkAddChecksArgumentsLikeScalarAdd) {
  power::EnergyMeter m;
  EXPECT_THROW(m.add(EnergySource::kDecoder, -1.0, 4), Error);
  EXPECT_THROW(m.add(EnergySource::kCount, 1.0, 4), Error);
  m.add(EnergySource::kDecoder, 1.0, 0);  // zero count adds nothing
  EXPECT_EQ(m.total(EnergySource::kDecoder), 0.0);
}

TEST(EnergyMeter, TickCyclesMatchesRepeatedTicks) {
  power::EnergyMeter a, b;
  for (int i = 0; i < 7; ++i) a.tick_cycle();
  b.tick_cycles(7);
  EXPECT_EQ(a.cycles(), b.cycles());
}

TEST(EnergyMeter, ResetClearsEverything) {
  power::EnergyMeter m;
  m.add(EnergySource::kDecoder, 1e-12);
  m.tick_cycle();
  m.reset();
  EXPECT_EQ(m.supply_total(), 0.0);
  EXPECT_EQ(m.cycles(), 0u);
}

// --- exact repeated addition -------------------------------------------------

using power::AddTerm;

double add_sequentially(double acc, const std::vector<AddTerm>& pattern,
                        std::uint64_t periods) {
  for (std::uint64_t k = 0; k < periods; ++k)
    for (const AddTerm& term : pattern)
      for (std::uint64_t i = 0; i < term.count; ++i) acc += term.value;
  return acc;
}

std::string describe(double acc, const std::vector<AddTerm>& pattern,
                     std::uint64_t periods) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "acc=%a periods=%llu", acc,
                static_cast<unsigned long long>(periods));
  std::string out = buf;
  for (const AddTerm& term : pattern) {
    std::snprintf(buf, sizeof buf, " (%a x%llu)", term.value,
                  static_cast<unsigned long long>(term.count));
    out += buf;
  }
  return out;
}

/// Bitwise equality (EXPECT_EQ would let -0.0 equal +0.0).
void expect_same_bits(double expected, double actual,
                      const std::string& where) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected),
            std::bit_cast<std::uint64_t>(actual))
      << where << ": expected " << expected << ", got " << actual;
}

/// An accumulator of one of the shapes the closed form treats specially:
/// zero, subnormal, one ulp below a power of two, or an ordinary value.
double generated_accumulator(util::Rng& rng) {
  const int exponent = static_cast<int>(rng.next_below(120)) - 60;
  switch (rng.next_below(6)) {
    case 0:
      return 0.0;
    case 1:  // subnormal
      return std::ldexp(static_cast<double>(1 + rng.next_below(1u << 20)),
                        -1074 + static_cast<int>(rng.next_below(30)));
    case 2:  // one ulp below a power of two
      return std::nextafter(std::ldexp(1.0, exponent), 0.0);
    default:
      return std::ldexp(1.0 + rng.next_double(), exponent);
  }
}

/// A term relative to @p acc: a tie (an odd multiple of half its ulp), zero,
/// larger than acc, or an ordinary value a few binades below it.
double generated_term(util::Rng& rng, double acc) {
  const int acc_exp = acc == 0.0 ? -60 : std::max(std::ilogb(acc), -1022);
  switch (rng.next_below(8)) {
    case 0:  // tie: (2j + 1) * ulp / 2
      return std::ldexp(static_cast<double>(2 * rng.next_below(64) + 1),
                        acc_exp - 53);
    case 1:  // tie after a few binade crossings
      return std::ldexp(static_cast<double>(2 * rng.next_below(8) + 1),
                        acc_exp - 50 + static_cast<int>(rng.next_below(4)));
    case 2:
      return 0.0;
    case 3:  // larger than the accumulator
      return std::ldexp(1.0 + rng.next_double(),
                        acc_exp + 1 + static_cast<int>(rng.next_below(4)));
    case 4:  // a short-mantissa constant (exact in few bits)
      return std::ldexp(static_cast<double>(1 + rng.next_below(16)),
                        acc_exp - static_cast<int>(rng.next_below(56)));
    default:
      return std::ldexp(1.0 + rng.next_double(),
                        acc_exp - static_cast<int>(rng.next_below(40)));
  }
}

TEST(RepeatAdd, EqualsSequentialAdditionOnGeneratedCases) {
  util::Rng rng(0x5EED);
  for (int trial = 0; trial < 40000; ++trial) {
    const double acc = generated_accumulator(rng);
    std::vector<AddTerm> pattern(1 + rng.next_below(4));
    for (AddTerm& term : pattern) {
      term.value = generated_term(rng, acc);
      term.count = rng.next_below(4) == 0 ? 0 : 1 + rng.next_below(12);
    }
    const std::uint64_t periods = rng.next_below(3) == 0
                                      ? rng.next_below(4)
                                      : 1 + rng.next_below(600);
    expect_same_bits(add_sequentially(acc, pattern, periods),
                     power::repeat_add(acc, pattern, periods),
                     describe(acc, pattern, periods));
    if (HasFailure()) return;
  }
}

TEST(RepeatAdd, LongRunsAcrossManyBinades) {
  // Counts up to 10^6 from a zero, a subnormal and an ordinary start:
  // the chain crosses 20+ binades, each one a closed-form step.
  util::Rng rng(0xB1ADE);
  for (int trial = 0; trial < 24; ++trial) {
    const double acc = trial % 3 == 0   ? 0.0
                       : trial % 3 == 1 ? std::ldexp(3.0, -1074)
                                        : generated_accumulator(rng);
    const double value =
        trial % 4 == 0 ? 0.1 : std::ldexp(1.0 + rng.next_double(), -40);
    const std::uint64_t count = 1 + rng.next_below(1000000);
    const std::vector<AddTerm> single = {{value, 1}};
    expect_same_bits(add_sequentially(acc, single, count),
                     power::repeat_add(acc, value, count),
                     describe(acc, single, count));
    const std::vector<AddTerm> pattern = {
        {value, 3}, {generated_term(rng, value), 1}, {value * 0.5, 2}};
    const std::uint64_t periods = count / 6;
    expect_same_bits(add_sequentially(acc, pattern, periods),
                     power::repeat_add(acc, pattern, periods),
                     describe(acc, pattern, periods));
  }
}

TEST(RepeatAdd, TiesFollowTheAccumulatorsParity) {
  // 1 + 2^-53 is exactly half an ulp of [1, 2): the first addition rounds
  // to even (1.0 stays), so a multiply-free closed form that ignored the
  // tie rule would drift.  3 * 2^-53 from an odd significand rounds up.
  const double half_ulp = std::ldexp(1.0, -53);
  for (const double acc : {1.0, std::nextafter(1.0, 2.0), 1.5,
                           std::nextafter(2.0, 0.0)}) {
    for (const double e : {half_ulp, 3 * half_ulp, 5 * half_ulp}) {
      for (const std::uint64_t count : {1ull, 2ull, 7ull, 1000ull, 99999ull}) {
        const std::vector<AddTerm> single = {{e, 1}};
        expect_same_bits(add_sequentially(acc, single, count),
                         power::repeat_add(acc, e, count),
                         describe(acc, single, count));
        const std::vector<AddTerm> mixed = {{e, 2}, {3 * e, 1}, {e, 1}};
        expect_same_bits(add_sequentially(acc, mixed, count),
                         power::repeat_add(acc, mixed, count),
                         describe(acc, mixed, count));
      }
    }
  }
  // 0.1 ten times is not 10 * 0.1.
  EXPECT_EQ(power::repeat_add(0.0, 0.1, 10), 0.9999999999999999);
}

TEST(RepeatAdd, NonFiniteAndNegativeValuesStaySequential) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> cases = {
      {-0.0, 0.0},  {-0.0, -0.0}, {-1.0, 0.25}, {1.0, -0.125},
      {inf, 1.0},   {1.0, inf},   {0.0, std::ldexp(1.0, 1000)},
      {std::numeric_limits<double>::max(), 1e300}};
  for (const auto& [acc, e] : cases) {
    for (const std::uint64_t count : {1ull, 40ull, 300ull}) {
      const std::vector<AddTerm> single = {{e, 1}};
      expect_same_bits(add_sequentially(acc, single, count),
                       power::repeat_add(acc, e, count),
                       describe(acc, single, count));
    }
  }
}

// --- technology ------------------------------------------------------------

TEST(Technology, DerivedEnergiesMatchClosedForms) {
  const auto t = power::TechnologyParams::tech_0p13um();
  EXPECT_DOUBLE_EQ(t.e_res_fight_per_cycle(),
                   t.vdd * t.res_fight_current * 0.5 * t.clock_period);
  EXPECT_DOUBLE_EQ(t.e_read_restore(), t.c_bitline * t.vdd * t.read_swing);
  EXPECT_DOUBLE_EQ(t.e_write_restore(), t.c_bitline * t.vdd * t.vdd);
  EXPECT_DOUBLE_EQ(t.e_wordline(512),
                   512.0 * t.c_wordline_per_column * t.vdd * t.vdd);
  EXPECT_DOUBLE_EQ(t.e_lptest_driver(512), t.e_wordline(512));
  EXPECT_DOUBLE_EQ(t.e_bitline_restore_from(t.vdd), 0.0);
  EXPECT_GT(t.e_bitline_restore_from(0.0), 0.0);
}

// Paper Fig. 6: the floating bit-line reaches logic 0 in ~9 cycles; with
// tau = 3 cycles and a 5 % threshold the closed form gives 3 ln 20 = 8.99.
TEST(Technology, DischargeTimeIsNearlyNineCycles) {
  const auto t = power::TechnologyParams::tech_0p13um();
  EXPECT_NEAR(t.cycles_to_discharge(), core::paper_claims::kDischargeCycles,
              0.5);
}

TEST(Technology, DecayIsExponential) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const double v3 = t.decayed_voltage(1.6, 3.0);
  EXPECT_NEAR(v3, 1.6 * std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(t.decayed_voltage(1.6, 0.0), 1.6);
  EXPECT_THROW(t.decayed_voltage(1.6, -1.0), Error);
}

// Paper §5 source 4: cell dissipation during RES is ~3 orders of magnitude
// below the pre-charge circuit's.
TEST(Technology, CellResThreeOrdersBelowPrecharge) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const double ratio = t.e_cell_res_dynamic() / t.e_res_fight_per_cycle();
  EXPECT_LT(ratio, 5e-3);
  EXPECT_GT(ratio, 1e-5);
}

// Paper §5 source 5: the control element load is ~3 orders below a bit-line.
TEST(Technology, ControlElementThreeOrdersBelowBitline) {
  const auto t = power::TechnologyParams::tech_0p13um();
  EXPECT_LT(t.c_control_element, 2e-3 * t.c_bitline);
}

TEST(Technology, ValidateRejectsBadParameters) {
  auto t = power::TechnologyParams::tech_0p13um();
  t.vdd = 0.0;
  EXPECT_THROW(t.validate(), Error);
  t = power::TechnologyParams::tech_0p13um();
  t.read_swing = 2.0;  // beyond the rail
  EXPECT_THROW(t.validate(), Error);
  t = power::TechnologyParams::tech_0p13um();
  t.discharged_threshold = 1.5;
  EXPECT_THROW(t.validate(), Error);
}

// --- analytic model ---------------------------------------------------------

power::AlgorithmCounts march_c_minus_counts() {
  return {"March C-", 6, 10, 5, 5};
}

TEST(AnalyticModel, CountsValidation) {
  power::AlgorithmCounts bad{"x", 1, 3, 1, 1};  // 1+1 != 3
  EXPECT_THROW(bad.validate(), Error);
  EXPECT_NO_THROW(march_c_minus_counts().validate());
}

TEST(AnalyticModel, PfIsReadWriteWeightedAverage) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const power::AnalyticModel m(t, 512, 512);
  const auto c = march_c_minus_counts();
  EXPECT_NEAR(m.pf(c), 0.5 * (m.pr() + m.pw()), 1e-18);
  EXPECT_GT(m.pw(), m.pr());  // paper: writes cost more than reads
}

// The paper's two worked examples for F(row transition): one-op elements
// see a transition every 512 cycles, four-op elements every 2048.
TEST(AnalyticModel, RowTransitionPeriodsMatchPaperExamples) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const power::AnalyticModel m(t, 512, 512);
  EXPECT_DOUBLE_EQ(m.row_transition_period_cycles(1),
                   core::paper_claims::kRowTransitionPeriod1op);
  EXPECT_DOUBLE_EQ(m.row_transition_period_cycles(4),
                   core::paper_claims::kRowTransitionPeriod4op);
}

TEST(AnalyticModel, PaperFormulaMatchesVerbatim) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const power::AnalyticModel m(t, 512, 512);
  const auto c = march_c_minus_counts();
  const double expected =
      m.pf(c) - (510.0 * m.p_a() - (6.0 / 10.0) * m.p_b());
  EXPECT_NEAR(m.plpt_paper(c), expected, 1e-18);
}

TEST(AnalyticModel, RefinedAndPaperFormulasAgreeClosely) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const power::AnalyticModel m(t, 512, 512);
  for (const auto& row : core::kTable1) {
    const power::AlgorithmCounts c{row.algorithm, row.elements,
                                   row.operations, row.reads, row.writes};
    // The second-order terms the paper neglects shift PRR by a few percent
    // at most.
    EXPECT_NEAR(m.prr(c), m.prr_paper(c), 0.06) << row.algorithm;
  }
}

// Regression against the paper's Table 1: every algorithm lands in the
// published 47-51 % band within ±2.5 points of its published value.
TEST(AnalyticModel, PrrMatchesTable1Band) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const power::AnalyticModel m(t, 512, 512);
  for (const auto& row : core::kTable1) {
    const power::AlgorithmCounts c{row.algorithm, row.elements,
                                   row.operations, row.reads, row.writes};
    EXPECT_NEAR(m.prr(c), row.prr, 0.025) << row.algorithm;
    EXPECT_GT(m.prr(c), 0.45) << row.algorithm;
    EXPECT_LT(m.prr(c), 0.55) << row.algorithm;
  }
}

// Paper §5: "the power dissipation reduction depends on the memory array
// organisation" — wider arrays save more.
TEST(AnalyticModel, SavingGrowsWithColumnCount) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const auto c = march_c_minus_counts();
  double last = 0.0;
  for (std::size_t cols : {64u, 128u, 256u, 512u, 1024u}) {
    const power::AnalyticModel m(t, 512, cols);
    const double prr = m.prr(c);
    EXPECT_GT(prr, last) << cols;
    last = prr;
  }
}

// Word-oriented generalisation (paper §6): wider words keep more pre-charge
// circuits busy, so the saving shrinks with word width.
TEST(AnalyticModel, PrrShrinksWithWordWidth) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const auto c = march_c_minus_counts();
  double last = 1.0;
  for (std::size_t w : {1u, 2u, 4u, 8u, 16u}) {
    const power::AnalyticModel m(t, 512, 512, w);
    const double prr = m.prr(c);
    EXPECT_LT(prr, last) << w;
    last = prr;
  }
}

TEST(AnalyticModel, RejectsBadGeometry) {
  const auto t = power::TechnologyParams::tech_0p13um();
  EXPECT_THROW(power::AnalyticModel(t, 0, 512), Error);
  EXPECT_THROW(power::AnalyticModel(t, 512, 512, 3), Error);   // 512 % 3 != 0
  EXPECT_THROW(power::AnalyticModel(t, 512, 4, 4), Error);     // < 2 groups
}

}  // namespace
