// Detection-level properties of the whole stack (fault campaign):
//  * March SS detects every static fault in the library;
//  * detection is independent of the address order (March DOF-1, the
//    property the paper's technique rests on);
//  * low-power test mode detects exactly what functional mode detects
//    (the paper's correctness requirement);
//  * the §4 caveat: RES-count-sensitive behaviour needs functional mode.
#include <gtest/gtest.h>

#include "core/fault_campaign.h"
#include "march/algorithms.h"

namespace {

using namespace sramlp;
using core::SessionConfig;
using faults::FaultKind;
using faults::FaultSpec;
using sram::Mode;

constexpr std::size_t kRows = 8;
constexpr std::size_t kCols = 8;

SessionConfig config() {
  SessionConfig cfg;
  cfg.geometry = {kRows, kCols, 1};
  return cfg;
}

// The standard library now spans the full space the paper's §4 argues
// about: the static simple faults PLUS dynamic dRDF, RES-sensitive and
// data-retention instances.
std::vector<FaultSpec> expanded_library() {
  auto lib = faults::standard_fault_library({kRows, kCols, 1}, 11);
  return lib;
}

// March SS covers all static simple (single-cell and two-cell coupling)
// faults — its defining property in the literature — and, having
// write-then-read pairs, the dynamic dRDF as well.  Only the delay-needing
// retention faults escape it (March SS has no "Del" element).
TEST(Detection, MarchSsDetectsEveryStaticFault) {
  const auto report = core::run_fault_campaign(
      config(), march::algorithms::march_ss(), expanded_library());
  std::size_t retention = 0;
  for (const auto& e : report.entries) {
    if (e.spec.kind == FaultKind::kDataRetention) {
      ++retention;
      EXPECT_FALSE(e.detected_functional) << e.spec.describe();
      continue;
    }
    EXPECT_TRUE(e.detected_functional) << e.spec.describe();
  }
  EXPECT_GT(retention, 0u);
  EXPECT_DOUBLE_EQ(
      report.coverage_functional(),
      static_cast<double>(report.entries.size() - retention) /
          static_cast<double>(report.entries.size()));
}

// Only March G's delay elements sensitise the library's data-retention
// faults — and both pauses matter (each polarity needs one).
TEST(Detection, MarchGDelaysCoverTheRetentionFaults) {
  const auto report = core::run_fault_campaign(
      config(), march::algorithms::march_g_with_delays(),
      expanded_library());
  for (const auto& e : report.entries) {
    if (e.spec.kind != FaultKind::kDataRetention) continue;
    EXPECT_TRUE(e.detected_functional) << e.spec.describe();
    EXPECT_TRUE(e.detected_low_power) << e.spec.describe();
  }
}

// The paper's correctness requirement: switching to the low-power test
// mode must not change any detection verdict, for any algorithm — with the
// one documented exception (§4): RES-sensitive cells NEED functional-mode
// stress, so their verdicts may legitimately differ.
TEST(Detection, LowPowerModeDetectsExactlyWhatFunctionalDoes) {
  for (const auto& test : march::algorithms::table1()) {
    const auto report =
        core::run_fault_campaign(config(), test, expanded_library());
    for (const auto& e : report.entries) {
      if (e.spec.kind == FaultKind::kResSensitive) continue;
      EXPECT_EQ(e.detected_functional, e.detected_low_power)
          << test.name() << ": " << e.spec.describe();
    }
  }
}

// §4 with the library's own parameters: on a wide row the RES threshold
// (3x the column count) sits above the low-power exposure but below one
// functional sweep, so the expanded library exhibits the paper's headline
// separation out of the box.
TEST(Detection, LibraryResFaultsSeparateModesOnWideRows) {
  SessionConfig wide = config();
  wide.geometry = {8, 64, 1};
  const auto report = core::run_fault_campaign(
      wide, march::algorithms::march_c_minus(),
      faults::standard_fault_library(wide.geometry, 11));
  std::size_t res = 0;
  for (const auto& e : report.entries) {
    if (e.spec.kind != FaultKind::kResSensitive) continue;
    ++res;
    EXPECT_TRUE(e.detected_functional) << e.spec.describe();
    EXPECT_FALSE(e.detected_low_power) << e.spec.describe();
  }
  EXPECT_GT(res, 0u);
  EXPECT_FALSE(report.modes_agree());  // the documented exception
}

// Every March algorithm at least detects stuck-at faults.
TEST(Detection, EveryAlgorithmDetectsStuckAtFaults) {
  std::vector<FaultSpec> safs;
  for (std::size_t i = 0; i < 4; ++i) {
    safs.push_back(FaultSpec{.kind = FaultKind::kStuckAt0,
                             .victim = {i, 2 * i}});
    safs.push_back(FaultSpec{.kind = FaultKind::kStuckAt1,
                             .victim = {i + 1, 7 - i}});
  }
  for (const auto& test : march::algorithms::all()) {
    const auto report = core::run_fault_campaign(config(), test, safs);
    EXPECT_DOUBLE_EQ(report.coverage_functional(), 1.0) << test.name();
    EXPECT_TRUE(report.modes_agree()) << test.name();
  }
}

// DRDF needs a double read (or read-after-read): MATS+ lacks one, March SS
// has them — the classic separation.
TEST(Detection, DeceptiveReadSeparatesMatsPlusFromMarchSs) {
  std::vector<FaultSpec> drdf{
      FaultSpec{.kind = FaultKind::kDeceptiveReadDestructive,
                .victim = {3, 3}}};
  const auto mats = core::run_fault_campaign(
      config(), march::algorithms::mats_plus(), drdf);
  const auto ss = core::run_fault_campaign(
      config(), march::algorithms::march_ss(), drdf);
  EXPECT_FALSE(mats.entries[0].detected_functional);
  EXPECT_TRUE(ss.entries[0].detected_functional);
}

// March DOF-1: "the fault detection properties are independent of the
// utilized address sequence".  Run the campaign under several orders in
// functional mode and require identical verdicts.
class DetectionOrderIndependence
    : public ::testing::TestWithParam<const char*> {};

march::AddressOrder make_order(const std::string& kind) {
  if (kind == "fast-row") return march::AddressOrder::fast_row(kRows, kCols);
  if (kind == "pseudo-random")
    return march::AddressOrder::pseudo_random(kRows, kCols, 99);
  if (kind == "address-complement")
    return march::AddressOrder::address_complement(kRows, kCols);
  if (kind == "gray") return march::AddressOrder::gray_code(kRows, kCols);
  return march::AddressOrder::word_line_after_word_line(kRows, kCols);
}

TEST_P(DetectionOrderIndependence, SameVerdictsAsCanonicalOrder) {
  const auto library = expanded_library();
  const auto test = march::algorithms::march_ss();

  SessionConfig base = config();
  base.mode = Mode::kFunctional;

  SessionConfig alt = base;
  alt.order = make_order(GetParam());

  for (const auto& spec : library) {
    // DOF-1's guarantee covers the static (and dynamic two-operation)
    // fault space; a RES-sensitive flip is a timing event — WHEN the
    // stress total crosses the threshold depends on the visit order, so
    // its verdict legitimately may differ between orders.
    if (spec.kind == FaultKind::kResSensitive) continue;
    const bool canonical = core::detects_fault(base, test, spec);
    const bool reordered = core::detects_fault(alt, test, spec);
    EXPECT_EQ(canonical, reordered)
        << GetParam() << " changed the verdict for " << spec.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, DetectionOrderIndependence,
                         ::testing::Values("fast-row", "pseudo-random",
                                           "address-complement", "gray"));

// Paper §4 caveat: algorithms that rely on functional-mode stress (here: a
// RES-count-sensitive cell) must run in functional mode; the low-power mode
// removes the stress that activates them.  The contrast needs a reasonably
// wide row: functional stress scales with the column count while LP stress
// is bounded by the follower plus the short decay tail.
TEST(Detection, ResSensitiveFaultNeedsFunctionalMode) {
  SessionConfig wide = config();
  wide.geometry = {8, 64, 1};

  FaultSpec f;
  f.kind = FaultKind::kResSensitive;
  f.victim = {4, 5};
  // Far below one element's functional-mode sweep (~64 ops/row x rows of
  // stress), far above the LP-mode exposure (~a dozen equivalents/element).
  f.res_threshold = 5.0 * 64.0;

  const auto report = core::run_fault_campaign(
      wide, march::algorithms::march_c_minus(), {f});
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_TRUE(report.entries[0].detected_functional);
  EXPECT_FALSE(report.entries[0].detected_low_power);
  EXPECT_FALSE(report.modes_agree());  // the documented exception
}

TEST(Detection, CampaignReportArithmetic) {
  std::vector<FaultSpec> two{
      FaultSpec{.kind = FaultKind::kStuckAt0, .victim = {0, 0}},
      FaultSpec{.kind = FaultKind::kStuckAt1, .victim = {1, 1}}};
  const auto report = core::run_fault_campaign(
      config(), march::algorithms::march_c_minus(), two);
  EXPECT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.detected_functional(), 2u);
  EXPECT_EQ(report.detected_low_power(), 2u);
  EXPECT_DOUBLE_EQ(report.coverage_functional(), 1.0);
  EXPECT_DOUBLE_EQ(report.coverage_low_power(), 1.0);
  EXPECT_EQ(report.algorithm, "March C-");
}


// The dynamic dRDF<w;r> fault needs a write-then-read pair on its cell:
// March SS and March SR have one inside an element; MATS+ and March C-
// only across an element boundary, at the order's first or last address
// (pinned in test_faults.cpp), so they miss a victim inside the array.
TEST(Detection, DynamicReadDestructiveSeparatesAlgorithms) {
  std::vector<FaultSpec> drdf{
      FaultSpec{.kind = FaultKind::kDynamicReadDestructive,
                .victim = {4, 4}}};
  const auto detects = [&](const march::MarchTest& test) {
    return core::run_fault_campaign(config(), test, drdf)
        .entries[0]
        .detected_functional;
  };
  EXPECT_FALSE(detects(march::algorithms::mats_plus()));
  EXPECT_FALSE(detects(march::algorithms::march_c_minus()));
  EXPECT_TRUE(detects(march::algorithms::march_ss()));
  EXPECT_TRUE(detects(march::algorithms::march_sr()));
  EXPECT_TRUE(detects(march::algorithms::march_g()));
  // Mode equivalence holds for the dynamic fault as well.
  const auto report = core::run_fault_campaign(
      config(), march::algorithms::march_ss(), drdf);
  EXPECT_TRUE(report.modes_agree());
}

}  // namespace
