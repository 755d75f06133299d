// Unit tests of the behavioural fault models, exercised directly through a
// small array (detection-level properties live in test_detection.cpp).
#include <gtest/gtest.h>

#include "core/fault_campaign.h"
#include "faults/models.h"
#include "march/algorithms.h"
#include "sram/array.h"
#include "util/error.h"

namespace {

using namespace sramlp;
using faults::FaultKind;
using faults::FaultSet;
using faults::FaultSpec;
using sram::CycleCommand;
using sram::Mode;
using sram::SramArray;
using sram::SramConfig;

SramArray make_array(FaultSet& set, Mode mode = Mode::kFunctional) {
  SramConfig cfg;
  cfg.geometry = {8, 8, 1};
  cfg.mode = mode;
  SramArray a(cfg);
  a.attach_fault_model(&set);
  return a;
}

CycleCommand wr(std::size_t row, std::size_t col, bool value) {
  CycleCommand c;
  c.row = row;
  c.col_group = col;
  c.is_read = false;
  c.value = value;
  return c;
}

CycleCommand rd(std::size_t row, std::size_t col, bool expected) {
  CycleCommand c;
  c.row = row;
  c.col_group = col;
  c.is_read = true;
  c.value = expected;
  return c;
}

TEST(FaultModels, StuckAt0IgnoresWrites) {
  FaultSet set({FaultSpec{.kind = FaultKind::kStuckAt0, .victim = {2, 2}}});
  auto a = make_array(set);
  a.cycle(wr(2, 2, true));
  const auto r = a.cycle(rd(2, 2, true));
  EXPECT_FALSE(r.read_value);
  EXPECT_TRUE(r.mismatch);
}

TEST(FaultModels, StuckAt1ReadsOneEvenWhenUntouched) {
  FaultSet set({FaultSpec{.kind = FaultKind::kStuckAt1, .victim = {0, 5}}});
  auto a = make_array(set);
  const auto r = a.cycle(rd(0, 5, false));
  EXPECT_TRUE(r.read_value);
  EXPECT_TRUE(r.mismatch);
}

TEST(FaultModels, TransitionUpFailsOnlyUpWrites) {
  FaultSet set(
      {FaultSpec{.kind = FaultKind::kTransitionUp, .victim = {1, 1}}});
  auto a = make_array(set);
  a.cycle(wr(1, 1, true));  // 0 -> 1 fails
  EXPECT_FALSE(a.peek(1, 1));
  a.poke(1, 1, true);
  a.cycle(wr(1, 1, false));  // 1 -> 0 still works
  EXPECT_FALSE(a.peek(1, 1));
  a.cycle(wr(1, 1, true));   // fails again
  EXPECT_FALSE(a.peek(1, 1));
}

TEST(FaultModels, TransitionDownFailsOnlyDownWrites) {
  FaultSet set(
      {FaultSpec{.kind = FaultKind::kTransitionDown, .victim = {1, 1}}});
  auto a = make_array(set);
  a.cycle(wr(1, 1, true));
  EXPECT_TRUE(a.peek(1, 1));
  a.cycle(wr(1, 1, false));  // 1 -> 0 fails
  EXPECT_TRUE(a.peek(1, 1));
}

TEST(FaultModels, WriteDisturbFlipsOnNonTransitionWrite) {
  FaultSet set(
      {FaultSpec{.kind = FaultKind::kWriteDisturb, .victim = {3, 3}}});
  auto a = make_array(set);
  a.cycle(wr(3, 3, false));  // cell already 0: non-transition write flips it
  EXPECT_TRUE(a.peek(3, 3));
  a.cycle(wr(3, 3, false));  // 1 -> 0 transition write works normally
  EXPECT_FALSE(a.peek(3, 3));
}

TEST(FaultModels, ReadDestructiveFlipsAndReturnsFlip) {
  FaultSet set(
      {FaultSpec{.kind = FaultKind::kReadDestructive, .victim = {4, 4}}});
  auto a = make_array(set);
  const auto r = a.cycle(rd(4, 4, false));
  EXPECT_TRUE(r.read_value);  // returns the flipped value
  EXPECT_TRUE(r.mismatch);
  EXPECT_TRUE(a.peek(4, 4));  // cell flipped
}

TEST(FaultModels, DeceptiveReadReturnsOldValueButFlips) {
  FaultSet set({FaultSpec{.kind = FaultKind::kDeceptiveReadDestructive,
                          .victim = {4, 4}}});
  auto a = make_array(set);
  const auto first = a.cycle(rd(4, 4, false));
  EXPECT_FALSE(first.read_value);  // deceptively correct
  EXPECT_FALSE(first.mismatch);
  EXPECT_TRUE(a.peek(4, 4));       // but the cell flipped
  const auto second = a.cycle(rd(4, 4, false));
  EXPECT_TRUE(second.mismatch);    // the second read exposes it
}

TEST(FaultModels, IncorrectReadLeavesCellIntact) {
  FaultSet set(
      {FaultSpec{.kind = FaultKind::kIncorrectRead, .victim = {5, 5}}});
  auto a = make_array(set);
  const auto r = a.cycle(rd(5, 5, false));
  EXPECT_TRUE(r.read_value);
  EXPECT_TRUE(r.mismatch);
  EXPECT_FALSE(a.peek(5, 5));
}

TEST(FaultModels, CouplingInversionTriggersOnMatchingEdge) {
  FaultSpec f;
  f.kind = FaultKind::kCouplingInversion;
  f.victim = {2, 3};
  f.aggressor = {2, 4};
  f.aggressor_up = true;
  FaultSet set({f});
  auto a = make_array(set);
  a.poke(2, 3, false);
  a.cycle(wr(2, 4, true));  // aggressor 0 -> 1: victim inverts
  EXPECT_TRUE(a.peek(2, 3));
  a.cycle(wr(2, 4, false));  // 1 -> 0: wrong edge, nothing happens
  EXPECT_TRUE(a.peek(2, 3));
  a.cycle(wr(2, 4, true));   // up again: inverts back
  EXPECT_FALSE(a.peek(2, 3));
}

TEST(FaultModels, CouplingIdempotentForcesValue) {
  FaultSpec f;
  f.kind = FaultKind::kCouplingIdempotent;
  f.victim = {1, 6};
  f.aggressor = {1, 7};
  f.aggressor_up = false;  // falling edge
  f.forced_value = true;
  FaultSet set({f});
  auto a = make_array(set);
  a.poke(1, 7, true);
  a.cycle(wr(1, 7, false));  // aggressor 1 -> 0
  EXPECT_TRUE(a.peek(1, 6));
  // Repeating the same edge keeps forcing the same value (idempotent).
  a.poke(1, 6, false);
  a.poke(1, 7, true);
  a.cycle(wr(1, 7, false));
  EXPECT_TRUE(a.peek(1, 6));
}

TEST(FaultModels, CouplingStateCoercesAccessesWhileAggressorHolds) {
  FaultSpec f;
  f.kind = FaultKind::kCouplingState;
  f.victim = {3, 0};
  f.aggressor = {3, 1};
  f.aggressor_state = true;
  f.forced_value = false;
  FaultSet set({f});
  auto a = make_array(set);
  a.poke(3, 0, true);
  a.poke(3, 1, true);  // aggressor in the coercing state
  const auto r = a.cycle(rd(3, 0, true));
  EXPECT_FALSE(r.read_value);
  EXPECT_TRUE(r.mismatch);
  // Aggressor leaves the state: victim behaves normally again.
  a.poke(3, 1, false);
  a.poke(3, 0, true);
  const auto r2 = a.cycle(rd(3, 0, true));
  EXPECT_FALSE(r2.mismatch);
}

TEST(FaultModels, ResSensitiveFliesUnderThreshold) {
  FaultSpec f;
  f.kind = FaultKind::kResSensitive;
  f.victim = {0, 3};
  f.res_threshold = 10.0;
  FaultSet set({f});
  auto a = make_array(set, Mode::kFunctional);
  // Operate elsewhere in the same row: cell (0,3) accumulates full RES
  // every cycle; after 10 cycles it flips.
  for (int i = 0; i < 9; ++i) a.cycle(rd(0, 0, false));
  EXPECT_FALSE(a.peek(0, 3));
  EXPECT_FALSE(set.res_fault_fired());
  a.cycle(rd(0, 0, false));
  EXPECT_TRUE(set.res_fault_fired());
  EXPECT_TRUE(a.peek(0, 3));
  EXPECT_NEAR(set.res_stress_accumulated(), 10.0, 1e-9);
}

TEST(FaultModels, ResSensitiveAccumulatesSlowlyInLpMode) {
  FaultSpec f;
  f.kind = FaultKind::kResSensitive;
  f.victim = {0, 3};
  f.res_threshold = 10.0;
  FaultSet set({f});
  auto a = make_array(set, Mode::kLowPowerTest);
  for (int i = 0; i < 10; ++i) a.cycle(rd(0, 0, false));
  // Only follower/decay stress reaches the cell: far below functional.
  EXPECT_FALSE(set.res_fault_fired());
  EXPECT_LT(set.res_stress_accumulated(), 8.0);
}

TEST(FaultModels, ResetStateClearsAccumulation) {
  FaultSpec f;
  f.kind = FaultKind::kResSensitive;
  f.victim = {0, 3};
  f.res_threshold = 5.0;
  FaultSet set({f});
  auto a = make_array(set);
  for (int i = 0; i < 6; ++i) a.cycle(rd(0, 0, false));
  EXPECT_TRUE(set.res_fault_fired());
  set.reset_state();
  EXPECT_FALSE(set.res_fault_fired());
  EXPECT_EQ(set.res_stress_accumulated(), 0.0);
}

TEST(FaultModels, DescribeMentionsKindAndLocation) {
  FaultSpec f;
  f.kind = FaultKind::kCouplingIdempotent;
  f.victim = {3, 4};
  f.aggressor = {3, 5};
  const std::string d = f.describe();
  EXPECT_NE(d.find("CFid"), std::string::npos);
  EXPECT_NE(d.find("(3,4)"), std::string::npos);
  EXPECT_NE(d.find("(3,5)"), std::string::npos);
}

TEST(FaultModels, LibraryIsDeterministicAndInBounds) {
  const sram::Geometry g{16, 16, 1};
  const auto a = faults::standard_fault_library(g, 5);
  const auto b = faults::standard_fault_library(g, 5);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 20u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].victim, b[i].victim);
    EXPECT_LT(a[i].victim.row, g.rows);
    EXPECT_LT(a[i].victim.col, g.cols);
    if (faults::is_coupling(a[i].kind)) {
      EXPECT_FALSE(a[i].aggressor == a[i].victim);
    }
  }
}

// Regression: on a single-column geometry the aggressor used to be drawn
// at column - 1, wrapping to SIZE_MAX and throwing from CellArray::check
// deep inside a run.  Single-column libraries now use row neighbours.
TEST(FaultModels, LibraryHandlesSingleColumnGeometries) {
  const sram::Geometry g{8, 1, 1};
  const auto lib = faults::standard_fault_library(g, 3);
  std::size_t coupling = 0;
  for (const auto& f : lib) {
    EXPECT_LT(f.victim.row, g.rows);
    EXPECT_LT(f.victim.col, g.cols);
    if (faults::is_coupling(f.kind)) {
      ++coupling;
      EXPECT_LT(f.aggressor.row, g.rows) << f.describe();
      EXPECT_LT(f.aggressor.col, g.cols) << f.describe();
      EXPECT_FALSE(f.aggressor == f.victim) << f.describe();
    }
  }
  EXPECT_GT(coupling, 0u);
}

// A 1x1 array has no neighbour at all: the library simply skips the
// two-cell kinds instead of fabricating an out-of-range aggressor.
TEST(FaultModels, LibrarySkipsCouplingOnOneByOne) {
  const auto lib = faults::standard_fault_library({1, 1, 1}, 3);
  EXPECT_FALSE(lib.empty());
  for (const auto& f : lib) {
    EXPECT_FALSE(faults::is_coupling(f.kind)) << f.describe();
    EXPECT_EQ(f.victim.row, 0u);
    EXPECT_EQ(f.victim.col, 0u);
  }
}

// Mis-specified coordinates fail fast at attach (for every fault kind),
// not by silently never firing or by throwing mid-run from force().
TEST(FaultModels, AttachRejectsOutOfRangeVictimsAndAggressors) {
  SramConfig cfg;
  cfg.geometry = {8, 8, 1};

  FaultSpec victim_oob;
  victim_oob.kind = FaultKind::kStuckAt0;
  victim_oob.victim = {8, 0};  // row one past the end
  FaultSet bad_victim({victim_oob});
  SramArray a(cfg);
  EXPECT_THROW(a.attach_fault_model(&bad_victim), Error);

  FaultSpec aggr_oob;
  aggr_oob.kind = FaultKind::kCouplingIdempotent;
  aggr_oob.victim = {3, 7};
  aggr_oob.aggressor = {3, 8};  // column one past the end
  FaultSet bad_aggressor({aggr_oob});
  SramArray b(cfg);
  EXPECT_THROW(b.attach_fault_model(&bad_aggressor), Error);

  FaultSpec fine;
  fine.kind = FaultKind::kCouplingIdempotent;
  fine.victim = {3, 7};
  fine.aggressor = {3, 6};
  FaultSet good({fine});
  SramArray c(cfg);
  EXPECT_NO_THROW(c.attach_fault_model(&good));
}

TEST(FaultModels, RejectsDegenerateSpecs) {
  FaultSpec f;
  f.kind = FaultKind::kCouplingInversion;
  f.victim = {1, 1};
  f.aggressor = {1, 1};
  FaultSet set;
  EXPECT_THROW(set.add(f), Error);
  FaultSpec g;
  g.kind = FaultKind::kResSensitive;
  g.res_threshold = 0.0;
  EXPECT_THROW(set.add(g), Error);
}

TEST(FaultModels, EveryKindHasAName) {
  for (auto kind :
       {FaultKind::kStuckAt0, FaultKind::kStuckAt1, FaultKind::kTransitionUp,
        FaultKind::kTransitionDown, FaultKind::kWriteDisturb,
        FaultKind::kReadDestructive, FaultKind::kDeceptiveReadDestructive,
        FaultKind::kIncorrectRead, FaultKind::kCouplingInversion,
        FaultKind::kCouplingIdempotent, FaultKind::kCouplingState,
        FaultKind::kDynamicReadDestructive, FaultKind::kResSensitive,
        FaultKind::kDataRetention})
    EXPECT_FALSE(faults::to_string(kind).empty());
}


TEST(FaultModels, DynamicReadDestructiveNeedsImmediateWriteThenRead) {
  FaultSet set({FaultSpec{.kind = FaultKind::kDynamicReadDestructive,
                          .victim = {2, 2}}});
  auto a = make_array(set);
  // Write then immediately read the victim: the read destroys the cell and
  // returns the flipped value.
  a.cycle(wr(2, 2, true));
  const auto r = a.cycle(rd(2, 2, true));
  EXPECT_FALSE(r.read_value);
  EXPECT_TRUE(r.mismatch);
  EXPECT_FALSE(a.peek(2, 2));
}

TEST(FaultModels, DynamicReadDestructiveInertWithoutTheSequence) {
  FaultSet set({FaultSpec{.kind = FaultKind::kDynamicReadDestructive,
                          .victim = {2, 2}}});
  auto a = make_array(set);
  a.poke(2, 2, true);
  // Plain read (no preceding write): harmless.
  auto r = a.cycle(rd(2, 2, true));
  EXPECT_FALSE(r.mismatch);
  EXPECT_TRUE(a.peek(2, 2));
  // Write victim, operate elsewhere, then read: the pair is broken.
  a.cycle(wr(2, 2, true));
  a.cycle(rd(0, 0, false));
  r = a.cycle(rd(2, 2, true));
  EXPECT_FALSE(r.mismatch);
  EXPECT_TRUE(a.peek(2, 2));
}

TEST(FaultModels, DynamicReadDestructiveResetWithState) {
  FaultSet set({FaultSpec{.kind = FaultKind::kDynamicReadDestructive,
                          .victim = {1, 1}}});
  auto a = make_array(set);
  a.cycle(wr(1, 1, true));
  set.reset_state();  // forget the pending write
  const auto r = a.cycle(rd(1, 1, true));
  EXPECT_FALSE(r.mismatch);
}

// MATS+ and March C- have no write-then-read pair inside an element, but
// one crosses each boundary where a write element and the next read
// element meet on one address: the order's first or last address.  On a
// 128x128 word-line-after-word-line array MATS+ ({⇕(w0); ⇑(r0,w1);
// ⇓(r1,w0)}) meets only at (127,127); March C- meets at (127,127) and
// (0,0).  Anywhere else, both miss the fault.
TEST(FaultModels, DynamicReadDestructiveAtTheOrdersEdgeAddresses) {
  core::SessionConfig config;
  config.geometry = {128, 128, 1};
  const auto detects = [&](const march::MarchTest& test, std::size_t row,
                           std::size_t col) {
    return core::detects_fault(
        config, test,
        FaultSpec{.kind = FaultKind::kDynamicReadDestructive,
                  .victim = {row, col}});
  };
  const auto mats_plus = march::algorithms::mats_plus();
  const auto march_c_minus = march::algorithms::march_c_minus();
  EXPECT_TRUE(detects(mats_plus, 127, 127));
  EXPECT_FALSE(detects(mats_plus, 0, 0));
  EXPECT_TRUE(detects(march_c_minus, 0, 0));
  EXPECT_TRUE(detects(march_c_minus, 127, 127));
  for (const auto& test : {mats_plus, march_c_minus}) {
    EXPECT_FALSE(detects(test, 64, 5)) << test.name();
    EXPECT_FALSE(detects(test, 64, 127)) << test.name();
  }
}

}  // namespace
