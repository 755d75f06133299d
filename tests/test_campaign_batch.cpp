// The word-parallel multi-fault campaign batcher:
//  * plan_batches partitioning rules (victim disjointness, dRDF
//    history-class segregation, aggressor-cell fallbacks, batch cap);
//  * BatchFaultSet attribution (per-member mismatch counts, nothing
//    unattributed);
//  * the correctness anchor: batched campaigns produce bit-identical
//    CampaignReport verdicts (detection + mismatch counts per entry) to
//    the per-fault path, across modes, algorithms with pauses, awkward
//    geometries and word-oriented arrays — while running far fewer
//    sessions;
//  * the row-cone oracle: campaign sessions simulate only their row cone,
//    and every CampaignEntry must equal the whole-array TestSession::run
//    of the same FaultSet / BatchFaultSet on generated inputs; mutation
//    checks through an explicit backend mask show a cone that drops an
//    edge row or an aggressor row changes verdicts.
#include <gtest/gtest.h>

#include "core/fault_campaign.h"
#include "core/session.h"
#include "dist/job.h"
#include "engine/cycle_accurate_backend.h"
#include "faults/batch.h"
#include "march/algorithms.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace sramlp;
using core::CampaignEntry;
using core::CampaignReport;
using core::CampaignRunner;
using core::SessionConfig;
using faults::FaultKind;
using faults::FaultSpec;

FaultSpec at(FaultKind kind, std::size_t row, std::size_t col) {
  FaultSpec f;
  f.kind = kind;
  f.victim = {row, col};
  return f;
}

// --- plan_batches ------------------------------------------------------------

TEST(BatchPlan, DisjointVictimsShareOneBatch) {
  const std::vector<FaultSpec> specs = {
      at(FaultKind::kStuckAt0, 0, 0), at(FaultKind::kStuckAt1, 1, 1),
      at(FaultKind::kReadDestructive, 2, 2),
      at(FaultKind::kIncorrectRead, 3, 3)};
  const auto plan = faults::plan_batches(specs);
  ASSERT_EQ(plan.batches.size(), 1u);
  EXPECT_EQ(plan.batches[0].size(), 4u);
  EXPECT_TRUE(plan.fallback.empty());
  EXPECT_EQ(plan.session_pairs(), 1u);
}

TEST(BatchPlan, DuplicateVictimsSplitIntoSeparateBatches) {
  const std::vector<FaultSpec> specs = {
      at(FaultKind::kStuckAt0, 2, 2), at(FaultKind::kStuckAt1, 2, 2),
      at(FaultKind::kWriteDisturb, 2, 2)};
  const auto plan = faults::plan_batches(specs);
  EXPECT_EQ(plan.batches.size(), 3u);
  EXPECT_TRUE(plan.fallback.empty());
}

// dRDF's write-then-read history is keyed on operation coordinates only,
// so victim-disjoint co-members cannot perturb it — dRDF batches rather
// than falling back, but in batches of its own history class so the
// every-row hook cost stays off the word-parallel batches.
TEST(BatchPlan, DynamicReadDestructiveBatchesInItsOwnClass) {
  const std::vector<FaultSpec> specs = {
      at(FaultKind::kStuckAt0, 0, 0),
      at(FaultKind::kDynamicReadDestructive, 1, 1),
      at(FaultKind::kStuckAt1, 2, 2),
      at(FaultKind::kDynamicReadDestructive, 3, 3)};
  const auto plan = faults::plan_batches(specs);
  EXPECT_TRUE(plan.fallback.empty());
  ASSERT_EQ(plan.batches.size(), 2u);
  EXPECT_EQ(plan.batches[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(plan.batches[1], (std::vector<std::size_t>{1, 3}));
}

TEST(BatchPlan, CouplingAggressorCellCollisionFallsBack) {
  FaultSpec cf = at(FaultKind::kCouplingIdempotent, 4, 4);
  cf.aggressor = {5, 0};  // exactly another fault's victim cell
  const std::vector<FaultSpec> specs = {cf, at(FaultKind::kStuckAt0, 5, 0),
                                        at(FaultKind::kStuckAt1, 6, 0)};
  const auto plan = faults::plan_batches(specs);
  ASSERT_EQ(plan.fallback.size(), 1u);
  EXPECT_EQ(plan.fallback[0], 0u);

  // A victim that merely shares the aggressor's ROW touches a different
  // cell: under cell-level analysis that no longer forces a fallback.
  FaultSpec row_mate = at(FaultKind::kCouplingIdempotent, 4, 4);
  row_mate.aggressor = {5, 4};  // row 5 hosts a victim, but at column 0
  const auto plan2 = faults::plan_batches(
      {row_mate, at(FaultKind::kStuckAt0, 5, 0), at(FaultKind::kStuckAt1, 6, 0)});
  EXPECT_TRUE(plan2.fallback.empty());
  ASSERT_EQ(plan2.batches.size(), 1u);
  EXPECT_EQ(plan2.batches[0].size(), 3u);

  // Same-row column-neighbour aggressors (the library's construction)
  // batch as long as no victim sits on the aggressor cell itself.
  FaultSpec free_cf = at(FaultKind::kCouplingIdempotent, 4, 4);
  free_cf.aggressor = {4, 5};
  const auto plan3 = faults::plan_batches(
      {free_cf, at(FaultKind::kStuckAt0, 5, 0)});
  EXPECT_TRUE(plan3.fallback.empty());
  ASSERT_EQ(plan3.batches.size(), 1u);
  EXPECT_EQ(plan3.batches[0].size(), 2u);
}

TEST(BatchPlan, EveryIndexAppearsExactlyOnce) {
  const auto specs = faults::standard_fault_library({16, 16, 1}, 23);
  const auto plan = faults::plan_batches(specs);
  std::vector<int> seen(specs.size(), 0);
  for (const auto& b : plan.batches)
    for (const std::size_t i : b) ++seen[i];
  for (const std::size_t i : plan.fallback) ++seen[i];
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], 1) << "fault " << i;
}

// At campaign scale the plan must collapse the session count by a lot more
// than the acceptance floor of 3x.
TEST(BatchPlan, CollapsesSessionsAtCampaignScale) {
  const auto specs = faults::standard_fault_library({256, 256, 1}, 7, 8);
  EXPECT_GE(specs.size(), 100u);
  const auto plan = faults::plan_batches(specs);
  EXPECT_LE(plan.session_pairs() * 3, specs.size())
      << plan.session_pairs() << " session pairs for " << specs.size()
      << " faults";
  // Cell-level aggressor analysis: on the standard library (pseudo-random
  // victims, column-neighbour aggressors) no coupling fault should share
  // its aggressor cell with another victim, and dRDF rides in batches of
  // its own history class — nothing is left to fall back.  (Row-level
  // analysis used to send most coupling faults per-fault: 18 session pairs
  // on this library; cell-level got it to 9; batching dRDF gets it below
  // that.)
  EXPECT_TRUE(plan.fallback.empty());
  EXPECT_LE(plan.session_pairs(), 8u);
}

// --- BatchFaultSet -----------------------------------------------------------

TEST(BatchFaultSet, RejectsSharedVictims) {
  EXPECT_THROW(faults::BatchFaultSet({at(FaultKind::kStuckAt0, 1, 1),
                                      at(FaultKind::kStuckAt1, 1, 1)}),
               Error);
}

TEST(BatchFaultSet, AttributesMismatchesPerMember) {
  // SA0 at (1,1) mismatches on r1 expectations; the healthy fault at (2,2)
  // must collect nothing.
  faults::BatchFaultSet set(
      {at(FaultKind::kStuckAt0, 1, 1), at(FaultKind::kStuckAt1, 2, 2)});
  SessionConfig cfg;
  cfg.geometry = {8, 8, 1};
  core::TestSession session(cfg);
  session.attach_fault_model(&set);
  const auto result = session.run(march::algorithms::march_c_minus());
  EXPECT_GT(result.mismatches, 0u);
  EXPECT_GT(set.mismatches_of(0), 0u);
  EXPECT_GT(set.mismatches_of(1), 0u);
  EXPECT_EQ(set.mismatches_of(0) + set.mismatches_of(1), result.mismatches);
  EXPECT_EQ(set.unattributed(), 0u);
}

// --- batched campaign parity -------------------------------------------------

void expect_reports_identical(const CampaignReport& per_fault,
                              const CampaignReport& batched,
                              const std::string& where) {
  ASSERT_EQ(per_fault.entries.size(), batched.entries.size()) << where;
  for (std::size_t i = 0; i < per_fault.entries.size(); ++i) {
    const auto& a = per_fault.entries[i];
    const auto& b = batched.entries[i];
    EXPECT_EQ(a.spec.kind, b.spec.kind) << where << " entry " << i;
    EXPECT_TRUE(a.spec.victim == b.spec.victim) << where << " entry " << i;
    EXPECT_EQ(a.detected_functional, b.detected_functional)
        << where << ": " << a.spec.describe();
    EXPECT_EQ(a.detected_low_power, b.detected_low_power)
        << where << ": " << a.spec.describe();
    EXPECT_EQ(a.mismatches_functional, b.mismatches_functional)
        << where << ": " << a.spec.describe();
    EXPECT_EQ(a.mismatches_low_power, b.mismatches_low_power)
        << where << ": " << a.spec.describe();
  }
}

// The correctness anchor: identical verdicts on the expanded standard
// library, across algorithms (with and without pauses) and geometries
// (including the awkward 33x17), with the batched path running a fraction
// of the sessions.
TEST(BatchedCampaign, VerdictParityWithPerFaultPath) {
  const CampaignRunner per_fault(CampaignRunner::Options{});
  CampaignRunner::Options opts;
  opts.batched = true;
  const CampaignRunner batched(opts);

  for (const sram::Geometry geometry :
       {sram::Geometry{8, 8, 1}, sram::Geometry{33, 17, 1}}) {
    SessionConfig cfg;
    cfg.geometry = geometry;
    const auto library = faults::standard_fault_library(geometry, 11);
    for (const auto& test :
         {march::algorithms::march_c_minus(), march::algorithms::march_ss(),
          march::algorithms::march_g_with_delays()}) {
      const std::string where = std::to_string(geometry.rows) + "x" +
                                std::to_string(geometry.cols) + " " +
                                test.name();
      const auto a = per_fault.run(cfg, test, library);
      const auto b = batched.run(cfg, test, library);
      expect_reports_identical(a, b, where);
      EXPECT_EQ(a.session_pairs, library.size()) << where;
      EXPECT_LT(b.session_pairs, library.size()) << where;
      EXPECT_GT(b.batch_sessions, 0u) << where;
    }
  }
}

// Word-oriented arrays read whole groups per cycle; attribution must split
// a word mismatch between the members owning each bad bit.
TEST(BatchedCampaign, VerdictParityOnWordOrientedArrays) {
  SessionConfig cfg;
  cfg.geometry = {16, 32, 4};
  const auto library = faults::standard_fault_library(cfg.geometry, 19);
  const auto test = march::algorithms::march_c_minus();
  const auto a = CampaignRunner(CampaignRunner::Options{}).run(
      cfg, test, library);
  CampaignRunner::Options opts;
  opts.batched = true;
  const auto b = CampaignRunner(opts).run(cfg, test, library);
  expect_reports_identical(a, b, "16x32 w4");
  EXPECT_LT(b.session_pairs, a.session_pairs);
}

// The attribution channel is engine-agnostic: the per-column reference
// engine must produce the same batched report as the bitsliced default.
TEST(BatchedCampaign, VerdictParityAcrossColumnEngines) {
  SessionConfig cfg;
  cfg.geometry = {8, 8, 1};
  const auto library = faults::standard_fault_library(cfg.geometry, 11);
  const auto test = march::algorithms::march_c_minus();
  CampaignRunner::Options opts;
  opts.batched = true;
  const auto fast = CampaignRunner(opts).run(cfg, test, library);
  cfg.column_model = sram::ColumnModel::kPerColumnReference;
  const auto ref = CampaignRunner(opts).run(cfg, test, library);
  expect_reports_identical(ref, fast, "reference engine");
  EXPECT_EQ(ref.session_pairs, fast.session_pairs);
}

// With the Fig. 7 restore disabled, faulty swaps spread per-fault data
// corruption across rows and batch members would interact: the runner must
// fall back to one session pair per fault (and therefore stay identical).
TEST(BatchedCampaign, RestoreDisabledFallsBackToPerFault) {
  SessionConfig cfg;
  cfg.geometry = {8, 8, 1};
  cfg.row_transition_restore = false;
  const auto library = faults::standard_fault_library(cfg.geometry, 11);
  const auto test = march::algorithms::march_c_minus();
  CampaignRunner::Options opts;
  opts.batched = true;
  const auto b = CampaignRunner(opts).run(cfg, test, library);
  EXPECT_EQ(b.session_pairs, library.size());
  EXPECT_EQ(b.batch_sessions, 0u);
  const auto a = CampaignRunner(CampaignRunner::Options{}).run(
      cfg, test, library);
  expect_reports_identical(a, b, "restore-off");
}

// The service's steal cut (dist::lease_units) leases each plan_batches
// batch as one unit, and the worker runs a unit through run_subset, which
// re-plans it.  Across generated libraries every batch unit must come back
// as exactly one session pair with the whole run's verdicts — the 1:1
// shard-to-session-pair mapping the batch cut is for.
TEST(BatchedCampaign, LeasedBatchUnitRunsAsOneSessionPair) {
  CampaignRunner::Options opts;
  opts.batched = true;
  const CampaignRunner runner(opts);
  const auto test = march::algorithms::march_c_minus();
  for (const sram::Geometry& geometry :
       {sram::Geometry{8, 8, 1}, sram::Geometry{33, 17, 1},
        sram::Geometry{32, 32, 1}})
    for (const std::uint64_t seed : {5u, 13u}) {
      dist::JobSpec job;
      job.kind = dist::JobSpec::Kind::kCampaign;
      job.config.geometry = geometry;
      job.test = test;
      job.faults = faults::standard_fault_library(geometry, seed, 8);
      std::vector<std::size_t> all(job.faults.size());
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
      dist::LeaseCut cut;
      const auto units = dist::lease_units(job, all, 4, &cut);
      ASSERT_GT(cut.batches, 0u);
      const CampaignReport whole = runner.run(job.config, test, job.faults);
      for (std::size_t u = 0; u < cut.batches; ++u) {
        std::vector<FaultSpec> members;
        for (const std::size_t i : units[u]) members.push_back(job.faults[i]);
        const CampaignReport alone = runner.run(job.config, test, members);
        EXPECT_EQ(alone.session_pairs, 1u) << "unit " << u;
        EXPECT_EQ(alone.batch_sessions, 1u) << "unit " << u;
        CampaignReport slots;
        for (const std::size_t i : units[u])
          slots.entries.push_back(whole.entries[i]);
        expect_reports_identical(slots, alone,
                                 "unit " + std::to_string(u) + " seed " +
                                     std::to_string(seed));
      }
    }
}

// --- row-cone oracle ---------------------------------------------------------

/// A random fault list over every kind; dRDF, the one fault that reads
/// the global operation history, is drawn one time in three.  Victims sit
/// on any cell, on the order's first or last address (where element
/// boundaries put write-then-read pairs), or on the first or last word of
/// a row (where a cone without the edge rows would move those pairs).
/// Coupling aggressors are any other cell, usually on another row.
std::vector<FaultSpec> random_faults(const sram::Geometry& geometry,
                                     const march::AddressOrder& order,
                                     util::Rng& rng, std::size_t count) {
  const auto cell_of = [&](std::size_t row, std::size_t group) {
    return sram::CellCoord{row, group * geometry.word_width +
                                    rng.next_below(geometry.word_width)};
  };
  const auto victim = [&]() {
    switch (rng.next_below(3)) {
      case 0: {
        const march::Address a = order.at(
            rng.next_bool() ? 0 : order.size() - 1, march::Direction::kUp);
        return cell_of(a.row, a.col);
      }
      case 1:
        return cell_of(rng.next_below(geometry.rows),
                       rng.next_bool() ? 0 : geometry.col_groups() - 1);
      default:
        return sram::CellCoord{rng.next_below(geometry.rows),
                               rng.next_below(geometry.cols)};
    }
  };
  const auto any_cell = [&]() {
    return sram::CellCoord{rng.next_below(geometry.rows),
                           rng.next_below(geometry.cols)};
  };
  std::vector<FaultSpec> faults;
  for (std::size_t i = 0; i < count; ++i) {
    FaultSpec f;
    f.kind = rng.next_below(3) == 0
                 ? FaultKind::kDynamicReadDestructive
                 : static_cast<FaultKind>(rng.next_below(
                       static_cast<std::uint64_t>(FaultKind::kDataRetention) +
                       1));
    f.victim = victim();
    if (faults::is_coupling(f.kind)) {
      do {
        f.aggressor = any_cell();
      } while (f.aggressor == f.victim);
      f.aggressor_up = rng.next_bool();
      f.aggressor_state = rng.next_bool();
      f.forced_value = rng.next_bool();
    }
    if (f.kind == FaultKind::kResSensitive)
      f.res_threshold = 3.0 * static_cast<double>(geometry.cols);
    if (f.kind == FaultKind::kDataRetention) {
      f.forced_value = rng.next_bool();
      f.retention_idle_cycles = march::kDefaultPauseCycles * 3 / 4;
    }
    faults.push_back(f);
  }
  return faults;
}

/// Store a member's mismatch count of one mode run into @p entry.
void record(CampaignEntry* entry, const FaultSpec& spec, sram::Mode mode,
            std::uint64_t mismatches) {
  entry->spec = spec;
  if (mode == sram::Mode::kFunctional) {
    entry->detected_functional = mismatches > 0;
    entry->mismatches_functional = mismatches;
  } else {
    entry->detected_low_power = mismatches > 0;
    entry->mismatches_low_power = mismatches;
  }
}

/// The whole-array reference of a campaign: every session through the
/// public TestSession::run (no row mask), grouped exactly as the runner
/// groups them — per fault, or per plan_batches batch in a BatchFaultSet
/// (batching needs the restore; without it the runner goes per fault).
CampaignReport whole_array_campaign(const SessionConfig& config,
                                    const march::MarchTest& test,
                                    const std::vector<FaultSpec>& faults,
                                    bool batched) {
  faults::BatchPlan plan;
  if (batched && config.row_transition_restore)
    plan = faults::plan_batches(faults);
  else
    for (std::size_t i = 0; i < faults.size(); ++i) plan.fallback.push_back(i);
  CampaignReport report;
  report.entries.resize(faults.size());
  for (const sram::Mode mode :
       {sram::Mode::kFunctional, sram::Mode::kLowPowerTest}) {
    SessionConfig cfg = config;
    cfg.mode = mode;
    for (const auto& members : plan.batches) {
      std::vector<FaultSpec> specs;
      for (const std::size_t m : members) specs.push_back(faults[m]);
      faults::BatchFaultSet set(specs);
      core::TestSession session(cfg);
      session.attach_fault_model(&set);
      session.run(test);
      EXPECT_EQ(set.unattributed(), 0u);
      for (std::size_t j = 0; j < members.size(); ++j)
        record(&report.entries[members[j]], faults[members[j]], mode,
               set.mismatches_of(j));
    }
    for (const std::size_t i : plan.fallback) {
      faults::FaultSet set({faults[i]});
      core::TestSession session(cfg);
      session.attach_fault_model(&set);
      record(&report.entries[i], faults[i], mode,
             session.run(test).mismatches);
    }
  }
  return report;
}

// The cone oracle: generated fault lists x {functional, low power} x
// orders {word-line-after-word-line, fast-row, pseudo-random} x w {1, 4,
// 8} x backgrounds x both column engines x restore on/off, per-fault and
// batched.  Every entry must equal the whole-array reference, and the
// cone must actually shrink restore-on sessions and keep every row
// without the restore.
TEST(ConeOracle, CampaignEntriesEqualTheWholeArrayRun) {
  const std::vector<march::MarchTest> tests = {
      march::algorithms::mats_plus(), march::algorithms::march_c_minus(),
      march::algorithms::march_ss(), march::algorithms::march_g_with_delays()};
  util::Rng rng(2023);
  std::size_t cases = 0;
  std::size_t skipped_rows = 0;
  for (const std::size_t w : {1u, 4u, 8u})
    for (const int order_kind : {0, 1, 2})
      for (const sram::DataBackground background :
           {sram::DataBackground::solid0(),
            sram::DataBackground::checkerboard()})
        for (const sram::ColumnModel model :
             {sram::ColumnModel::kBitslicedCohort,
              sram::ColumnModel::kPerColumnReference})
          for (const bool restore : {true, false}) {
            SessionConfig cfg;
            cfg.geometry = {12 + rng.next_below(13), 24, w};
            const std::size_t rows = cfg.geometry.rows;
            const std::size_t groups = cfg.geometry.col_groups();
            if (order_kind == 1)
              cfg.order = march::AddressOrder::fast_row(rows, groups);
            else if (order_kind == 2)
              cfg.order = march::AddressOrder::pseudo_random(
                  rows, groups, rng.next_u64());
            cfg.background = background;
            cfg.column_model = model;
            cfg.row_transition_restore = restore;
            const march::AddressOrder order =
                cfg.order ? *cfg.order
                          : march::AddressOrder::word_line_after_word_line(
                                rows, groups);
            const auto faults =
                random_faults(cfg.geometry, order, rng, 3 + rng.next_below(6));
            const march::MarchTest& test = tests[rng.next_below(tests.size())];
            const std::string where =
                test.name() + " " + std::to_string(rows) + "x24 w" +
                std::to_string(w) + " order " + std::to_string(order_kind) +
                (restore ? " restore" : " no-restore") +
                (model == sram::ColumnModel::kPerColumnReference ? " ref"
                                                                 : "");
            for (const bool batched : {false, true}) {
              CampaignRunner::Options opts;
              opts.threads = 1;
              opts.batched = batched;
              const CampaignReport cone =
                  CampaignRunner(opts).run(cfg, test, faults);
              expect_reports_identical(
                  whole_array_campaign(cfg, test, faults, batched), cone,
                  where + (batched ? " batched" : " per-fault"));
              EXPECT_EQ(cone.array_rows, 2 * cone.session_pairs * rows)
                  << where;
              if (restore)
                EXPECT_LE(cone.rows_simulated, cone.array_rows) << where;
              else
                EXPECT_EQ(cone.rows_simulated, cone.array_rows) << where;
              skipped_rows += cone.array_rows - cone.rows_simulated;
            }
            ++cases;
          }
  EXPECT_EQ(cases, 72u);
  EXPECT_GT(skipped_rows, 0u);
}

/// Mismatches of one @p mode run of @p test with @p fault attached, on the
/// rows of @p rows only (every row when empty).
std::uint64_t masked_mismatches(const SessionConfig& config,
                                const march::MarchTest& test,
                                const FaultSpec& fault,
                                const std::vector<std::size_t>& rows) {
  std::vector<bool> mask;
  if (!rows.empty()) {
    mask.assign(config.geometry.rows, false);
    for (const std::size_t r : rows) mask[r] = true;
  }
  faults::FaultSet set({fault});
  core::TestSession session(config);
  session.attach_fault_model(&set);
  engine::CycleAccurateBackend backend(session.array(), std::move(mask));
  return session.run(test, backend).mismatches;
}

// Mutation check: the cone keeps the rows of the order's first and last
// address because a write-then-read pair crosses element boundaries there.
// MATS+ misses dRDF at (64,127) of a 128x128 array; a cone that drops the
// last row moves the ⇑(r0,w1);⇓(r1,w0) boundary onto (64,127) and reports
// a detection the whole array never sees.
TEST(ConeOracle, DroppingTheLastRowFakesADynamicReadDestructiveDetection) {
  const auto test = march::algorithms::mats_plus();
  const FaultSpec drdf = at(FaultKind::kDynamicReadDestructive, 64, 127);
  for (const sram::Mode mode :
       {sram::Mode::kFunctional, sram::Mode::kLowPowerTest}) {
    SessionConfig cfg;
    cfg.geometry = {128, 128, 1};
    cfg.mode = mode;
    EXPECT_EQ(masked_mismatches(cfg, test, drdf, {}), 0u);
    EXPECT_EQ(masked_mismatches(cfg, test, drdf, {0, 64, 127}), 0u);
    EXPECT_GT(masked_mismatches(cfg, test, drdf, {0, 64}), 0u);
  }
}

// Mutation check: a coupling fault's aggressor row belongs to the cone.
// Without it the aggressor never switches, so March C- no longer sees the
// inversion its transitions cause on the victim.
TEST(ConeOracle, DroppingAnAggressorRowChangesTheCouplingVerdict) {
  const auto test = march::algorithms::march_c_minus();
  FaultSpec cfin = at(FaultKind::kCouplingInversion, 5, 3);
  cfin.aggressor = {9, 3};
  for (const sram::Mode mode :
       {sram::Mode::kFunctional, sram::Mode::kLowPowerTest}) {
    SessionConfig cfg;
    cfg.geometry = {16, 16, 1};
    cfg.mode = mode;
    const std::uint64_t whole = masked_mismatches(cfg, test, cfin, {});
    EXPECT_GT(whole, 0u);
    EXPECT_EQ(masked_mismatches(cfg, test, cfin, {0, 5, 9, 15}), whole);
    EXPECT_EQ(masked_mismatches(cfg, test, cfin, {0, 5, 15}), 0u);
  }
}

}  // namespace
