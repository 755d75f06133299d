// Tests of the execution-engine layer: CommandStream sequencing
// invariants, cycle-accurate vs analytic backend parity across a
// geometry/mode grid, backend fault-capability enforcement, the detection
// cap, and the parallel CampaignRunner's bit-identical agreement with the
// serial path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/fault_campaign.h"
#include "core/session.h"
#include "core/sweep.h"
#include "engine/analytic_backend.h"
#include "engine/command_stream.h"
#include "engine/cycle_accurate_backend.h"
#include "engine/parallel.h"
#include "faults/models.h"
#include "march/algorithms.h"
#include "util/error.h"

namespace {

using namespace sramlp;
using core::SessionConfig;
using core::TestSession;
using engine::CommandStream;
using engine::StreamOptions;
using engine::StreamStep;
using sram::Mode;

SessionConfig make_config(Mode mode, std::size_t rows, std::size_t cols,
                          std::size_t word_width = 1) {
  SessionConfig cfg;
  cfg.geometry = {rows, cols, word_width};
  cfg.mode = mode;
  return cfg;
}

// --- CommandStream sequencing -----------------------------------------------

TEST(CommandStream, YieldsOneCyclePerOperationPerAddress) {
  const auto order = march::AddressOrder::word_line_after_word_line(4, 8);
  CommandStream stream(march::algorithms::march_c_minus(), order, {});
  std::uint64_t cycles = 0;
  while (stream.next()) ++cycles;
  EXPECT_EQ(cycles, 10u * 32u);  // 10 ops x 32 addresses
  EXPECT_EQ(stream.total_cycles(), 10u * 32u);
  EXPECT_TRUE(stream.done());
}

TEST(CommandStream, RestoreOnlyOnLastOpBeforeRowChange) {
  const std::size_t rows = 4, cols = 8;
  const auto order = march::AddressOrder::word_line_after_word_line(rows, cols);
  StreamOptions opt;
  opt.low_power = true;
  CommandStream stream(march::algorithms::march_c_minus(), order, opt);

  std::uint64_t restores = 0;
  std::optional<std::size_t> prev_row;
  std::uint64_t transitions = 0;
  bool prev_restore = false;
  while (const auto step = stream.next()) {
    ASSERT_EQ(step->kind, StreamStep::Kind::kCycle);
    const auto& cmd = step->command;
    if (prev_row && *prev_row != cmd.row) {
      ++transitions;
      // Every row hand-over must have been announced by a restore cycle.
      EXPECT_TRUE(prev_restore);
    }
    if (cmd.restore_row_transition) ++restores;
    prev_row = cmd.row;
    prev_restore = cmd.restore_row_transition;
  }
  EXPECT_GT(restores, 0u);
  EXPECT_EQ(restores, transitions);
}

TEST(CommandStream, FunctionalScheduleNeverRestores) {
  const auto order = march::AddressOrder::word_line_after_word_line(4, 8);
  CommandStream stream(march::algorithms::march_c_minus(), order, {});
  while (const auto step = stream.next())
    EXPECT_FALSE(step->command.restore_row_transition);
}

TEST(CommandStream, PauseElementsSurfaceAsIdleBlocks) {
  const auto order = march::AddressOrder::word_line_after_word_line(2, 4);
  StreamOptions opt;
  opt.low_power = true;
  CommandStream stream(march::algorithms::march_g_with_delays(), order, opt);
  std::uint64_t idle = 0, cycles = 0;
  bool restore_before_pause = false;
  bool prev_restore = false;
  while (const auto step = stream.next()) {
    if (step->kind == StreamStep::Kind::kIdle) {
      idle += step->idle_cycles;
      // Bit-lines must not sit discharged through an idle window.
      if (prev_restore) restore_before_pause = true;
    } else {
      ++cycles;
      prev_restore = step->command.restore_row_transition;
    }
  }
  EXPECT_EQ(idle, 2u * march::kDefaultPauseCycles);
  EXPECT_EQ(cycles, 23u * 8u);
  EXPECT_TRUE(restore_before_pause);
  EXPECT_EQ(stream.total_cycles(), idle + cycles);
}

TEST(CommandStream, ResetRewindsToFirstStep) {
  const auto order = march::AddressOrder::word_line_after_word_line(2, 4);
  CommandStream stream(march::algorithms::mats_plus(), order, {});
  const StreamStep first = *stream.peek();
  stream.next();
  stream.next();
  stream.reset();
  ASSERT_NE(stream.peek(), nullptr);
  EXPECT_EQ(stream.peek()->command.row, first.command.row);
  EXPECT_EQ(stream.peek()->command.col_group, first.command.col_group);
  EXPECT_EQ(stream.peek()->element, first.element);
}

TEST(CommandStream, LowPowerScheduleRequiresWlawlOrder) {
  const auto order = march::AddressOrder::fast_row(4, 4);
  StreamOptions opt;
  opt.low_power = true;
  EXPECT_THROW(CommandStream(march::algorithms::mats(), order, opt), Error);
}

// --- backend parity -----------------------------------------------------------

// The §5 closed-form backend must agree with the cycle-accurate simulator
// on fault-free energy-per-cycle and PRR across a geometry/mode grid (the
// sim adds only partial-decay effects near row boundaries).
TEST(AnalyticBackend, ParityWithCycleAccurateAcrossGrid) {
  for (const auto& test :
       {march::algorithms::mats_plus(), march::algorithms::march_c_minus()}) {
    for (const std::size_t rows : {8u, 16u}) {
      for (const std::size_t cols : {32u, 64u, 128u}) {
        SessionConfig cfg = make_config(Mode::kFunctional, rows, cols);
        const auto sim = TestSession::compare_modes(cfg, test);
        const auto ana = TestSession::compare_modes_analytic(cfg, test);
        const std::string where =
            test.name() + " " + std::to_string(rows) + "x" +
            std::to_string(cols);

        EXPECT_EQ(ana.functional.cycles, sim.functional.cycles) << where;
        EXPECT_EQ(ana.low_power.cycles, sim.low_power.cycles) << where;
        EXPECT_NEAR(ana.functional.energy_per_cycle_j,
                    sim.functional.energy_per_cycle_j,
                    1e-3 * sim.functional.energy_per_cycle_j)
            << where;
        EXPECT_NEAR(ana.low_power.energy_per_cycle_j,
                    sim.low_power.energy_per_cycle_j,
                    2e-2 * sim.low_power.energy_per_cycle_j)
            << where;
        EXPECT_NEAR(ana.prr, sim.prr, 0.02) << where;
      }
    }
  }
}

// The closed-form per-element expectation (AnalyticBackend's trace) must
// tie out against the measured per-element attribution of a traced
// cycle-accurate run: identical cycle boundaries, energies within the
// model's usual accuracy.
TEST(AnalyticBackend, PerElementTraceParityWithCycleAccurate) {
  SessionConfig cfg = make_config(Mode::kFunctional, 16, 64);
  cfg.trace = power::TraceConfig{.window_cycles = 64};
  const auto test = march::algorithms::march_c_minus();
  const auto sim = TestSession::compare_modes(cfg, test);
  const auto ana = TestSession::compare_modes_analytic(cfg, test);

  const auto compare_leg = [&](const core::SessionResult& s,
                               const core::SessionResult& a,
                               double tolerance, const std::string& where) {
    ASSERT_TRUE(s.trace.has_value()) << where;
    ASSERT_TRUE(a.trace.has_value()) << where;
    ASSERT_EQ(a.trace->elements.size(), s.trace->elements.size()) << where;
    ASSERT_EQ(a.trace->elements.size(), test.elements().size()) << where;
    for (std::size_t e = 0; e < s.trace->elements.size(); ++e) {
      const auto& se = s.trace->elements[e];
      const auto& ae = a.trace->elements[e];
      EXPECT_EQ(ae.element, se.element) << where << " element " << e;
      EXPECT_EQ(ae.start_cycle, se.start_cycle) << where << " element " << e;
      EXPECT_EQ(ae.cycles, se.cycles) << where << " element " << e;
      EXPECT_NEAR(ae.supply_energy_j, se.supply_energy_j,
                  tolerance * se.supply_energy_j)
          << where << " element " << e;
    }
    EXPECT_EQ(a.trace->total_cycles, s.trace->total_cycles) << where;
  };
  // Per-element rates separate the read/write op mixes the whole-run
  // averages blur, so the functional legs agree tightly; the LP legs add
  // the same decay second-order effects as the aggregate parity above.
  compare_leg(sim.functional, ana.functional, 1e-2, "functional");
  compare_leg(sim.low_power, ana.low_power, 5e-2, "low power");
}

TEST(AnalyticBackend, WordOrientedParity) {
  SessionConfig cfg = make_config(Mode::kFunctional, 8, 128, 4);
  const auto test = march::algorithms::march_c_minus();
  const auto sim = TestSession::compare_modes(cfg, test);
  const auto ana = TestSession::compare_modes_analytic(cfg, test);
  EXPECT_NEAR(ana.functional.energy_per_cycle_j,
              sim.functional.energy_per_cycle_j,
              1e-3 * sim.functional.energy_per_cycle_j);
  EXPECT_NEAR(ana.prr, sim.prr, 0.03);
}

TEST(AnalyticBackend, AccountsForPauseCycles) {
  SessionConfig cfg = make_config(Mode::kLowPowerTest, 4, 8);
  const auto test = march::algorithms::march_g_with_delays();

  TestSession sim_session(cfg);
  const auto sim = sim_session.run(test);

  TestSession ana_session(cfg);
  engine::AnalyticBackend backend(cfg.tech, cfg.geometry);
  const auto ana = ana_session.run(test, backend);

  EXPECT_EQ(ana.cycles, sim.cycles);
  // Idle cycles burn only clock + control energy in both backends.
  EXPECT_NEAR(ana.supply_energy_j, sim.supply_energy_j,
              2e-2 * sim.supply_energy_j);
}

// Disabling the Fig. 7 restore changes the energy (and triggers faulty
// swaps) in ways the closed form does not model — the backend must refuse
// rather than silently overstate PLPT.
TEST(AnalyticBackend, RefusesRestoreDisabledLowPowerRuns) {
  SessionConfig cfg = make_config(Mode::kLowPowerTest, 8, 8);
  cfg.row_transition_restore = false;
  TestSession session(cfg);
  engine::AnalyticBackend backend(cfg.tech, cfg.geometry);
  EXPECT_THROW(session.run(march::algorithms::mats_plus(), backend), Error);
  // Functional mode never restores; the flag is irrelevant there.
  SessionConfig fcfg = make_config(Mode::kFunctional, 8, 8);
  fcfg.row_transition_restore = false;
  TestSession fsession(fcfg);
  const auto r = fsession.run(march::algorithms::mats_plus(), backend);
  EXPECT_GT(r.supply_energy_j, 0.0);
}

TEST(AnalyticBackend, RefusesSessionsWithFaultModels) {
  SessionConfig cfg = make_config(Mode::kFunctional, 8, 8);
  TestSession session(cfg);
  faults::FaultSet set({faults::FaultSpec{
      .kind = faults::FaultKind::kStuckAt1, .victim = {2, 3}, .aggressor = {}}});
  session.attach_fault_model(&set);
  engine::AnalyticBackend backend(cfg.tech, cfg.geometry);
  EXPECT_THROW(session.run(march::algorithms::march_c_minus(), backend),
               Error);
  // Detaching the model re-enables the fast path.
  session.attach_fault_model(nullptr);
  const auto r = session.run(march::algorithms::march_c_minus(), backend);
  EXPECT_EQ(r.mismatches, 0u);
}

// --- detections ---------------------------------------------------------------

TEST(CycleAccurateBackend, DetectionCapIsHonoured) {
  SessionConfig cfg = make_config(Mode::kFunctional, 8, 8);
  TestSession session(cfg);
  // A full row of stuck-at faults produces far more than the cap.
  std::vector<faults::FaultSpec> specs;
  for (std::size_t col = 0; col < 8; ++col) {
    specs.push_back(faults::FaultSpec{.kind = faults::FaultKind::kStuckAt1,
                                      .victim = {1, col},
                                      .aggressor = {}});
    specs.push_back(faults::FaultSpec{.kind = faults::FaultKind::kStuckAt1,
                                      .victim = {3, col},
                                      .aggressor = {}});
  }
  faults::FaultSet set(specs);
  session.attach_fault_model(&set);
  const auto r = session.run(march::algorithms::march_c_minus());
  EXPECT_GT(r.mismatches, core::kMaxFirstDetections);
  EXPECT_EQ(r.first_detections.size(), core::kMaxFirstDetections);
}

// The backend consumes a stream as runs, which start at address
// boundaries: a stream popped into the middle of an address is refused
// until the address is finished.
TEST(CycleAccurateBackend, RequiresTheStreamAtAnAddressBoundary) {
  SessionConfig cfg = make_config(Mode::kFunctional, 8, 8);
  TestSession session(cfg);
  engine::CommandStream stream =
      session.make_stream(march::algorithms::mats_plus());
  // Past the one-operation first element, onto the r0 of (r0,w1).
  for (std::size_t i = 0; i < 64 + 1; ++i) stream.pop();
  engine::CycleAccurateBackend backend(session.array());
  EXPECT_THROW(backend.run(stream), Error);
  stream.pop();  // the w1: the cursor is on the next address
  const auto r = backend.run(stream);
  EXPECT_EQ(r.cycles, stream.total_cycles() - 64 - 2);
  EXPECT_TRUE(stream.done());
}

// --- campaign runner ----------------------------------------------------------

TEST(CampaignRunner, ParallelReportBitIdenticalToSerial) {
  SessionConfig cfg = make_config(Mode::kFunctional, 8, 8);
  const auto test = march::algorithms::march_c_minus();
  const auto faults = faults::standard_fault_library(cfg.geometry);
  ASSERT_GT(faults.size(), 4u);

  const auto serial =
      core::CampaignRunner(core::CampaignRunner::Options{1}).run(cfg, test,
                                                                 faults);
  const auto parallel =
      core::CampaignRunner(core::CampaignRunner::Options{4}).run(cfg, test,
                                                                 faults);

  ASSERT_EQ(serial.entries.size(), parallel.entries.size());
  for (std::size_t i = 0; i < serial.entries.size(); ++i) {
    const auto& s = serial.entries[i];
    const auto& p = parallel.entries[i];
    EXPECT_EQ(s.spec.kind, p.spec.kind) << i;
    EXPECT_EQ(s.spec.victim.row, p.spec.victim.row) << i;
    EXPECT_EQ(s.spec.victim.col, p.spec.victim.col) << i;
    EXPECT_EQ(s.detected_functional, p.detected_functional) << i;
    EXPECT_EQ(s.detected_low_power, p.detected_low_power) << i;
    EXPECT_EQ(s.mismatches_functional, p.mismatches_functional) << i;
    EXPECT_EQ(s.mismatches_low_power, p.mismatches_low_power) << i;
  }
  EXPECT_EQ(serial.detected_functional(), parallel.detected_functional());
  EXPECT_EQ(serial.detected_low_power(), parallel.detected_low_power());
  EXPECT_EQ(serial.modes_agree(), parallel.modes_agree());
}

// run_subset computes exactly the entries a whole-library run() fills into
// the chosen slots — the property the distributed worker stands on.
TEST(CampaignRunner, RunSubsetMatchesWholeLibrarySlots) {
  SessionConfig cfg = make_config(Mode::kFunctional, 8, 8);
  const auto test = march::algorithms::march_c_minus();
  const auto faults = faults::standard_fault_library(cfg.geometry);
  const core::CampaignRunner runner;
  const auto whole = runner.run(cfg, test, faults);
  const std::vector<std::size_t> subset = {faults.size() - 1, 0, 3};
  const auto entries = runner.run_subset(cfg, test, faults, subset);
  ASSERT_EQ(entries.size(), subset.size());
  for (std::size_t j = 0; j < subset.size(); ++j) {
    const auto& a = entries[j];
    const auto& b = whole.entries[subset[j]];
    EXPECT_EQ(a.spec.kind, b.spec.kind) << j;
    EXPECT_TRUE(a.spec.victim == b.spec.victim) << j;
    EXPECT_EQ(a.detected_functional, b.detected_functional) << j;
    EXPECT_EQ(a.detected_low_power, b.detected_low_power) << j;
    EXPECT_EQ(a.mismatches_functional, b.mismatches_functional) << j;
    EXPECT_EQ(a.mismatches_low_power, b.mismatches_low_power) << j;
  }
  EXPECT_THROW(runner.run_subset(cfg, test, faults, {faults.size()}), Error);
}

TEST(CampaignRunner, MatchesLegacyEntryPoint) {
  SessionConfig cfg = make_config(Mode::kFunctional, 4, 8);
  const auto test = march::algorithms::mats_plus();
  std::vector<faults::FaultSpec> faults = {
      faults::FaultSpec{.kind = faults::FaultKind::kStuckAt0,
                        .victim = {1, 2},
                        .aggressor = {}},
      faults::FaultSpec{.kind = faults::FaultKind::kStuckAt1,
                        .victim = {3, 5},
                        .aggressor = {}},
  };
  const auto a = core::run_fault_campaign(cfg, test, faults);
  const auto b =
      core::CampaignRunner(core::CampaignRunner::Options{2}).run(cfg, test,
                                                                 faults);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].detected_functional,
              b.entries[i].detected_functional);
    EXPECT_EQ(a.entries[i].mismatches_functional,
              b.entries[i].mismatches_functional);
  }
}

// --- parallel_for edge cases --------------------------------------------------

TEST(ParallelFor, ResolveThreadCountNeverReturnsZero) {
  // A hardware_concurrency() == 0 host resolves "0 = one per hardware
  // thread" to 1 instead of 0; the explicit-count path clamps the same way.
  EXPECT_GE(engine::resolve_thread_count(0, 100), 1u);
  EXPECT_EQ(engine::resolve_thread_count(1, 100), 1u);
  // Never more workers than jobs...
  EXPECT_EQ(engine::resolve_thread_count(8, 3), 3u);
  EXPECT_EQ(engine::resolve_thread_count(8, 1), 1u);
  // ...and zero jobs still resolves to one worker, not zero (both for an
  // explicit request and for the hardware default).
  EXPECT_EQ(engine::resolve_thread_count(5, 0), 1u);
  EXPECT_EQ(engine::resolve_thread_count(0, 0), 1u);
}

TEST(ParallelFor, FirstExceptionIsRethrownOnTheCaller) {
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      engine::parallel_for(64, 4,
                           [&](std::size_t i) {
                             executed.fetch_add(1);
                             if (i == 5) throw std::runtime_error("boom");
                           }),
      std::runtime_error);
  EXPECT_GE(executed.load(), 1u);
}

TEST(ParallelFor, ExceptionCancelsRemainingWork) {
  // The failure flag stops workers from pulling new indices: with far more
  // jobs than threads, most of the queue must never run once job 0 throws.
  const std::size_t jobs = 100000;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      engine::parallel_for(jobs, 4,
                           [&](std::size_t i) {
                             executed.fetch_add(1);
                             if (i == 0) throw Error("cancel");
                             // Uncancelled, the queue takes >= 0.3 s.  A
                             // first throw (unwind-table lookup) or a
                             // descheduled worker holding index 0 takes
                             // far less, but long enough for instant jobs
                             // to drain the whole queue before the flag.
                             std::this_thread::sleep_for(
                                 std::chrono::microseconds(10));
                           }),
      Error);
  EXPECT_LT(executed.load(), jobs);
}

TEST(ParallelFor, SerialPathAlsoCancelsAndRethrows) {
  std::size_t executed = 0;
  EXPECT_THROW(engine::parallel_for(100, 1,
                                    [&](std::size_t i) {
                                      ++executed;
                                      if (i == 3) throw Error("stop");
                                    }),
               Error);
  EXPECT_EQ(executed, 4u);
}

// The grid guarantee at an awkward size: a ragged grid built around the
// 33x17 geometry (point count not divisible by the worker count) comes out
// bit-identical at threads = 1 and threads = 8, every field.
TEST(ParallelFor, SweepResultsBitIdenticalAcrossThreadCounts) {
  core::SweepGrid grid;
  grid.geometries = {{33, 17, 1}, {17, 33, 1}, {9, 40, 1}};
  grid.backgrounds = {sram::DataBackground::solid0(),
                      sram::DataBackground::row_stripes()};
  grid.algorithms = {march::algorithms::mats_plus(),
                     march::algorithms::march_c_minus()};
  // Cycle-accurate everywhere so the comparison covers the simulator, not
  // just the closed form.
  const auto serial =
      core::SweepRunner({1, core::BackendChoice::kCycleAccurate}).run(grid);
  const auto parallel =
      core::SweepRunner({8, core::BackendChoice::kCycleAccurate}).run(grid);
  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(serial[i].index, parallel[i].index) << i;
    EXPECT_EQ(serial[i].backend, parallel[i].backend) << i;
    EXPECT_EQ(serial[i].prr.prr, parallel[i].prr.prr) << i;
    const auto expect_identical = [i](const core::SessionResult& a,
                                      const core::SessionResult& b) {
      EXPECT_EQ(a.cycles, b.cycles) << i;
      EXPECT_EQ(a.supply_energy_j, b.supply_energy_j) << i;
      EXPECT_EQ(a.energy_per_cycle_j, b.energy_per_cycle_j) << i;
      EXPECT_EQ(a.mismatches, b.mismatches) << i;
      for (std::size_t s = 0; s < power::kEnergySourceCount; ++s) {
        const auto source = static_cast<power::EnergySource>(s);
        EXPECT_EQ(a.meter.total(source), b.meter.total(source))
            << i << " source " << power::to_string(source);
      }
    };
    expect_identical(serial[i].prr.functional, parallel[i].prr.functional);
    expect_identical(serial[i].prr.low_power, parallel[i].prr.low_power);
  }
}

// --- session/backend integration ---------------------------------------------

// The session's default path and an explicitly constructed cycle-accurate
// backend over the same array are the same thing.
TEST(CycleAccurateBackend, ExplicitBackendMatchesDefaultRun) {
  const auto test = march::algorithms::march_sr();
  SessionConfig cfg = make_config(Mode::kLowPowerTest, 8, 8);

  TestSession a(cfg);
  const auto ra = a.run(test);

  TestSession b(cfg);
  engine::CycleAccurateBackend backend(b.array());
  const auto rb = b.run(test, backend);

  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_DOUBLE_EQ(ra.supply_energy_j, rb.supply_energy_j);
  EXPECT_EQ(ra.stats.restore_cycles, rb.stats.restore_cycles);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_EQ(a.array().peek(r, c), b.array().peek(r, c));
}

}  // namespace
