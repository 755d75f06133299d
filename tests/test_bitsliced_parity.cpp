// Bit-exact parity between the two SramArray column engines: the default
// bitsliced/decay-cohort fast path must reproduce the per-column reference
// engine to the last bit — supply energy, every per-source meter total,
// ArrayStats, detections, faulty swaps and cell contents — across
// functional, low-power, restore-disabled and single-fault runs, on square
// and awkward (non-square, non-power-of-two, word-oriented) geometries.
// Also covers the backend's runs (StreamRun / execute_run) against a
// per-step drive of the same stream, non-word-line orders (one-address
// runs), seeded random drives through cycle() and execute_run, traced runs
// repeated on one session, the lazy column state surviving
// reset_measurements(), and generated fault-free functional sessions —
// whose runs advance all but their last address in one step — untraced
// and traced at windows from 1 cycle to 8x the word count.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "engine/command_stream.h"
#include "faults/models.h"
#include "march/algorithms.h"
#include "march/parser.h"
#include "power/energy_source.h"
#include "power/trace.h"
#include "sram/array.h"
#include "util/rng.h"

namespace {

using namespace sramlp;
using core::SessionConfig;
using core::SessionResult;
using core::TestSession;
using sram::ColumnModel;
using sram::CycleCommand;
using sram::Mode;
using sram::SramArray;
using sram::SramConfig;

void expect_meters_identical(const power::EnergyMeter& a,
                             const power::EnergyMeter& b,
                             const std::string& where) {
  EXPECT_EQ(a.cycles(), b.cycles()) << where;
  for (std::size_t i = 0; i < power::kEnergySourceCount; ++i) {
    const auto source = static_cast<power::EnergySource>(i);
    EXPECT_EQ(a.total(source), b.total(source))
        << where << " source=" << power::to_string(source);
  }
  EXPECT_EQ(a.supply_total(), b.supply_total()) << where;
}

void expect_stats_identical(const sram::ArrayStats& a,
                            const sram::ArrayStats& b,
                            const std::string& where) {
  EXPECT_EQ(a.cycles, b.cycles) << where;
  EXPECT_EQ(a.reads, b.reads) << where;
  EXPECT_EQ(a.writes, b.writes) << where;
  EXPECT_EQ(a.read_mismatches, b.read_mismatches) << where;
  EXPECT_EQ(a.faulty_swaps, b.faulty_swaps) << where;
  EXPECT_EQ(a.row_transitions, b.row_transitions) << where;
  EXPECT_EQ(a.restore_cycles, b.restore_cycles) << where;
  EXPECT_EQ(a.full_res_column_cycles, b.full_res_column_cycles) << where;
  EXPECT_EQ(a.decay_stress_equiv_post_op, b.decay_stress_equiv_post_op)
      << where;
  EXPECT_EQ(a.decay_stress_equiv_pre_op, b.decay_stress_equiv_pre_op)
      << where;
}

void expect_results_identical(const SessionResult& ref,
                              const SessionResult& fast,
                              const std::string& where) {
  EXPECT_EQ(ref.cycles, fast.cycles) << where;
  EXPECT_EQ(ref.supply_energy_j, fast.supply_energy_j) << where;
  EXPECT_EQ(ref.energy_per_cycle_j, fast.energy_per_cycle_j) << where;
  EXPECT_EQ(ref.mismatches, fast.mismatches) << where;
  expect_meters_identical(ref.meter, fast.meter, where);
  expect_stats_identical(ref.stats, fast.stats, where);
  ASSERT_EQ(ref.first_detections.size(), fast.first_detections.size())
      << where;
  for (std::size_t i = 0; i < ref.first_detections.size(); ++i) {
    EXPECT_EQ(ref.first_detections[i].element,
              fast.first_detections[i].element)
        << where << " det " << i;
    EXPECT_EQ(ref.first_detections[i].op, fast.first_detections[i].op)
        << where << " det " << i;
    EXPECT_EQ(ref.first_detections[i].row, fast.first_detections[i].row)
        << where << " det " << i;
    EXPECT_EQ(ref.first_detections[i].col_group,
              fast.first_detections[i].col_group)
        << where << " det " << i;
    EXPECT_EQ(ref.first_detections[i].col, fast.first_detections[i].col)
        << where << " det " << i;
  }
}

void expect_traces_identical(const power::TraceSummary& a,
                             const power::TraceSummary& b,
                             const std::string& where) {
  EXPECT_EQ(a.window_cycles, b.window_cycles) << where;
  EXPECT_EQ(a.total_cycles, b.total_cycles) << where;
  EXPECT_EQ(a.windows, b.windows) << where;
  EXPECT_EQ(a.peak_window, b.peak_window) << where;
  EXPECT_EQ(a.peak_window_energy_j, b.peak_window_energy_j) << where;
  EXPECT_EQ(a.peak_power_w, b.peak_power_w) << where;
  EXPECT_EQ(a.supply_energy_j, b.supply_energy_j) << where;
  EXPECT_EQ(a.average_power_w, b.average_power_w) << where;
  ASSERT_EQ(a.elements.size(), b.elements.size()) << where;
  for (std::size_t e = 0; e < a.elements.size(); ++e) {
    EXPECT_EQ(a.elements[e].element, b.elements[e].element) << where;
    EXPECT_EQ(a.elements[e].start_cycle, b.elements[e].start_cycle) << where;
    EXPECT_EQ(a.elements[e].cycles, b.elements[e].cycles) << where;
    EXPECT_EQ(a.elements[e].supply_energy_j, b.elements[e].supply_energy_j)
        << where << " element " << e;
    EXPECT_EQ(a.elements[e].precharge_energy_j,
              b.elements[e].precharge_energy_j)
        << where << " element " << e;
  }
  EXPECT_EQ(a.window_supply_j, b.window_supply_j) << where;
}

/// Run @p test under both column engines and require bit-exact agreement,
/// including final cell contents (and traces, when the config asks for
/// one).
void expect_session_parity_specs(SessionConfig config,
                                 const march::MarchTest& test,
                                 const std::vector<faults::FaultSpec>& specs,
                                 const std::string& where) {
  SessionResult results[2];
  std::vector<bool> cells[2];
  for (int m = 0; m < 2; ++m) {
    config.column_model = m == 0 ? ColumnModel::kPerColumnReference
                                 : ColumnModel::kBitslicedCohort;
    TestSession session(config);
    faults::FaultSet set(specs);
    if (!specs.empty()) session.attach_fault_model(&set);
    results[m] = session.run(test);
    for (std::size_t r = 0; r < config.geometry.rows; ++r)
      for (std::size_t c = 0; c < config.geometry.cols; ++c)
        cells[m].push_back(session.array().peek(r, c));
  }
  expect_results_identical(results[0], results[1], where);
  EXPECT_EQ(cells[0], cells[1]) << where << " (cell contents)";
  ASSERT_EQ(results[0].trace.has_value(), results[1].trace.has_value())
      << where;
  if (results[0].trace)
    expect_traces_identical(*results[0].trace, *results[1].trace, where);
}

void expect_session_parity(const SessionConfig& config,
                           const march::MarchTest& test,
                           const faults::FaultSpec* fault,
                           const std::string& where) {
  std::vector<faults::FaultSpec> specs;
  if (fault != nullptr) specs.push_back(*fault);
  expect_session_parity_specs(config, test, specs, where);
}

SessionConfig grid_config(Mode mode, std::size_t rows, std::size_t cols,
                          std::size_t word_width = 1) {
  SessionConfig cfg;
  cfg.geometry = {rows, cols, word_width};
  cfg.mode = mode;
  return cfg;
}

// --- fault-free parity across modes, geometries, backgrounds ----------------

TEST(BitslicedParity, FaultFreeAcrossModesAndAwkwardGeometries) {
  // Non-square, non-power-of-two and word-oriented organisations exercise
  // the packing and cohort math off the easy 512x512 path.
  struct Geo {
    std::size_t rows, cols, w;
  };
  const Geo geos[] = {{8, 8, 1}, {48, 96, 1}, {33, 17, 1}, {16, 96, 4}};
  for (const auto& test :
       {march::algorithms::mats_plus(), march::algorithms::march_c_minus()}) {
    for (const Geo& geo : geos) {
      for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
        SessionConfig cfg = grid_config(mode, geo.rows, geo.cols, geo.w);
        const std::string where =
            test.name() + " " + std::to_string(geo.rows) + "x" +
            std::to_string(geo.cols) + "/w" + std::to_string(geo.w) +
            (mode == Mode::kFunctional ? " F" : " LP");
        expect_session_parity(cfg, test, nullptr, where);
      }
    }
  }
}

TEST(BitslicedParity, PaperWidthRowsWithDeepDecay) {
  // 512-column rows push pre-op decay thousands of cycles deep (the decay
  // factor underflows to exactly 0.0 past ~e^-700) and exercise the memo
  // cap; a reduced row count keeps the reference engine affordable.
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    SessionConfig cfg = grid_config(mode, 8, 512);
    expect_session_parity(cfg, march::algorithms::march_c_minus(), nullptr,
                          mode == Mode::kFunctional ? "8x512 F" : "8x512 LP");
  }
}

TEST(BitslicedParity, BackgroundsAndInvertedData) {
  const auto test = march::algorithms::march_c_minus();
  for (const auto kind : sram::DataBackground::kinds()) {
    SessionConfig cfg = grid_config(Mode::kLowPowerTest, 12, 24);
    cfg.background = sram::DataBackground(kind);
    expect_session_parity(cfg, test, nullptr,
                          "background " + cfg.background.name());
  }
  SessionConfig cfg = grid_config(Mode::kLowPowerTest, 12, 24);
  cfg.invert_background = true;
  expect_session_parity(cfg, test, nullptr, "inverted background");
}

TEST(BitslicedParity, DelayElementsAndIdleWindows) {
  SessionConfig cfg = grid_config(Mode::kLowPowerTest, 6, 16);
  expect_session_parity(cfg, march::algorithms::march_g_with_delays(),
                        nullptr, "march G with delays");
  // Without the restore, a pause freezes partially decayed columns; the
  // next element's first whole-row run must see them as materialized.
  cfg.row_transition_restore = false;
  expect_session_parity(cfg, march::algorithms::march_g_with_delays(),
                        nullptr, "march G with delays, restore-disabled");
}

// --- generated fault-free functional sessions --------------------------------

/// A random March test in notation, through march::parse_march: an
/// initialising write, then 2-4 elements of 1-5 operations.  Reads expect
/// the value the previous operation left — except, now and then, the
/// opposite one, so some runs read a mismatch and take the loop.
march::MarchTest generated_march(util::Rng& rng, int index) {
  const char dirs[] = {'U', 'D', 'B'};
  bool value = rng.next_bool();
  std::string notation = std::string("{ B(w") + (value ? "1" : "0") + ")";
  const std::size_t elements = 2 + rng.next_below(3);
  for (std::size_t e = 0; e < elements; ++e) {
    notation += std::string("; ") + dirs[rng.next_below(3)] + "(";
    const std::size_t ops = 1 + rng.next_below(5);
    for (std::size_t o = 0; o < ops; ++o) {
      if (o != 0) notation += ",";
      if (rng.next_below(3) == 0) {
        value = rng.next_bool();
        notation += value ? "w1" : "w0";
      } else {
        const bool expect = rng.next_below(12) == 0 ? !value : value;
        notation += expect ? "r1" : "r0";
      }
    }
    notation += ")";
  }
  notation += " }";
  return march::parse_march("generated " + std::to_string(index), notation);
}

TEST(BitslicedParity, GeneratedFunctionalSessionsMatchTheReference) {
  struct Geo {
    std::size_t rows, cols, w;
  };
  // Runs shorter than 64 cycles stay in the loop (40x24/w8 always, the
  // others with few operations per address).  6x320 rows run up to 1,600
  // cycles: trace windows of 700 cycles then split addresses inside
  // stretches too long to add one by one.
  const Geo geos[] = {{33, 17, 1}, {16, 96, 4}, {9, 640, 8}, {40, 24, 8},
                      {6, 320, 1}};
  const auto kinds = sram::DataBackground::kinds();
  util::Rng rng(0xF00D);
  for (int i = 0; i < 40; ++i) {
    const march::MarchTest test = generated_march(rng, i);
    const Geo& geo = geos[i % 5];
    SessionConfig cfg = grid_config(Mode::kFunctional, geo.rows, geo.cols,
                                    geo.w);
    cfg.background = sram::DataBackground(kinds[i % kinds.size()]);
    cfg.row_transition_restore = (i / 5) % 2 == 0;
    const std::uint64_t words = cfg.geometry.words();
    for (const std::uint64_t window :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
          std::uint64_t{256}, std::uint64_t{700}, 8 * words}) {
      if (window == 0)
        cfg.trace.reset();
      else
        cfg.trace = power::TraceConfig{.window_cycles = window,
                                       .keep_windows = true};
      expect_session_parity(
          cfg, test, nullptr,
          test.name() + " " + std::to_string(geo.rows) + "x" +
              std::to_string(geo.cols) + "/w" + std::to_string(geo.w) + " " +
              cfg.background.name() +
              (cfg.row_transition_restore ? "" : " no-restore") +
              " window " + std::to_string(window));
      if (HasFailure()) return;
    }
  }
}

// A corrupted cell on a row the fault model leaves unhooked: the run's
// one-step interior must see the mismatch and hand the whole run to the
// loop, which attributes it (with and without a model attached).
TEST(BitslicedParity, CorruptedCellOnAnUnhookedRowTakesTheLoop) {
  const auto test = march::parse_march("no init", "{ U(r0,w1); D(r1,r1,w0) }");
  for (const bool with_model : {false, true}) {
    for (const bool traced : {false, true}) {
      SessionConfig cfg = grid_config(Mode::kFunctional, 8, 512, 4);
      if (traced)
        cfg.trace = power::TraceConfig{.window_cycles = 16,
                                       .keep_windows = true};
      const std::string where = std::string(with_model ? "model" : "none") +
                                (traced ? " traced" : "");
      SessionResult results[2];
      std::vector<bool> cells[2];
      for (int m = 0; m < 2; ++m) {
        cfg.column_model = m == 0 ? ColumnModel::kPerColumnReference
                                  : ColumnModel::kBitslicedCohort;
        TestSession session(cfg);
        faults::FaultSet set({{.kind = faults::FaultKind::kStuckAt1,
                               .victim = {2, 9}}});
        if (with_model) {
          session.attach_fault_model(&set);
          ASSERT_TRUE(set.relevant_rows().has_value()) << where;
        }
        session.array().poke(5, 13, true);  // row 5 is not a hooked row
        results[m] = session.run(test);
        for (std::size_t r = 0; r < 8; ++r)
          for (std::size_t c = 0; c < 512; ++c)
            cells[m].push_back(session.array().peek(r, c));
      }
      EXPECT_GT(results[1].mismatches, 0u) << where;
      expect_results_identical(results[0], results[1], where);
      EXPECT_EQ(cells[0], cells[1]) << where << " (cell contents)";
      if (traced)
        expect_traces_identical(*results[0].trace, *results[1].trace, where);
    }
  }
}

// --- restore-disabled (faulty-swap) parity ----------------------------------

TEST(BitslicedParity, RestoreDisabledReproducesFaultySwapsExactly) {
  for (const auto& geo : {std::pair<std::size_t, std::size_t>{8, 32},
                          std::pair<std::size_t, std::size_t>{33, 17}}) {
    SessionConfig cfg = grid_config(Mode::kLowPowerTest, geo.first,
                                    geo.second);
    cfg.row_transition_restore = false;
    expect_session_parity(cfg, march::algorithms::mats_plus(), nullptr,
                          "restore-disabled " + std::to_string(geo.first) +
                              "x" + std::to_string(geo.second));
  }
}

// --- single-fault parity ------------------------------------------------------

TEST(BitslicedParity, SingleFaultRunsAcrossKinds) {
  const auto test = march::algorithms::march_sr();
  const faults::FaultSpec specs[] = {
      {.kind = faults::FaultKind::kStuckAt1, .victim = {3, 5}},
      {.kind = faults::FaultKind::kTransitionUp, .victim = {7, 0}},
      {.kind = faults::FaultKind::kReadDestructive, .victim = {1, 14}},
      {.kind = faults::FaultKind::kCouplingInversion,
       .victim = {2, 9},
       .aggressor = {5, 4}},
      {.kind = faults::FaultKind::kResSensitive,
       .victim = {4, 11},
       .res_threshold = 12.0},
  };
  for (const auto& spec : specs) {
    for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
      SessionConfig cfg = grid_config(mode, 12, 20);
      expect_session_parity(cfg, test, &spec,
                            spec.describe() +
                                (mode == Mode::kFunctional ? " F" : " LP"));
    }
  }
}

// Dynamic write-then-read faults force relevant_rows() to nullopt (the
// global write-history tracking matters everywhere), so every row must
// keep per-cell hooks — the all-rows-hooked path of the batch executor.
TEST(BitslicedParity, DynamicFaultDisablesRowSparseHooks) {
  const faults::FaultSpec spec{
      .kind = faults::FaultKind::kDynamicReadDestructive, .victim = {5, 7}};
  faults::FaultSet set({spec});
  ASSERT_FALSE(set.relevant_rows().has_value());
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    SessionConfig cfg = grid_config(mode, 12, 20);
    // March SR contains the w,r pair that sensitises dRDF.
    expect_session_parity(cfg, march::algorithms::march_sr(), &spec,
                          mode == Mode::kFunctional ? "dRDF F" : "dRDF LP");
  }
}

// A mixed set: row-sparse hooks must cover the union of victim and
// aggressor rows, and the cohort math must survive several models at once.
TEST(BitslicedParity, MixedFaultSetUnionOfRelevantRows) {
  const std::vector<faults::FaultSpec> specs = {
      {.kind = faults::FaultKind::kStuckAt0, .victim = {1, 2}},
      {.kind = faults::FaultKind::kCouplingIdempotent,
       .victim = {9, 15},
       .aggressor = {3, 4},
       .aggressor_up = true,
       .forced_value = true},
      {.kind = faults::FaultKind::kResSensitive,
       .victim = {6, 10},
       .res_threshold = 10.0},
  };
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    SessionConfig cfg = grid_config(mode, 12, 20);
    expect_session_parity_specs(cfg, march::algorithms::march_c_minus(),
                                specs,
                                mode == Mode::kFunctional ? "mixed F"
                                                          : "mixed LP");
  }
}

TEST(BitslicedParity, DataRetentionFaultThroughDelays) {
  const faults::FaultSpec spec{.kind = faults::FaultKind::kDataRetention,
                               .victim = {2, 3},
                               .forced_value = true,
                               .retention_idle_cycles = 900};
  SessionConfig cfg = grid_config(Mode::kLowPowerTest, 4, 8);
  expect_session_parity(cfg, march::algorithms::march_g_with_delays(), &spec,
                        "data retention");
}

// --- non-word-line orders: one-address runs ---------------------------------

// Orders other than word-line-after-word-line run one address at a time,
// each address carrying its element's whole operation list.  They are
// functional-mode orders (a low-power request falls back), with and
// without faults and a trace.
TEST(BitslicedParity, NonWordLineOrdersMatchTheReference) {
  const std::size_t rows = 12, cols = 20;
  const std::vector<faults::FaultSpec> fault_sets[] = {
      {},
      {{.kind = faults::FaultKind::kStuckAt1, .victim = {3, 5}},
       {.kind = faults::FaultKind::kResSensitive,
        .victim = {6, 10},
        .res_threshold = 10.0}},
  };
  const std::pair<const char*, march::AddressOrder> orders[] = {
      {"fast-row", march::AddressOrder::fast_row(rows, cols)},
      {"pseudo-random", march::AddressOrder::pseudo_random(rows, cols, 7)},
      {"gray-code", march::AddressOrder::gray_code(rows, cols)},
      {"address-complement",
       march::AddressOrder::address_complement(rows, cols)},
  };
  for (const auto& [name, order] : orders) {
    for (std::size_t f = 0; f < 2; ++f) {
      for (const bool traced : {false, true}) {
        SessionConfig cfg = grid_config(Mode::kFunctional, rows, cols);
        cfg.order = order;
        if (traced)
          cfg.trace = power::TraceConfig{.window_cycles = 16,
                                         .keep_windows = true};
        expect_session_parity_specs(
            cfg, march::algorithms::march_c_minus(), fault_sets[f],
            std::string(name) + (f == 0 ? "" : " faulty") +
                (traced ? " traced" : ""));
      }
    }
  }
}

// --- backend runs vs a per-step drive of the same stream --------------------

/// The session's stream driven one step at a time — peek(), then cycle()
/// or idle() — with a requested trace wired as the backend wires it: the
/// per-step reference for the backend's run loop.
SessionResult run_per_step(TestSession& session, const march::MarchTest& test) {
  SramArray& array = session.array();
  engine::CommandStream stream = session.make_stream(test);
  array.reset_measurements();
  std::optional<power::PowerTrace> trace;
  if (stream.options().trace) {
    trace.emplace(*stream.options().trace, array.config().tech.clock_period);
    array.meter().attach_sink(&*trace);
  }
  SessionResult result;
  while (const engine::StreamStep* step = stream.peek()) {
    if (trace) trace->begin_element(step->element, array.meter().cycles());
    if (step->kind == engine::StreamStep::Kind::kIdle) {
      array.idle(step->idle_cycles);
    } else {
      const sram::CycleResult r = array.cycle(step->command);
      if (step->command.is_read && r.mismatch) {
        ++result.mismatches;
        if (result.first_detections.size() < core::kMaxFirstDetections)
          result.first_detections.push_back(
              {step->element, step->op, step->command.row,
               step->command.col_group, r.first_bad_col});
      }
    }
    stream.pop();
  }
  if (trace) {
    result.trace = trace->summarize(array.meter().cycles());
    array.meter().attach_sink(nullptr);
  }
  result.cycles = array.meter().cycles();
  result.supply_energy_j = array.meter().supply_total();
  result.energy_per_cycle_j = array.meter().supply_per_cycle();
  result.meter = array.meter();
  result.stats = array.stats();
  return result;
}

TEST(BitslicedParity, BatchedRunsMatchPerStepExecution) {
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    SessionConfig cfg = grid_config(mode, 24, 48);
    const auto test = march::algorithms::march_c_minus();

    TestSession per_step_session(cfg);
    const auto a = run_per_step(per_step_session, test);

    TestSession batched_session(cfg);
    const auto b = batched_session.run(test);

    expect_results_identical(a, b, mode == Mode::kFunctional
                                       ? "batched F"
                                       : "batched LP");
  }
}

/// Every run peek_run() describes must expand to exactly the steps a
/// second copy of the stream yields one at a time: the same addresses in
/// scan order, the element's operation list at each, and the restore on
/// the run's last operation only.
void expect_runs_expand_to_steps(engine::CommandStream runs,
                                 engine::CommandStream steps,
                                 const std::string& where) {
  while (!runs.done()) {
    engine::StreamRun run;
    if (!runs.peek_run(&run)) {
      const auto pause = runs.next();
      const auto step = steps.next();
      ASSERT_TRUE(step.has_value()) << where;
      EXPECT_EQ(pause->kind, engine::StreamStep::Kind::kIdle) << where;
      EXPECT_EQ(step->kind, engine::StreamStep::Kind::kIdle) << where;
      EXPECT_EQ(pause->idle_cycles, step->idle_cycles) << where;
      continue;
    }
    const auto& ops = runs.test().elements()[run.element].ops;
    for (std::size_t k = 0; k < run.group_count; ++k) {
      const std::size_t group =
          run.descending ? run.first_group - k : run.first_group + k;
      for (std::size_t o = 0; o < ops.size(); ++o) {
        const auto step = steps.next();
        const std::string at = where + " element " +
                               std::to_string(run.element) + " row " +
                               std::to_string(run.row) + " group " +
                               std::to_string(group) + " op " +
                               std::to_string(o);
        ASSERT_TRUE(step.has_value()) << at;
        ASSERT_EQ(step->kind, engine::StreamStep::Kind::kCycle) << at;
        EXPECT_EQ(step->element, run.element) << at;
        EXPECT_EQ(step->op, o) << at;
        EXPECT_EQ(step->command.row, run.row) << at;
        EXPECT_EQ(step->command.col_group, group) << at;
        EXPECT_EQ(step->command.scan, run.scan) << at;
        EXPECT_EQ(step->command.is_read, march::is_read(ops[o])) << at;
        EXPECT_EQ(step->command.value, march::value_of(ops[o])) << at;
        EXPECT_EQ(step->command.restore_row_transition,
                  run.restore_last && k + 1 == run.group_count &&
                      o + 1 == ops.size())
            << at;
        if (::testing::Test::HasFailure()) return;
      }
    }
    runs.skip_run(run);
  }
  EXPECT_TRUE(steps.done()) << where;
}

// Generated over every order DOF-1 allows besides word-line-after-word-
// line, clean and faulty, untraced and traced, bit- and word-oriented:
// the backend's one-address runs expand to the stream's steps, and the
// session matches the per-step drive bit for bit (energy, statistics,
// detections, trace, cell contents).  Low power is requested and falls
// back (paper §4); March G with delays adds multi-operation elements and
// idle blocks.
TEST(BitslicedParity, GeneratedNonWordLineRunsMatchPerStepDrive) {
  const std::size_t rows = 12, cols = 20;
  const auto test = march::algorithms::march_g_with_delays();
  const std::vector<faults::FaultSpec> fault_sets[] = {
      {},
      {{.kind = faults::FaultKind::kStuckAt1, .victim = {3, 5}},
       {.kind = faults::FaultKind::kResSensitive,
        .victim = {6, 10},
        .res_threshold = 10.0}},
  };
  for (const std::size_t w : {std::size_t{1}, std::size_t{4}}) {
    const std::size_t groups = cols / w;
    const std::pair<const char*, march::AddressOrder> orders[] = {
        {"fast-row", march::AddressOrder::fast_row(rows, groups)},
        {"pseudo-random",
         march::AddressOrder::pseudo_random(rows, groups, 7)},
        {"gray-code", march::AddressOrder::gray_code(rows, groups)},
        {"address-complement",
         march::AddressOrder::address_complement(rows, groups)},
    };
    for (const auto& [name, order] : orders) {
      for (std::size_t f = 0; f < 2; ++f) {
        for (const bool traced : {false, true}) {
          SessionConfig cfg = grid_config(Mode::kLowPowerTest, rows, cols, w);
          cfg.order = order;
          if (traced)
            cfg.trace = power::TraceConfig{.window_cycles = 16,
                                           .keep_windows = true};
          const std::string where = std::string(name) + " w" +
                                    std::to_string(w) +
                                    (f == 0 ? "" : " faulty") +
                                    (traced ? " traced" : "");
          {
            const TestSession probe(cfg);
            expect_runs_expand_to_steps(probe.make_stream(test),
                                        probe.make_stream(test), where);
          }
          SessionResult res[2];
          std::vector<bool> cells[2];
          for (int p = 0; p < 2; ++p) {
            TestSession session(cfg);
            faults::FaultSet set(fault_sets[f]);
            if (!fault_sets[f].empty()) session.attach_fault_model(&set);
            res[p] = p == 0 ? run_per_step(session, test) : session.run(test);
            for (std::size_t r = 0; r < rows; ++r)
              for (std::size_t c = 0; c < cols; ++c)
                cells[p].push_back(session.array().peek(r, c));
          }
          EXPECT_TRUE(res[1].fell_back_to_functional) << where;
          expect_results_identical(res[0], res[1], where);
          EXPECT_EQ(cells[0], cells[1]) << where << " (cell contents)";
          ASSERT_EQ(res[0].trace.has_value(), traced) << where;
          ASSERT_EQ(res[1].trace.has_value(), traced) << where;
          if (traced) expect_traces_identical(*res[0].trace, *res[1].trace,
                                              where);
          if (HasFailure()) return;
        }
      }
    }
  }
}

// --- direct-drive parity (arbitrary command sequences) ------------------------

TEST(BitslicedParity, DirectDriveWithSwapsIdleAndModeSwitch) {
  const std::size_t rows = 4, cols = 24;
  SramConfig base;
  base.geometry = {rows, cols, 1};
  base.mode = Mode::kLowPowerTest;
  SramConfig ref_cfg = base;
  ref_cfg.column_model = ColumnModel::kPerColumnReference;
  SramConfig fast_cfg = base;
  fast_cfg.column_model = ColumnModel::kBitslicedCohort;
  SramArray ref(ref_cfg), fast(fast_cfg);

  const auto drive = [&](SramArray& a) {
    // Row 1 holds the complement of what row 0 drives -> swaps on entry.
    for (std::size_t c = 0; c < cols; ++c) a.poke(1, c, false);
    CycleCommand cmd;
    for (std::size_t c = 0; c < cols; ++c) {
      cmd.row = 0;
      cmd.col_group = c;
      cmd.is_read = false;
      cmd.value = true;
      a.cycle(cmd);
    }
    // Hop to row 1 without restore: the swap hazard fires.
    cmd.row = 1;
    cmd.col_group = 0;
    cmd.is_read = true;
    cmd.value = false;
    a.cycle(cmd);
    // Partial column walk, an idle window, then a row re-entry.
    for (std::size_t c = 1; c < 9; ++c) {
      cmd.col_group = c;
      cmd.is_read = (c % 2) == 0;
      cmd.value = (c % 3) == 0;
      a.cycle(cmd);
    }
    a.idle(40);
    cmd.row = 2;
    for (std::size_t c = 0; c < cols; ++c) {
      cmd.col_group = c;
      cmd.is_read = false;
      cmd.value = (c % 2) != 0;
      cmd.restore_row_transition = c == cols - 1;
      a.cycle(cmd);
    }
    cmd.restore_row_transition = false;
    // Descending scan across a fresh row.
    cmd.row = 3;
    cmd.scan = sram::Scan::kDescending;
    for (std::size_t c = cols; c-- > 0;) {
      cmd.col_group = c;
      cmd.is_read = false;
      cmd.value = true;
      a.cycle(cmd);
    }
    // Mode switch keeps data and resets bit-lines identically.
    a.set_mode(Mode::kFunctional);
    cmd.scan = sram::Scan::kAscending;
    for (std::size_t c = 0; c < cols; ++c) {
      cmd.row = 1;
      cmd.col_group = c;
      cmd.is_read = true;
      cmd.value = true;
      a.cycle(cmd);
    }
  };
  drive(ref);
  drive(fast);

  expect_meters_identical(ref.meter(), fast.meter(), "direct drive");
  expect_stats_identical(ref.stats(), fast.stats(), "direct drive");
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      EXPECT_EQ(ref.peek(r, c), fast.peek(r, c)) << r << "," << c;
  for (std::size_t c = 0; c < cols; ++c) {
    EXPECT_EQ(ref.bitline_low_side_voltage(c),
              fast.bitline_low_side_voltage(c))
        << "column " << c;
    EXPECT_EQ(ref.precharge_was_active(c), fast.precharge_was_active(c))
        << "column " << c;
  }
}

// --- generated cycle() sequences ---------------------------------------------

/// Every observable of two identically driven arrays: meters, statistics,
/// cell contents and the per-column diagnostics.
void expect_arrays_identical(const SramArray& ref, const SramArray& fast,
                             const std::string& where) {
  expect_meters_identical(ref.meter(), fast.meter(), where);
  expect_stats_identical(ref.stats(), fast.stats(), where);
  const sram::Geometry& g = ref.geometry();
  for (std::size_t r = 0; r < g.rows; ++r)
    for (std::size_t c = 0; c < g.cols; ++c)
      if (ref.peek(r, c) != fast.peek(r, c)) {
        ADD_FAILURE() << where << " cell " << r << "," << c;
        return;
      }
  for (std::size_t c = 0; c < g.cols; ++c) {
    EXPECT_EQ(ref.bitline_low_side_voltage(c),
              fast.bitline_low_side_voltage(c))
        << where << " column " << c;
    EXPECT_EQ(ref.precharge_was_active(c), fast.precharge_was_active(c))
        << where << " column " << c;
  }
}

// Seeded random drives within cycle()'s contract: rows walked in scan
// order (whole or partial, either direction, 1-3 operations per address,
// random data and backgrounds), the row-transition restore issued or
// omitted (omissions swap cells), interleaved with idle windows, mode
// switches and measurement resets.  Both engines must agree after every
// step.  Some walks go through execute_run as one batch instead, so the
// whole-row paths start from states cycle() left.  The geometries include
// two-group arrays (the fewest groups Geometry accepts) and words wider
// than 64 bits.
TEST(BitslicedParity, GeneratedCycleSequencesMatchTheReference) {
  struct Geo {
    std::size_t rows, cols, w;
  };
  const Geo geos[] = {
      {6, 24, 1}, {5, 32, 4}, {4, 8, 4}, {3, 260, 130}, {2, 192, 96}};
  for (const Geo& geo : geos) {
    for (const bool faulty : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::string where_run =
            std::to_string(geo.rows) + "x" + std::to_string(geo.cols) +
            "/w" + std::to_string(geo.w) + (faulty ? " faulty" : "") +
            " seed " + std::to_string(seed);
        SramConfig base;
        base.geometry = {geo.rows, geo.cols, geo.w};
        base.mode = seed % 2 == 0 ? Mode::kFunctional : Mode::kLowPowerTest;
        SramConfig ref_cfg = base;
        ref_cfg.column_model = ColumnModel::kPerColumnReference;
        SramArray ref(ref_cfg), fast(base);
        const std::vector<faults::FaultSpec> specs = {
            {.kind = faults::FaultKind::kStuckAt1, .victim = {geo.rows / 2, 1}},
            {.kind = faults::FaultKind::kResSensitive,
             .victim = {geo.rows - 1, geo.cols - 1},
             .res_threshold = 10.0},
        };
        faults::FaultSet ref_faults(specs), fast_faults(specs);
        if (faulty) {
          ref.attach_fault_model(&ref_faults);
          fast.attach_fault_model(&fast_faults);
        }
        util::Rng rng(seed * 0x9E3779B97F4A7C15ull + geo.cols);
        for (std::size_t r = 0; r < geo.rows; ++r)
          for (std::size_t c = 0; c < geo.cols; ++c) {
            const bool v = rng.next_bool();
            ref.poke(r, c, v);
            fast.poke(r, c, v);
          }
        const std::size_t groups = geo.cols / geo.w;
        std::size_t step = 0;
        for (int walk = 0; walk < 30; ++walk) {
          switch (rng.next_below(8)) {
            case 0: {
              const std::uint64_t cycles = 1 + rng.next_below(40);
              ref.idle(cycles);
              fast.idle(cycles);
              break;
            }
            case 1: {
              const Mode mode = rng.next_bool() ? Mode::kFunctional
                                                : Mode::kLowPowerTest;
              ref.set_mode(mode);
              fast.set_mode(mode);
              break;
            }
            case 2:
              ref.reset_measurements();
              fast.reset_measurements();
              break;
            default:
              break;
          }
          CycleCommand cmd;
          cmd.row = rng.next_below(geo.rows);
          cmd.scan = rng.next_bool() ? sram::Scan::kAscending
                                     : sram::Scan::kDescending;
          cmd.background = sram::DataBackground(
              sram::DataBackground::kinds()[rng.next_below(5)]);
          const std::size_t count =
              rng.next_below(4) == 0 ? 1 + rng.next_below(groups) : groups;
          const std::size_t ops = 1 + rng.next_below(3);
          const bool restore = rng.next_below(4) != 0;
          if (rng.next_below(4) == 0) {
            // The same walk as one batched run: the fast engine's
            // whole-row paths must see the state cycle() left behind.
            std::vector<sram::RunOp> run_ops;
            for (std::size_t o = 0; o < ops; ++o)
              run_ops.push_back({rng.next_bool(), rng.next_bool()});
            sram::RunCommand rc;
            rc.row = cmd.row;
            rc.descending = cmd.scan == sram::Scan::kDescending;
            rc.first_group = rc.descending ? groups - 1 : 0;
            rc.group_count = count;
            rc.ops = run_ops.data();
            rc.op_count = ops;
            rc.background = cmd.background;
            rc.scan = cmd.scan;
            rc.restore_last = restore;
            const auto a = ref.execute_run(rc);
            const auto b = fast.execute_run(rc);
            const std::string where =
                where_run + " run before step " + std::to_string(step);
            EXPECT_EQ(a.mismatches, b.mismatches) << where;
            EXPECT_EQ(a.faulty_swaps, b.faulty_swaps) << where;
            EXPECT_EQ(a.last_read_value, b.last_read_value) << where;
            ASSERT_EQ(a.detection_count, b.detection_count) << where;
            for (std::size_t i = 0; i < a.detection_count; ++i) {
              EXPECT_EQ(a.detections[i].op, b.detections[i].op) << where;
              EXPECT_EQ(a.detections[i].group, b.detections[i].group)
                  << where;
              EXPECT_EQ(a.detections[i].col, b.detections[i].col) << where;
            }
            expect_arrays_identical(ref, fast, where);
            if (HasFailure()) return;
            continue;
          }
          for (std::size_t k = 0; k < count; ++k) {
            cmd.col_group =
                cmd.scan == sram::Scan::kAscending ? k : groups - 1 - k;
            for (std::size_t o = 0; o < ops; ++o) {
              cmd.is_read = rng.next_bool();
              cmd.value = rng.next_bool();
              cmd.restore_row_transition =
                  restore && k + 1 == count && o + 1 == ops;
              const auto a = ref.cycle(cmd);
              const auto b = fast.cycle(cmd);
              const std::string where =
                  where_run + " step " + std::to_string(step++);
              EXPECT_EQ(a.read_value, b.read_value) << where;
              EXPECT_EQ(a.mismatch, b.mismatch) << where;
              EXPECT_EQ(a.first_bad_col, b.first_bad_col) << where;
              EXPECT_EQ(a.faulty_swaps, b.faulty_swaps) << where;
              expect_arrays_identical(ref, fast, where);
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

// --- probe/sink tracing: totals invariant, traces engine-identical -----------

// Attaching a trace sink must not move a single bit of the scalar totals
// (the bitsliced executor folds the trace's blocks alongside its
// register accumulators — the documented-identical route), and
// the two column engines, which emit the same per-source event sequences
// at the same cycles, must produce bit-identical traces.
TEST(BitslicedParity, TracingKeepsTotalsBitIdenticalAndTracesEngineEqual) {
  struct Case {
    const char* name;
    march::MarchTest test;
    Mode mode;
    bool restore;
  };
  const Case cases[] = {
      {"C- F", march::algorithms::march_c_minus(), Mode::kFunctional, true},
      {"C- LP", march::algorithms::march_c_minus(), Mode::kLowPowerTest,
       true},
      {"C- LP no-restore", march::algorithms::march_c_minus(),
       Mode::kLowPowerTest, false},
      {"G delays LP", march::algorithms::march_g_with_delays(),
       Mode::kLowPowerTest, true},
  };
  for (const Case& c : cases) {
    SessionResult traced[2];
    for (int m = 0; m < 2; ++m) {
      SessionConfig cfg = grid_config(c.mode, 12, 24);
      cfg.row_transition_restore = c.restore;
      cfg.column_model = m == 0 ? ColumnModel::kPerColumnReference
                                : ColumnModel::kBitslicedCohort;
      const SessionResult untraced = TestSession(cfg).run(c.test);
      cfg.trace = power::TraceConfig{.window_cycles = 16,
                                     .keep_windows = true};
      traced[m] = TestSession(cfg).run(c.test);
      const std::string where = std::string(c.name) +
                                (m == 0 ? " ref" : " fast") +
                                " traced-vs-untraced";
      expect_results_identical(untraced, traced[m], where);
      ASSERT_TRUE(traced[m].trace.has_value()) << where;
    }
    expect_results_identical(traced[0], traced[1],
                             std::string(c.name) + " cross-engine");
    expect_traces_identical(*traced[0].trace, *traced[1].trace,
                            std::string(c.name) + " trace");
  }
}

// Rows of 4,096 columns keep a pre-op cohort floating for more than 4,096
// cycles, past the cohort-evaluation memo, so the bitsliced engine
// evaluates the closed form directly; untraced and traced it must still
// match the reference engine bit for bit.  A slow decay keeps the factor
// that far out well above zero (the default tau underflows it to 0.0,
// where every evaluation looks alike).
TEST(BitslicedParity, RowsPastTheCohortMemoCap) {
  const auto test = march::algorithms::march_c_minus();
  SessionConfig cfg = grid_config(Mode::kLowPowerTest, 2, 4096);
  cfg.tech.decay_tau_cycles = 2000.0;
  expect_session_parity(cfg, test, nullptr, "2x4096 LP");
  cfg.trace = power::TraceConfig{.window_cycles = 1024, .keep_windows = true};
  SessionResult traced[2];
  for (int m = 0; m < 2; ++m) {
    cfg.column_model = m == 0 ? ColumnModel::kPerColumnReference
                              : ColumnModel::kBitslicedCohort;
    traced[m] = TestSession(cfg).run(test);
    ASSERT_TRUE(traced[m].trace.has_value());
  }
  expect_results_identical(traced[0], traced[1], "2x4096 LP traced");
  expect_traces_identical(*traced[0].trace, *traced[1].trace,
                          "2x4096 LP trace");
}

// Same invariants with a fault model attached: the hooked per-cell data
// path and the RES-sensitive materialized columns must meter identically
// through the probe.
TEST(BitslicedParity, TracingWithFaultsKeepsTotalsBitIdentical) {
  const std::vector<faults::FaultSpec> specs = {
      {.kind = faults::FaultKind::kStuckAt1, .victim = {3, 5}},
      {.kind = faults::FaultKind::kResSensitive,
       .victim = {6, 10},
       .res_threshold = 10.0},
  };
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    SessionResult traced[2];
    for (int m = 0; m < 2; ++m) {
      SessionConfig cfg = grid_config(mode, 12, 20);
      cfg.column_model = m == 0 ? ColumnModel::kPerColumnReference
                                : ColumnModel::kBitslicedCohort;
      SessionResult untraced;
      {
        TestSession session(cfg);
        faults::FaultSet set(specs);
        session.attach_fault_model(&set);
        untraced = session.run(march::algorithms::march_c_minus());
      }
      cfg.trace = power::TraceConfig{.window_cycles = 16,
                                     .keep_windows = true};
      {
        TestSession session(cfg);
        faults::FaultSet set(specs);
        session.attach_fault_model(&set);
        traced[m] = session.run(march::algorithms::march_c_minus());
      }
      const std::string where = std::string(mode == Mode::kFunctional
                                                ? "faulty F"
                                                : "faulty LP") +
                                (m == 0 ? " ref" : " fast");
      expect_results_identical(untraced, traced[m], where);
    }
    expect_traces_identical(*traced[0].trace, *traced[1].trace,
                            mode == Mode::kFunctional ? "faulty F trace"
                                                      : "faulty LP trace");
  }
}

// The bulk-window traced fast path: a batched traced run folds whole runs
// into the sink's window/element slot blocks; the per-step drive folds one
// cycle at a time.  Same per-slot additions in the same order — totals
// AND trace summaries must match to the bit, across
// awkward geometries, word widths (including multi-word groups), the
// restore-disabled schedule and fault models.
TEST(BitslicedParity, TracedBatchedRunsMatchPerStepExecution) {
  struct Case {
    std::size_t rows, cols, w;
    Mode mode;
    bool restore;
    bool faulty;
  };
  const Case cases[] = {
      {12, 24, 1, Mode::kFunctional, true, false},
      {12, 24, 1, Mode::kLowPowerTest, true, true},
      {33, 17, 1, Mode::kLowPowerTest, true, false},
      {33, 17, 1, Mode::kFunctional, true, true},
      {33, 17, 1, Mode::kLowPowerTest, false, false},
      {48, 96, 4, Mode::kLowPowerTest, true, false},
      {48, 96, 4, Mode::kFunctional, true, false},
      {4, 256, 128, Mode::kLowPowerTest, true, false},
      {4, 256, 128, Mode::kLowPowerTest, false, false},
  };
  const auto test = march::algorithms::march_c_minus();
  for (const Case& c : cases) {
    SessionConfig cfg = grid_config(c.mode, c.rows, c.cols, c.w);
    cfg.row_transition_restore = c.restore;
    cfg.trace = power::TraceConfig{.window_cycles = 48, .keep_windows = true};
    const std::string where =
        std::to_string(c.rows) + "x" + std::to_string(c.cols) + " w" +
        std::to_string(c.w) +
        (c.mode == Mode::kFunctional ? " F" : " LP") +
        (c.restore ? "" : " no-restore") + (c.faulty ? " faulty" : "");
    SessionResult res[2];
    for (int p = 0; p < 2; ++p) {
      TestSession session(cfg);
      faults::FaultSet set({{.kind = faults::FaultKind::kStuckAt1,
                             .victim = {3, 5}}});
      if (c.faulty) session.attach_fault_model(&set);
      res[p] = p == 0 ? run_per_step(session, test) : session.run(test);
    }
    expect_results_identical(res[0], res[1], where);
    ASSERT_TRUE(res[0].trace.has_value() && res[1].trace.has_value())
        << where;
    expect_traces_identical(*res[0].trace, *res[1].trace, where);
  }
}

// Trace windows follow the meter's cycle counter, which every run resets,
// not the array's lifetime clock: a second traced run on the same session
// must produce exactly the first run's trace, like the reference engine.
TEST(BitslicedParity, SecondTracedRunOnOneSessionMatchesTheReference) {
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    SessionResult runs[2][2];  // [engine][run]
    for (int m = 0; m < 2; ++m) {
      SessionConfig cfg = grid_config(mode, 12, 24);
      cfg.column_model = m == 0 ? ColumnModel::kPerColumnReference
                                : ColumnModel::kBitslicedCohort;
      cfg.trace = power::TraceConfig{.window_cycles = 16,
                                     .keep_windows = true};
      TestSession session(cfg);
      for (int r = 0; r < 2; ++r)
        runs[m][r] = session.run(march::algorithms::march_c_minus());
    }
    for (int r = 0; r < 2; ++r) {
      const std::string where = std::string(mode == Mode::kFunctional
                                                ? "F"
                                                : "LP") +
                                " run " + std::to_string(r);
      expect_results_identical(runs[0][r], runs[1][r], where);
      ASSERT_TRUE(runs[0][r].trace && runs[1][r].trace) << where;
      expect_traces_identical(*runs[0][r].trace, *runs[1][r].trace, where);
    }
  }
}

// --- reset_measurements is measurement-only -----------------------------------

TEST(BitslicedParity, ResetMeasurementsPreservesLazyColumnState) {
  SramConfig cfg;
  cfg.geometry = {2, 16, 1};
  cfg.mode = Mode::kLowPowerTest;
  SramArray a(cfg);
  CycleCommand cmd;
  cmd.is_read = false;
  cmd.value = true;
  for (std::size_t c = 0; c < 8; ++c) {
    cmd.col_group = c;
    a.cycle(cmd);
  }
  // Columns 0..6 are decaying cohorts now; snapshot their voltages.
  std::vector<double> before;
  for (std::size_t c = 0; c < 16; ++c)
    before.push_back(a.bitline_low_side_voltage(c));
  EXPECT_LT(before[0], cfg.tech.vdd);

  a.reset_measurements();
  EXPECT_EQ(a.meter().supply_total(), 0.0);
  EXPECT_EQ(a.stats().cycles, 0u);
  for (std::size_t c = 0; c < 16; ++c)
    EXPECT_EQ(a.bitline_low_side_voltage(c), before[c]) << "column " << c;

  // The swap hazard still sees the pre-reset decay: entering row 1 with
  // opposing data must swap exactly as it would have without the reset.
  for (std::size_t c = 0; c < 16; ++c) a.poke(1, c, false);
  cmd.row = 1;
  cmd.col_group = 0;
  cmd.is_read = true;
  cmd.value = false;
  const auto r = a.cycle(cmd);
  EXPECT_GT(r.faulty_swaps, 0u);
}

}  // namespace
