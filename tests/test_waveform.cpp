// WaveformWriter: the per-cycle energy export sink.
//  * Attaching one must not move a bit of the run's totals (every event
//    still passes through EnergyMeter::add).
//  * Records reconstruct the run: per-run supply sums match the meter
//    total (up to summation order), runs split automatically when the
//    meter's cycle counter restarts, idle blocks stay single records.
//  * CSV and JSONL formats, and the tee with a PowerTrace — the trace
//    summary must stay bit-identical with the waveform attached.
//  * Both column engines write byte-identical files.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.h"
#include "faults/models.h"
#include "march/algorithms.h"
#include "power/waveform.h"

namespace {

using namespace sramlp;

struct CsvRecord {
  std::uint64_t run = 0;
  std::uint64_t cycle = 0;
  std::uint64_t span = 0;
  double supply_j = 0.0;
};

std::vector<CsvRecord> read_csv(const std::string& path,
                                std::string* header) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::getline(in, *header);
  std::vector<CsvRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    CsvRecord r;
    char comma;
    ls >> r.run >> comma >> r.cycle >> comma >> r.span >> comma >> r.supply_j;
    EXPECT_FALSE(ls.fail()) << line;
    records.push_back(r);
  }
  return records;
}

core::SessionConfig small_lp_config() {
  core::SessionConfig cfg;
  cfg.geometry = {8, 16, 1};
  cfg.mode = sram::Mode::kLowPowerTest;
  return cfg;
}

TEST(Waveform, TotalsUnchangedAndRecordsSumToTheMeter) {
  const auto test = march::algorithms::march_c_minus();
  const auto base = core::TestSession(small_lp_config()).run(test);

  const std::string path = testing::TempDir() + "sramlp_waveform.csv";
  core::SessionResult first, second;
  {
    power::WaveformWriter writer(path, power::WaveformFormat::kCsv);
    core::SessionConfig cfg = small_lp_config();
    cfg.waveform_sink = &writer;
    // Two identical runs on fresh sessions: each resets its meter, so the
    // writer must split them into run ordinals 0 and 1 on its own.
    first = core::TestSession(cfg).run(test);
    second = core::TestSession(cfg).run(test);
    writer.finish();
    EXPECT_GT(writer.records_written(), 0u);
  }
  // Bit-identical totals: the waveform is an observer.
  EXPECT_EQ(first.supply_energy_j, base.supply_energy_j);
  EXPECT_EQ(second.supply_energy_j, base.supply_energy_j);
  EXPECT_EQ(first.cycles, base.cycles);

  std::string header;
  const auto records = read_csv(path, &header);
  EXPECT_EQ(header.rfind("run,cycle,span,supply_j", 0), 0u) << header;
  ASSERT_FALSE(records.empty());
  double sums[2] = {0.0, 0.0};
  std::uint64_t max_run = 0;
  std::uint64_t prev_cycle[2] = {0, 0};
  for (const CsvRecord& r : records) {
    ASSERT_LE(r.run, 1u);
    max_run = std::max(max_run, r.run);
    sums[r.run] += r.supply_j;
    EXPECT_GE(r.span, 1u);
    if (r.cycle != 0) {  // cycles are monotone within a run
      EXPECT_GT(r.cycle, prev_cycle[r.run]);
    }
    prev_cycle[r.run] = r.cycle;
  }
  EXPECT_EQ(max_run, 1u);  // both runs landed, split automatically
  // Same additions in a different order: equal up to rounding.
  EXPECT_NEAR(sums[0], base.supply_energy_j,
              1e-9 * base.supply_energy_j);
  EXPECT_NEAR(sums[1], base.supply_energy_j,
              1e-9 * base.supply_energy_j);
}

TEST(Waveform, IdleBlocksStaySingleSpanRecords) {
  const auto test = march::algorithms::march_g_with_delays();
  const std::string path = testing::TempDir() + "sramlp_waveform_idle.csv";
  {
    power::WaveformWriter writer(path, power::WaveformFormat::kCsv);
    core::SessionConfig cfg = small_lp_config();
    cfg.waveform_sink = &writer;
    core::TestSession(cfg).run(test);
  }
  std::string header;
  const auto records = read_csv(path, &header);
  // March G's Del elements idle for many cycles; they must appear as a
  // few span>1 records, not one record per idle cycle.
  std::uint64_t idle_records = 0, idle_cycles = 0, total_cycles = 0;
  for (const CsvRecord& r : records) {
    total_cycles += r.span;
    if (r.span > 1) {
      ++idle_records;
      idle_cycles += r.span;
    }
  }
  EXPECT_GT(idle_records, 0u);
  EXPECT_GT(idle_cycles, idle_records * 10);
  EXPECT_LT(records.size(), total_cycles);
}

TEST(Waveform, JsonlRecordsAreObjectsPerLine) {
  const auto test = march::algorithms::mats_plus();
  const std::string path = testing::TempDir() + "sramlp_waveform.jsonl";
  std::uint64_t written = 0;
  {
    power::WaveformWriter writer(path, power::WaveformFormat::kJsonl);
    core::SessionConfig cfg = small_lp_config();
    cfg.waveform_sink = &writer;
    core::TestSession(cfg).run(test);
    writer.finish();
    written = writer.records_written();
  }
  std::ifstream in(path);
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"supply_j\":"), std::string::npos);
  }
  EXPECT_EQ(lines, written);
  EXPECT_GT(lines, 0u);
}

TEST(Waveform, TeeWithTraceKeepsTheTraceBitIdentical) {
  const auto test = march::algorithms::march_c_minus();
  core::SessionConfig cfg = small_lp_config();
  cfg.trace = power::TraceConfig{.window_cycles = 32, .keep_windows = true};
  const auto traced_only = core::TestSession(cfg).run(test);
  ASSERT_TRUE(traced_only.trace.has_value());

  const std::string path = testing::TempDir() + "sramlp_waveform_tee.csv";
  std::uint64_t written = 0;
  core::SessionResult both;
  {
    power::WaveformWriter writer(path, power::WaveformFormat::kCsv);
    cfg.waveform_sink = &writer;
    both = core::TestSession(cfg).run(test);
    writer.finish();
    written = writer.records_written();
  }
  EXPECT_GT(written, 0u);
  ASSERT_TRUE(both.trace.has_value());
  EXPECT_EQ(both.supply_energy_j, traced_only.supply_energy_j);
  EXPECT_EQ(both.trace->peak_window_energy_j,
            traced_only.trace->peak_window_energy_j);
  EXPECT_EQ(both.trace->peak_window, traced_only.trace->peak_window);
  EXPECT_EQ(both.trace->window_supply_j, traced_only.trace->window_supply_j);
  ASSERT_EQ(both.trace->elements.size(), traced_only.trace->elements.size());
  for (std::size_t e = 0; e < both.trace->elements.size(); ++e)
    EXPECT_EQ(both.trace->elements[e].supply_energy_j,
              traced_only.trace->elements[e].supply_energy_j)
        << "element " << e;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// The two column engines emit the same per-source events at the same
// cycles, so their waveform files match byte for byte: CSV and JSONL,
// with and without pauses and faults, bit- and word-oriented, and through
// the trace tee (whose trace must match too).
TEST(Waveform, ColumnEnginesWriteIdenticalFiles) {
  const march::MarchTest tests[] = {march::algorithms::march_c_minus(),
                                    march::algorithms::march_g_with_delays()};
  const std::vector<faults::FaultSpec> specs = {
      {.kind = faults::FaultKind::kStuckAt1, .victim = {3, 5}},
      {.kind = faults::FaultKind::kResSensitive,
       .victim = {6, 10},
       .res_threshold = 10.0},
  };
  enum class Sink { kCsv, kJsonl, kTee };
  for (const auto& test : tests) {
    for (const auto mode : {sram::Mode::kFunctional, sram::Mode::kLowPowerTest}) {
      for (const bool faulty : {false, true}) {
        for (const std::size_t w : {std::size_t{1}, std::size_t{4}}) {
          for (const Sink sink : {Sink::kCsv, Sink::kJsonl, Sink::kTee}) {
            const std::string where =
                test.name() +
                (mode == sram::Mode::kFunctional ? " F" : " LP") +
                (faulty ? " faulty" : "") + " w" + std::to_string(w) +
                (sink == Sink::kCsv     ? " csv"
                 : sink == Sink::kJsonl ? " jsonl"
                                        : " tee");
            std::string files[2];
            core::SessionResult results[2];
            for (int m = 0; m < 2; ++m) {
              const std::string path = testing::TempDir() +
                                       "sramlp_waveform_engine" +
                                       std::to_string(m);
              {
                power::WaveformWriter writer(
                    path, sink == Sink::kJsonl ? power::WaveformFormat::kJsonl
                                               : power::WaveformFormat::kCsv);
                core::SessionConfig cfg;
                cfg.geometry = {12, 24, w};
                cfg.mode = mode;
                cfg.column_model = m == 0
                                       ? sram::ColumnModel::kPerColumnReference
                                       : sram::ColumnModel::kBitslicedCohort;
                cfg.waveform_sink = &writer;
                if (sink == Sink::kTee)
                  cfg.trace = power::TraceConfig{.window_cycles = 16,
                                                 .keep_windows = true};
                core::TestSession session(cfg);
                faults::FaultSet set(specs);
                if (faulty) session.attach_fault_model(&set);
                results[m] = session.run(test);
              }
              files[m] = slurp(path);
            }
            EXPECT_FALSE(files[0].empty()) << where;
            EXPECT_TRUE(files[0] == files[1]) << where;
            EXPECT_EQ(results[0].supply_energy_j, results[1].supply_energy_j)
                << where;
            EXPECT_EQ(results[0].mismatches, results[1].mismatches) << where;
            if (sink != Sink::kTee) continue;
            ASSERT_TRUE(results[0].trace && results[1].trace) << where;
            EXPECT_EQ(results[0].trace->peak_window,
                      results[1].trace->peak_window)
                << where;
            EXPECT_EQ(results[0].trace->window_supply_j,
                      results[1].trace->window_supply_j)
                << where;
            ASSERT_EQ(results[0].trace->elements.size(),
                      results[1].trace->elements.size())
                << where;
            for (std::size_t e = 0; e < results[0].trace->elements.size();
                 ++e)
              EXPECT_EQ(results[0].trace->elements[e].supply_energy_j,
                        results[1].trace->elements[e].supply_energy_j)
                  << where << " element " << e;
          }
        }
      }
    }
  }
}

}  // namespace
