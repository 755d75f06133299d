// Experiment E13 — engineering micro-benchmarks (google-benchmark):
// throughput of the cycle simulator in both modes, full March runs, the
// switch-level transient integrator, and the gate-level controller.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/subcircuits.h"
#include "circuit/transient.h"
#include "core/fault_campaign.h"
#include "core/session.h"
#include "ctrl/precharge_control.h"
#include "dist/job.h"
#include "dist/service.h"
#include "dist/steal_queue.h"
#include "engine/analytic_backend.h"
#include "faults/models.h"
#include "io/serialize.h"
#include "march/algorithms.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/evaluator.h"
#include "search/schedule.h"
#include "search/serialize.h"

namespace {

using namespace sramlp;

// The service benchmarks drive real submits through the instrumented
// daemon; at the default info level every iteration would write a log
// line to stderr and the benchmark would measure terminal I/O.
const bool g_quiet_logs = [] {
  obs::Logger::global().set_level(obs::LogLevel::kError);
  return true;
}();
using sram::CycleCommand;
using sram::Mode;
using sram::SramArray;
using sram::SramConfig;

// One cycle() call per iteration, walking row 0 column by column, at 512
// and 4096 columns: cycle() costs O(word_width) amortised, so the wider
// row must not cost more per call (ci/compare_bench.py gates the ratio).
void BM_FunctionalCycle(benchmark::State& state) {
  const auto cols = static_cast<std::size_t>(state.range(0));
  SramConfig cfg;
  cfg.geometry = {512, cols, 1};
  cfg.mode = Mode::kFunctional;
  SramArray array(cfg);
  std::size_t col = 0;
  for (auto _ : state) {
    CycleCommand cmd;
    cmd.row = 0;
    cmd.col_group = col;
    cmd.is_read = false;
    cmd.value = true;
    benchmark::DoNotOptimize(array.cycle(cmd));
    col = (col + 1) % cols;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FunctionalCycle)->Arg(512)->Arg(4096);

// Low-power twin: the last group of the row issues the Fig. 7 restore.
void BM_LowPowerCycle(benchmark::State& state) {
  const auto cols = static_cast<std::size_t>(state.range(0));
  SramConfig cfg;
  cfg.geometry = {512, cols, 1};
  cfg.mode = Mode::kLowPowerTest;
  SramArray array(cfg);
  std::size_t col = 0;
  for (auto _ : state) {
    CycleCommand cmd;
    cmd.row = 0;
    cmd.col_group = col;
    cmd.is_read = false;
    cmd.value = true;
    cmd.restore_row_transition = col == cols - 1;
    benchmark::DoNotOptimize(array.cycle(cmd));
    col = (col + 1) % cols;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LowPowerCycle)->Arg(512)->Arg(4096);

void BM_MarchRun(benchmark::State& state) {
  const auto mode = state.range(0) == 0 ? Mode::kFunctional
                                        : Mode::kLowPowerTest;
  core::SessionConfig cfg;
  cfg.geometry = {64, 64, 1};
  cfg.mode = mode;
  const auto test = march::algorithms::march_c_minus();
  for (auto _ : state) {
    core::TestSession session(cfg);
    benchmark::DoNotOptimize(session.run(test));
  }
  // Cycles per run derive from the algorithm itself (operations per
  // address plus any delay elements), so swapping the March test cannot
  // silently skew the throughput numbers.
  const auto cycles_per_run =
      static_cast<std::int64_t>(test.cycle_count(cfg.geometry.words()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          cycles_per_run);
  state.SetLabel(mode == Mode::kFunctional ? "functional (cycles/s)"
                                           : "low-power (cycles/s)");
}
BENCHMARK(BM_MarchRun)->Arg(0)->Arg(1);

// Backend face-off at the paper's full 512x512 scale: one fault-free March
// C- sweep point (both modes, PRR) through the cycle-accurate array vs the
// closed-form analytic backend.  The analytic backend must be >= 10x
// faster (in practice it is orders of magnitude faster: O(1) vs 2.6M
// simulated cycles per mode).
void BM_SweepPoint512_CycleAccurate(benchmark::State& state) {
  core::SessionConfig cfg;
  cfg.geometry = sram::Geometry::paper_512x512();
  const auto test = march::algorithms::march_c_minus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::TestSession::compare_modes(cfg, test));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("512x512 March C- PRR points/s (cycle-accurate)");
}
BENCHMARK(BM_SweepPoint512_CycleAccurate)->Unit(benchmark::kMillisecond);

// Same sweep point through the per-column reference engine — the executable
// specification the bitsliced/cohort path is parity-tested against.  The
// default path must stay well ahead of this.
void BM_SweepPoint512_CycleAccurateReference(benchmark::State& state) {
  core::SessionConfig cfg;
  cfg.geometry = sram::Geometry::paper_512x512();
  cfg.column_model = sram::ColumnModel::kPerColumnReference;
  const auto test = march::algorithms::march_c_minus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::TestSession::compare_modes(cfg, test));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("512x512 March C- PRR points/s (per-column reference)");
}
BENCHMARK(BM_SweepPoint512_CycleAccurateReference)
    ->Unit(benchmark::kMillisecond);

void BM_SweepPoint512_Analytic(benchmark::State& state) {
  core::SessionConfig cfg;
  cfg.geometry = sram::Geometry::paper_512x512();
  const auto test = march::algorithms::march_c_minus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::TestSession::compare_modes_analytic(cfg, test));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("512x512 March C- PRR points/s (analytic backend)");
}
BENCHMARK(BM_SweepPoint512_Analytic)->Unit(benchmark::kMillisecond);

// Untraced twin of BM_SweepPoint256_Traced: the same sweep point with no
// sink attached.  The ratio between the two is the cost of time-resolved
// power accounting; with the bulk-window traced fast path it must stay
// small (acceptance: traced <= 1.3x untraced).
void BM_SweepPoint256_CycleAccurate(benchmark::State& state) {
  core::SessionConfig cfg;
  cfg.geometry = {256, 256, 1};
  const auto test = march::algorithms::march_c_minus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::TestSession::compare_modes(cfg, test));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("256x256 March C- PRR points/s (cycle-accurate)");
}
BENCHMARK(BM_SweepPoint256_CycleAccurate)->Unit(benchmark::kMillisecond);

// Traced sweep point: the probe/sink layer end to end — bulk-window fold
// into the PowerTrace plus element attribution.  Compare against
// BM_SweepPoint256_CycleAccurate to see the time-resolution tax.
void BM_SweepPoint256_Traced(benchmark::State& state) {
  core::SessionConfig cfg;
  cfg.geometry = {256, 256, 1};
  cfg.trace = power::TraceConfig{.window_cycles = 256};
  const auto test = march::algorithms::march_c_minus();
  for (auto _ : state) {
    const auto cmp = core::TestSession::compare_modes(cfg, test);
    benchmark::DoNotOptimize(cmp.low_power.trace->peak_power_w);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("256x256 March C- traced PRR points/s");
}
BENCHMARK(BM_SweepPoint256_Traced)->Unit(benchmark::kMillisecond);

// One fixed schedule-search job: 128x128 March C- at 0.95x the base
// peak, with the repository benchmark's schedule_search knobs (window
// 8 x words, idle quantum words / 2, at most 256 quanta, one reported
// point: the job's answer).
dist::JobSpec search_job_128() {
  search::SearchSpec spec;
  spec.config.geometry = {128, 128, 1};
  spec.base = march::algorithms::march_c_minus();
  spec.window_cycles = 8 * spec.config.geometry.words();
  spec.idle_quantum = spec.config.geometry.words() / 2;
  spec.max_idle_quanta = 256;
  spec.max_front = 1;
  const search::ScheduleEvaluator evaluator(spec.config, *spec.base,
                                            spec.window_cycles);
  spec.peak_budget_w =
      0.95 * evaluator
                 .score_one(search::identity_candidate(evaluator.elements()))
                 .peak_power_w;
  dist::JobSpec job;
  job.kind = dist::JobSpec::Kind::kSearch;
  job.search = std::move(spec);
  return job;
}

// The whole job, single-threaded: every order solved, the reported front
// (here the answer alone) verified, merged into the document.
void BM_SearchJob128(benchmark::State& state) {
  const dist::JobSpec job = search_job_128();
  for (auto _ : state) benchmark::DoNotOptimize(dist::single_document(job, 1));
  state.SetLabel("128x128 March C- search job at 0.95x (single thread)");
}
BENCHMARK(BM_SearchJob128)->Unit(benchmark::kMillisecond);

// Only the traced cycle-accurate runs of that job's reported front: the
// floor BM_SearchJob128 cannot go under.  Their ratio
// (ci/compare_bench.py) fails if scoring, or verifying points the job
// does not report, ever dominates the job again.
void BM_SearchVerify128(benchmark::State& state) {
  const dist::JobSpec job = search_job_128();
  const io::JsonValue front =
      io::JsonValue::parse(dist::single_document(job, 1)).at("front");
  std::vector<march::MarchTest> schedules;
  for (std::size_t i = 0; i < front.size(); ++i)
    schedules.push_back(io::schedule_result_from_json(front.at(i)).schedule);
  core::SessionConfig config = job.search->config;
  power::TraceConfig trace;
  trace.window_cycles = job.search->window_cycles;
  config.trace = trace;
  for (auto _ : state)
    for (const march::MarchTest& schedule : schedules) {
      core::TestSession session(config);
      benchmark::DoNotOptimize(session.run(schedule));
    }
  state.SetLabel(std::to_string(schedules.size()) + " front schedule(s)");
}
BENCHMARK(BM_SearchVerify128)->Unit(benchmark::kMillisecond);

// The cohort engines' bulk meter accumulation: add(source, joules, count)
// must stay a repeated-addition loop (bit-identity with the per-column
// reference path), so its throughput bounds the cohort bulk paths.  The
// arg is the column count of one bulk event.
void BM_MeterBulkAdd(benchmark::State& state) {
  power::EnergyMeter meter;
  const auto count = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    meter.add(power::EnergySource::kPrechargeResFight, 1e-13, count);
    benchmark::DoNotOptimize(
        meter.total(power::EnergySource::kPrechargeResFight));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(count));
}
BENCHMARK(BM_MeterBulkAdd)->Arg(512);

// Fault-campaign throughput at the paper's full scale: one stuck-at fault
// means two cycle-accurate March C- runs (both modes) on a 512x512 array —
// the workload CampaignRunner fans out per library entry.  Each run
// simulates only its row cone (the victim's row and the order's first and
// last rows), so ci/compare_bench.py gates it against one whole-array
// cycle-accurate point.
void BM_Campaign512_PerFault(benchmark::State& state) {
  core::SessionConfig cfg;
  cfg.geometry = sram::Geometry::paper_512x512();
  const auto test = march::algorithms::march_c_minus();
  const std::vector<faults::FaultSpec> one_fault = {
      faults::FaultSpec{.kind = faults::FaultKind::kStuckAt1,
                        .victim = {17, 131},
                        .aggressor = {}}};
  const core::CampaignRunner runner(core::CampaignRunner::Options{1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(cfg, test, one_fault));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("512x512 faults/s (serial, both modes)");
}
BENCHMARK(BM_Campaign512_PerFault)->Unit(benchmark::kMillisecond);

// Whole-library campaign at 256x256 (~110 faults with 8 instances per
// kind), March C-, per-fault vs the word-parallel multi-fault batcher.
// The batcher partitions victim-disjoint faults into shared sessions
// (faults::plan_batches), so the same report costs a fraction of the
// session pairs — the session_pairs counter records how many actually ran.
// cone_rows is the share of array rows the sessions simulated: a batch's
// cone is the union of its members' rows, so batching buys fewer sessions
// with wider cones.
void BM_Campaign256(benchmark::State& state, bool batched) {
  core::SessionConfig cfg;
  cfg.geometry = {256, 256, 1};
  const auto test = march::algorithms::march_c_minus();
  const auto library = faults::standard_fault_library(cfg.geometry, 7, 8);
  core::CampaignRunner::Options opts;
  opts.batched = batched;
  const core::CampaignRunner runner(opts);
  std::size_t session_pairs = 0;
  double cone_rows = 0.0;
  for (auto _ : state) {
    const auto report = runner.run(cfg, test, library);
    session_pairs = report.session_pairs;
    cone_rows = static_cast<double>(report.rows_simulated) /
                static_cast<double>(report.array_rows);
    benchmark::DoNotOptimize(report);
  }
  state.counters["faults"] = static_cast<double>(library.size());
  state.counters["session_pairs"] = static_cast<double>(session_pairs);
  state.counters["cone_rows"] = cone_rows;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(library.size()));
  state.SetLabel(batched ? "256x256 March C- campaign (batched)"
                         : "256x256 March C- campaign (per-fault)");
}
void BM_Campaign256_PerFault(benchmark::State& state) {
  BM_Campaign256(state, false);
}
void BM_Campaign256_Batched(benchmark::State& state) {
  BM_Campaign256(state, true);
}
BENCHMARK(BM_Campaign256_PerFault)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Campaign256_Batched)->Unit(benchmark::kMillisecond);

// --- distributed-subsystem overheads ----------------------------------------
// The dist/ layer's costs on top of the compute itself: JSON round-trips
// of results (what every worker->service point pays) and of job specs.
// These bound the serialization tax of going multi-process.

dist::JobSpec bench_sweep_job() {
  dist::JobSpec job;
  job.kind = dist::JobSpec::Kind::kSweep;
  job.grid.geometries = {{16, 32, 1}, {8, 64, 1}};
  job.grid.backgrounds = {sram::DataBackground::solid0(),
                          sram::DataBackground::checkerboard()};
  job.grid.algorithms = {march::algorithms::mats_plus(),
                         march::algorithms::march_c_minus()};
  return job;  // 8 points
}

// One evaluated sweep point through the full emit -> parse -> rebuild
// cycle — the per-result cost of the JSONL protocol.
void BM_DistPointJsonRoundTrip(benchmark::State& state) {
  core::SessionConfig cfg;
  cfg.geometry = {16, 32, 1};
  core::SweepPointResult point;
  point.prr = core::TestSession::compare_modes(
      cfg, march::algorithms::march_c_minus());
  for (auto _ : state) {
    const std::string text = io::to_json(point).dump();
    benchmark::DoNotOptimize(
        io::sweep_point_from_json(io::JsonValue::parse(text)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("sweep points serialized+parsed/s");
}
BENCHMARK(BM_DistPointJsonRoundTrip);

// A whole job spec there and back — what every submit and every worker's
// first lease of a job pay.
void BM_DistJobSpecRoundTrip(benchmark::State& state) {
  const dist::JobSpec job = bench_sweep_job();
  for (auto _ : state) {
    const std::string text = dist::to_json(job).dump();
    benchmark::DoNotOptimize(
        dist::job_from_json(io::JsonValue::parse(text)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("job specs serialized+parsed/s");
}
BENCHMARK(BM_DistJobSpecRoundTrip);

// --- sweep-service overheads -------------------------------------------------
// The daemon's costs on top of the dist/ protocol: a whole submit through
// the socket service (connect + submit + steal + stream + merge)
// against the same submit answered from the fingerprint cache, plus the
// bare steal-queue coordination cost per shard.

/// Start @p count worker threads on @p address and return once the service
/// counts every one connected.  A worker still connecting when the bench
/// calls request_stop() would retry the refused connect for its 5 s
/// timeout and then throw out of its thread (std::terminate), so timing
/// starts only after all of them said hello.
std::vector<std::thread> start_workers(const std::string& address,
                                       std::uint64_t count) {
  std::vector<std::thread> workers;
  for (std::uint64_t w = 0; w < count; ++w)
    workers.emplace_back([address] { dist::ServiceWorker().run(address); });
  while (dist::query_stats(address).workers_connected < count)
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  return workers;
}

// A cold submit end to end, 2 worker threads over real sockets.  The
// whole-job LRU is pinned to one entry and two jobs with distinct
// fingerprints (same 8 points of compute — the algorithm list is just
// reordered) alternate, so every iteration misses the cache and runs.
void BM_ServiceSubmitCold(benchmark::State& state) {
  dist::Service::Options options;
  options.cache.capacity = 1;
  options.point_cache = false;
  dist::Service service(options);
  service.start();
  const std::string address = service.address();
  std::vector<std::thread> workers = start_workers(address, 2);
  dist::JobSpec jobs[2] = {bench_sweep_job(), bench_sweep_job()};
  std::swap(jobs[1].grid.algorithms[0], jobs[1].grid.algorithms[1]);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dist::submit_job(address, jobs[i++ % 2]).document);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs[0].size()));
  state.SetLabel("service points computed+streamed/s (cache misses)");
  service.request_stop();
  service.wait();
  for (std::thread& t : workers) t.join();
}
BENCHMARK(BM_ServiceSubmitCold)->Unit(benchmark::kMillisecond);

// The same submit answered from the fingerprint cache: connect + lookup +
// byte replay, no shard executed.  The gap to BM_ServiceSubmitCold is
// what the cache is worth on a repeated job.
void BM_ServiceSubmitCached(benchmark::State& state) {
  dist::Service::Options options;
  dist::Service service(options);
  service.start();
  const std::string address = service.address();
  std::vector<std::thread> workers = start_workers(address, 2);
  const dist::JobSpec job = bench_sweep_job();
  dist::submit_job(address, job);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::submit_job(address, job).document);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(job.size()));
  state.SetLabel("service points replayed/s (cache hits)");
  service.request_stop();
  service.wait();
  for (std::thread& t : workers) t.join();
}
BENCHMARK(BM_ServiceSubmitCached)->Unit(benchmark::kMillisecond);

// BM_ServiceSubmitCached with the span tracer armed: every guard on the
// submit path stamps clocks and the completed spans go through the ring
// mutex.  The delta to the untraced run is the whole telemetry bill on
// the cached fast path — the ~2% overhead budget, measured.
void BM_ServiceSubmitCachedTraced(benchmark::State& state) {
  obs::Tracer::global().enable(1 << 16);
  dist::Service::Options options;
  dist::Service service(options);
  service.start();
  const std::string address = service.address();
  std::vector<std::thread> workers = start_workers(address, 2);
  const dist::JobSpec job = bench_sweep_job();
  dist::submit_job(address, job);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::submit_job(address, job).document);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(job.size()));
  state.SetLabel("service points replayed/s (cache hits, tracer on)");
  service.request_stop();
  service.wait();
  for (std::thread& t : workers) t.join();
  obs::Tracer::global().disable();
}
BENCHMARK(BM_ServiceSubmitCachedTraced)->Unit(benchmark::kMillisecond);

// BM_Campaign256_Batched's library served end to end: 3 worker threads
// steal the job over real sockets, nothing cached (no whole-job LRU, no
// point cache), so every iteration computes every fault.  The service
// leases one plan_batches batch per unit, so a served campaign costs
// about the in-process batched run plus the protocol; a cut across
// batches multiplies the session pairs.  ci/compare_bench.py gates the
// same-run ratio to BM_Campaign256_Batched.
void BM_ServiceSubmitCampaign256(benchmark::State& state) {
  dist::Service::Options options;
  options.cache.capacity = 0;
  options.point_cache = false;
  dist::Service service(options);
  service.start();
  const std::string address = service.address();
  std::vector<std::thread> workers = start_workers(address, 3);
  dist::JobSpec job;
  job.kind = dist::JobSpec::Kind::kCampaign;
  job.config.geometry = {256, 256, 1};
  job.test = march::algorithms::march_c_minus();
  job.faults = faults::standard_fault_library(job.config.geometry, 7, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::submit_job(address, job).document);
  }
  state.counters["faults"] = static_cast<double>(job.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(job.size()));
  state.SetLabel("256x256 March C- campaign served by 3 workers");
  service.request_stop();
  service.wait();
  for (std::thread& t : workers) t.join();
}
BENCHMARK(BM_ServiceSubmitCampaign256)->Unit(benchmark::kMillisecond);

// The per-event price of the instruments themselves, at a call site that
// cached its references the way the service does (function-local static):
// one relaxed counter inc plus one histogram observe per iteration.
void BM_MetricsOverhead(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("bench_events_total", "B");
  obs::Histogram& histogram = registry.histogram(
      "bench_seconds", "B",
      obs::Histogram::exponential_bounds(1e-4, 4.0, 10));
  std::uint64_t tick = 0;
  for (auto _ : state) {
    counter.inc();
    histogram.observe_micros(++tick & 1023);
    benchmark::DoNotOptimize(tick);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
  state.SetLabel("metric updates/s (counter inc + histogram observe)");
}
BENCHMARK(BM_MetricsOverhead);

// Bare steal-queue coordination: queue 4096 indices as 4-point shards,
// then lease/complete the lot — the lock-and-bookkeeping cost every shard
// pays on top of its compute, with no sockets or arithmetic attached.
void BM_ShardSteal(benchmark::State& state) {
  std::vector<std::vector<std::size_t>> units(1024);
  for (std::size_t i = 0; i < 4096; ++i) units[i / 4].push_back(i);
  std::size_t shards = 0;
  for (auto _ : state) {
    dist::StealQueue queue(units);
    shards = queue.stats().shard_count;
    while (auto shard = queue.lease(1)) queue.complete(shard->id);
    benchmark::DoNotOptimize(queue.done());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shards));
  state.SetLabel("shards leased+completed/s");
}
BENCHMARK(BM_ShardSteal);

void BM_TransientStep(benchmark::State& state) {
  circuit::ColumnConfig cfg;
  cfg.scenario = circuit::PrechargeScenario::kAlwaysOff;
  const auto fixture = circuit::build_column_fixture(cfg);
  circuit::TransientOptions opt;
  opt.t_end = 1e-9;  // short window per iteration
  opt.dt = 0.5e-12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        circuit::simulate(fixture.circuit, {fixture.bl}, opt));
  }
  // steps per simulate call
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
  state.SetLabel("integrator steps/s");
}
BENCHMARK(BM_TransientStep);

void BM_ControllerEvaluate(benchmark::State& state) {
  ctrl::PrechargeController controller(512);
  ctrl::PrechargeController::CycleInputs in;
  in.lptest = true;
  in.phase = ctrl::Phase::kOperate;
  std::size_t col = 0;
  for (auto _ : state) {
    in.selected = col;
    benchmark::DoNotOptimize(controller.evaluate(in));
    col = (col + 1) % 512;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          512);
  state.SetLabel("column elements/s");
}
BENCHMARK(BM_ControllerEvaluate);

}  // namespace

BENCHMARK_MAIN();
