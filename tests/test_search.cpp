// The peak-constrained schedule search (src/search/): the memoized batch
// evaluator against the traced analytic engine, the validity-preserving
// move set, the hand-checked peak-window walk, end-to-end
// determinism (threads / service), cycle-accurate winner
// verification, and the acceptance anchor — a budget the base March C-
// violates, met by the search at no more test time than naive uniform
// idle padding.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "dist/job.h"
#include "dist/service.h"
#include "engine/analytic_backend.h"
#include "march/algorithms.h"
#include "search/evaluator.h"
#include "search/schedule.h"
#include "search/search.h"
#include "search/serialize.h"
#include "util/error.h"

namespace {

using namespace sramlp;
using search::Candidate;
using search::MoveLimits;
using search::ScheduleEvaluator;
using search::SearchSpec;
using search::StateCond;

core::SessionConfig small_config() {
  core::SessionConfig config;
  config.geometry = {8, 16, 1};  // 128 words
  return config;
}

/// Small spec the whole suite shares: 6-element March C- on 128 words,
/// thermal-scale window (straddles element boundaries).
SearchSpec small_spec() {
  SearchSpec spec;
  spec.config = small_config();
  spec.base = march::algorithms::march_c_minus();
  spec.window_cycles = 512;
  spec.seed = 7;
  spec.restarts = 3;
  spec.steps = 12;
  spec.beam_width = 4;
  spec.neighbors = 8;
  spec.idle_quantum = 128;
  spec.max_idle_quanta = 8;
  spec.max_front = 4;
  return spec;
}

std::vector<StateCond> conds_of(const march::MarchTest& test) {
  std::vector<StateCond> conds;
  for (const march::MarchElement& element : test.elements())
    conds.push_back(search::element_state(element));
  return conds;
}

dist::JobSpec search_job(const SearchSpec& spec) {
  dist::JobSpec job;
  job.kind = dist::JobSpec::Kind::kSearch;
  job.search = spec;
  return job;
}

/// The canonical merged document of a single-process run — every
/// distributed path's byte-diff target.
std::string single_document(const SearchSpec& spec, unsigned threads = 1) {
  return dist::single_document(search_job(spec), threads);
}

/// run_search's outcome, serialized.
std::string outcome_json(const SearchSpec& spec, unsigned threads) {
  const search::SearchOutcome outcome = search::run_search(spec, threads);
  io::JsonValue json = io::JsonValue::array();
  for (const search::RestartResult& r : outcome.restarts)
    json.push_back(io::to_json(r));
  for (const search::ScheduleResult& point : outcome.front)
    json.push_back(io::to_json(point));
  return json.dump();
}

// --- evaluator vs the traced analytic engine ---------------------------------

TEST(SearchEvaluator, MatchesTracedAnalyticEngineOnMutatedSchedule) {
  const core::SessionConfig config = small_config();
  const march::MarchTest base = march::algorithms::march_c_minus();
  const std::size_t n = base.elements().size();
  const std::uint64_t window = 512;
  ScheduleEvaluator evaluator(config, base, window);

  // A reordered, idle-padded candidate (swap the two w1 ascents, pad two
  // interior slots with different idle amounts).
  Candidate candidate = search::identity_candidate(n);
  std::swap(candidate.order[1], candidate.order[3]);
  ASSERT_TRUE(search::order_is_valid(conds_of(base), candidate.order));
  candidate.idle_after[1] = 384;
  candidate.idle_after[3] = 128;

  const search::Score score = evaluator.score_one(candidate);
  const march::MarchTest schedule =
      search::build_schedule(base, candidate, "mutated");

  core::SessionConfig traced = config;
  power::TraceConfig trace;
  trace.window_cycles = window;
  traced.trace = trace;
  core::TestSession session(traced);
  engine::AnalyticBackend backend(config.tech, config.geometry);
  const core::SessionResult run = session.run(schedule, backend);

  // Same closed-form rates on both sides; the only divergence allowed is
  // summation order (rate*cycles vs per-cycle spreading), ~1 ulp.
  EXPECT_EQ(run.cycles, static_cast<std::uint64_t>(score.cycles));
  EXPECT_NEAR(run.supply_energy_j, score.energy_j,
              1e-9 * std::abs(score.energy_j));
  ASSERT_TRUE(run.trace.has_value());
  EXPECT_NEAR(run.trace->peak_power_w, score.peak_power_w,
              1e-9 * score.peak_power_w);
}

TEST(SearchEvaluator, IdentityCandidateMatchesBaseTest) {
  const core::SessionConfig config = small_config();
  const march::MarchTest base = march::algorithms::march_c_minus();
  ScheduleEvaluator evaluator(config, base, 512);
  const search::Score score =
      evaluator.score_one(search::identity_candidate(base.elements().size()));

  std::uint64_t cycles = 0;
  for (std::size_t i = 0; i < base.elements().size(); ++i)
    cycles += base.element_cycles(i, config.geometry.words());
  EXPECT_EQ(static_cast<std::uint64_t>(score.cycles), cycles);
  EXPECT_GT(score.energy_j, 0.0);
  EXPECT_GT(score.peak_power_w, 0.0);
}

// --- element_cycles under schedule mutation, both engines --------------------

TEST(ScheduleCycles, ElementCyclesBoundariesUnderMutation) {
  const core::SessionConfig config = small_config();
  const std::size_t words = config.geometry.words();
  const march::MarchTest base = march::algorithms::march_c_minus();
  const std::size_t n = base.elements().size();

  Candidate candidate = search::identity_candidate(n);
  std::swap(candidate.order[2], candidate.order[4]);  // r1,w0 <-> r1,w0
  ASSERT_TRUE(search::order_is_valid(conds_of(base), candidate.order));
  candidate.idle_after[0] = 1;      // boundary: a single pause cycle
  candidate.idle_after[2] = 1000;   // non-multiple of anything
  const march::MarchTest schedule =
      search::build_schedule(base, candidate, "mutated");

  // Per-element boundary accounting: pauses report their own cycles,
  // operations scale with the address count; zero-idle slots insert no
  // element at all.
  ASSERT_EQ(schedule.elements().size(), n + 2);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < schedule.elements().size(); ++i) {
    const march::MarchElement& element = schedule.elements()[i];
    const std::uint64_t cycles = schedule.element_cycles(i, words);
    if (element.is_pause())
      EXPECT_EQ(cycles, element.pause_cycles);
    else
      EXPECT_EQ(cycles, element.ops.size() * words);
    total += cycles;
  }
  EXPECT_EQ(schedule.element_cycles(1, words), 1u);
  // element_cycles must not depend on the address count for pauses.
  EXPECT_EQ(schedule.element_cycles(1, 1), 1u);

  // Both engines must walk exactly these cycles.
  core::TestSession cycle_accurate(config);
  const core::SessionResult measured = cycle_accurate.run(schedule);
  EXPECT_EQ(measured.cycles, total);
  EXPECT_EQ(measured.mismatches, 0u);

  core::TestSession analytic_session(config);
  engine::AnalyticBackend backend(config.tech, config.geometry);
  EXPECT_EQ(analytic_session.run(schedule, backend).cycles, total);
}

// --- validity-preserving moves -----------------------------------------------

TEST(ScheduleMoves, MarchCMinusChainRules) {
  const march::MarchTest base = march::algorithms::march_c_minus();
  const std::vector<StateCond> conds = conds_of(base);
  ASSERT_EQ(conds.size(), 6u);

  // Identity is valid.
  EXPECT_TRUE(
      search::order_is_valid(conds, search::identity_candidate(6).order));
  // U(r1,w0) cannot run while cells hold 0.
  EXPECT_FALSE(search::order_is_valid(conds, {0, 2, 1, 3, 4, 5}));
  // Swapping the two (r0,w1) ascents keeps every pre-condition satisfied.
  EXPECT_TRUE(search::order_is_valid(conds, {0, 3, 2, 1, 4, 5}));
  // Nothing may precede the initialising write.
  EXPECT_FALSE(search::order_is_valid(conds, {1, 0, 2, 3, 4, 5}));
}

TEST(ScheduleMoves, RandomWalkPreservesValidityAndLimits) {
  const march::MarchTest base = march::algorithms::march_c_minus();
  const std::vector<StateCond> conds = conds_of(base);
  const std::size_t n = conds.size();
  const MoveLimits limits{128, 8};
  util::Rng rng(42);

  Candidate candidate = search::identity_candidate(n);
  std::size_t applied = 0;
  for (std::size_t k = 0; k < 2000; ++k) {
    if (!search::apply_random_move(candidate, conds, limits, rng)) continue;
    ++applied;
    EXPECT_TRUE(search::order_is_valid(conds, candidate.order));
    // First and last elements stay pinned.
    EXPECT_EQ(candidate.order.front(), 0u);
    EXPECT_EQ(candidate.order.back(), n - 1);
    // Trailing idle never appears; the idle budget holds.
    EXPECT_EQ(candidate.idle_after.back(), 0u);
    std::uint64_t idle = 0;
    for (const std::uint64_t cycles : candidate.idle_after) {
      EXPECT_EQ(cycles % limits.idle_quantum, 0u);
      idle += cycles;
    }
    EXPECT_LE(idle, limits.idle_quantum * limits.max_idle_quanta);
    // The permutation stays a permutation.
    const std::set<std::size_t> unique(candidate.order.begin(),
                                       candidate.order.end());
    EXPECT_EQ(unique.size(), n);
  }
  EXPECT_GT(applied, 500u);  // the move set actually moves
}

// --- the peak-window walk -----------------------------------------------------

TEST(SearchEvaluator, PeakWindowSemanticsMatchPowerTrace) {
  // Hand-checkable: two segments of 100 cycles at rates 2 and 4 (J/cycle),
  // window 64.  Windows: [0,64) all r=2 -> 128; [64,128) 36*2 + 28*4 =
  // 184; [128,192) 64*4 = 256; [192,200) partial, 8*4 = 32 (rated against
  // the full window by PowerTrace rules -> still 32 J energy).
  search::ScoreWalk walk{.window = 64.0};
  walk.add(2.0, 100.0);
  walk.add(4.0, 100.0);
  EXPECT_EQ(walk.cycles, 200.0);
  EXPECT_EQ(walk.energy_j, 600.0);
  EXPECT_EQ(walk.peak_window_j(), 256.0);
}

// --- determinism -------------------------------------------------------------

TEST(SearchDeterminism, RestartIsPureFunctionOfSpecAndIndex) {
  const SearchSpec spec = small_spec();
  const search::RestartResult a = search::run_restart(spec, 1);
  const search::RestartResult b = search::run_restart(spec, 1);
  EXPECT_EQ(io::to_json(a).dump(), io::to_json(b).dump());
  EXPECT_FALSE(a.front.empty());
}

TEST(SearchDeterminism, ByteIdenticalAcrossThreadCounts) {
  const SearchSpec spec = small_spec();
  EXPECT_EQ(single_document(spec, 1), single_document(spec, 4));
  EXPECT_EQ(outcome_json(spec, 1), outcome_json(spec, 4));
}

TEST(SearchDeterminism, SeedChangesTheTrajectory) {
  SearchSpec spec = small_spec();
  const std::string doc = single_document(spec);
  spec.seed = 8;
  // Different seed explores differently (fronts may coincide on a tiny
  // instance, but the serialized restarts as a whole should not).
  EXPECT_NE(single_document(spec), doc);
}

// --- winner verification -----------------------------------------------------

TEST(SearchVerification, EveryFrontPointIsCycleAccurateVerified) {
  const SearchSpec spec = small_spec();
  const search::SearchOutcome outcome = search::run_search(spec, 2);
  ASSERT_FALSE(outcome.front.empty());
  const double tolerance = search::verify_tolerance(spec.config);
  for (const search::ScheduleResult& point : outcome.front) {
    EXPECT_TRUE(point.verified) << point.schedule.name();
    EXPECT_GT(point.verified_peak_w, 0.0);
    EXPECT_LE(std::abs(point.peak_power_w - point.verified_peak_w),
              tolerance * point.verified_peak_w);
    // The schedule is runnable and coverage-preserving: re-run it here
    // and require a mismatch-free pass of the exact length.
    core::TestSession session(spec.config);
    const core::SessionResult run = session.run(point.schedule);
    EXPECT_EQ(run.mismatches, 0u);
    EXPECT_EQ(run.cycles, point.cycles);
  }
}

// --- the acceptance anchor: budget met at <= naive padding time --------------

TEST(SearchBudget, BeatsNaiveIdlePaddingAtTheSameBudget) {
  SearchSpec spec = small_spec();
  spec.restarts = 4;
  spec.steps = 24;
  spec.max_idle_quanta = 16;

  // A budget the base schedule violates.
  const double base_peak =
      ScheduleEvaluator(spec.config, *spec.base, spec.window_cycles)
          .score_one(search::identity_candidate(spec.base->elements().size()))
          .peak_power_w;
  spec.peak_budget_w = 0.97 * base_peak;

  const search::PaddedBaseline naive = search::naive_idle_padding(spec);
  ASSERT_TRUE(naive.meets_budget);
  ASSERT_GT(naive.score.cycles, 0.0);

  const search::SearchOutcome outcome = search::run_search(spec, 2);
  const search::ScheduleResult* best = nullptr;
  for (const search::ScheduleResult& point : outcome.front) {
    if (!point.verified || point.peak_power_w > spec.peak_budget_w) continue;
    if (best == nullptr || point.cycles < best->cycles) best = &point;
  }
  ASSERT_NE(best, nullptr) << "search found no verified schedule under the "
                              "budget the naive padding meets";
  EXPECT_LE(best->cycles, static_cast<std::uint64_t>(naive.score.cycles));
}

// --- dist: job spec and the service ------------------------------------------

TEST(SearchDist, JobSpecRoundTripsAndFingerprintCoversSearchKnobs) {
  const SearchSpec spec = small_spec();
  dist::JobSpec job = search_job(spec);
  const dist::JobSpec round =
      dist::job_from_json(io::JsonValue::parse(dist::to_json(job).dump()));
  EXPECT_EQ(round.fingerprint(), job.fingerprint());
  EXPECT_EQ(dist::to_json(round).dump(), dist::to_json(job).dump());

  dist::JobSpec other = search_job(spec);
  other.search->seed = spec.seed + 1;
  EXPECT_NE(other.fingerprint(), job.fingerprint());
  other = search_job(spec);
  other.search->window_cycles = spec.window_cycles * 2;
  EXPECT_NE(other.fingerprint(), job.fingerprint());
}

TEST(SearchService, ByteIdenticalCachedOnResubmitAndFairnessCounters) {
  const SearchSpec spec = small_spec();
  const dist::JobSpec job = search_job(spec);
  const std::string reference = single_document(spec);

  dist::Service::Options options;
  options.listen = "tcp:0";
  options.points_per_shard = 1;
  dist::Service service(options);
  service.start();
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w)
    workers.emplace_back(
        [&service] { dist::ServiceWorker().run(service.address()); });

  const dist::SubmitResult first =
      dist::submit_job(service.address(), job, 5000, {}, "alice");
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.document, reference);

  const dist::SubmitResult second =
      dist::submit_job(service.address(), job, 5000, {}, "bob");
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.document, reference);

  // Per-submitter fairness counters are Prometheus-visible: alice queued,
  // leased and completed; bob's resubmit was a cache hit (queued and
  // completed, no leases required).
  const std::string prom =
      dist::query_metrics(service.address()).prometheus;
  EXPECT_NE(prom.find("sramlp_submitter_jobs_queued_total"
                      "{submitter=\"alice\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("sramlp_submitter_jobs_completed_total"
                      "{submitter=\"alice\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("sramlp_submitter_jobs_queued_total"
                      "{submitter=\"bob\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("sramlp_submitter_jobs_completed_total"
                      "{submitter=\"bob\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("sramlp_submitter_shards_leased_total"
                      "{submitter=\"alice\"}"),
            std::string::npos);

  service.request_stop();
  service.wait();
  for (std::thread& t : workers) t.join();
}

// --- serialization round trips -----------------------------------------------

TEST(SearchSerialize, SpecAndResultsRoundTripExactly) {
  const SearchSpec spec = small_spec();
  const io::JsonValue spec_json = io::to_json(spec);
  const SearchSpec round = io::search_spec_from_json(
      io::JsonValue::parse(spec_json.dump()));
  EXPECT_EQ(io::to_json(round).dump(), spec_json.dump());

  const search::RestartResult restart = search::run_restart(spec, 0);
  const io::JsonValue json = io::to_json(restart);
  const search::RestartResult parsed =
      io::restart_result_from_json(io::JsonValue::parse(json.dump()));
  EXPECT_EQ(io::to_json(parsed).dump(), json.dump());
}

TEST(SearchSpec, ValidateRejectsBrokenSpecs) {
  SearchSpec spec = small_spec();
  spec.base.reset();
  EXPECT_THROW(spec.validate(), Error);
  spec = small_spec();
  spec.restarts = 0;
  EXPECT_THROW(spec.validate(), Error);
  spec = small_spec();
  power::TraceConfig trace;
  trace.window_cycles = 64;
  spec.config.trace = trace;
  EXPECT_THROW(spec.validate(), Error);
}

}  // namespace
