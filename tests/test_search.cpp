// The peak-constrained schedule search (src/search/): the memoized
// evaluator against the traced analytic engine, the read-state order
// enumeration, the hand-checked peak-window walk, the exact per-order
// solver against brute force (every order x every idle split), the job's
// answer against brute force over every order's optimum (generated specs,
// max_front 1 and 8, 1 and 4 threads), the verification fallback walk
// under a failing check, end-to-end determinism (threads / service),
// cycle-accurate winner verification, and the acceptance anchor — a
// budget the base March C- violates, met by the search at no more test
// time than naive uniform idle padding on the same idle grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/session.h"
#include "dist/job.h"
#include "dist/service.h"
#include "engine/analytic_backend.h"
#include "march/algorithms.h"
#include "march/parser.h"
#include "search/evaluator.h"
#include "search/schedule.h"
#include "search/search.h"
#include "search/serialize.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace sramlp;
using search::Candidate;
using search::ScheduleEvaluator;
using search::SearchSpec;
using search::StateCond;

core::SessionConfig small_config() {
  core::SessionConfig config;
  config.geometry = {8, 16, 1};  // 128 words
  return config;
}

/// The base schedule's analytic peak under @p spec.
double base_peak(const SearchSpec& spec) {
  const ScheduleEvaluator evaluator(spec.config, *spec.base,
                                    spec.window_cycles);
  return evaluator.score_one(search::identity_candidate(evaluator.elements()))
      .peak_power_w;
}

/// Small spec the whole suite shares: 6-element March C- on 128 words,
/// thermal-scale window (straddles element boundaries), a budget the base
/// schedule misses.
SearchSpec small_spec() {
  SearchSpec spec;
  spec.config = small_config();
  spec.base = march::algorithms::march_c_minus();
  spec.window_cycles = 512;
  spec.idle_quantum = 128;
  spec.max_idle_quanta = 8;
  spec.max_front = 4;
  spec.peak_budget_w = 0.97 * base_peak(spec);
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
  return io::to_json(search::run_search(spec, threads)).dump();
}

/// A candidate the test draws itself: enumerated order @p order plus
/// seeded idle after every slot but the last, each in [0, max_idle].
Candidate drawn_candidate(const std::vector<std::size_t>& order,
                          std::uint64_t max_idle, util::Rng& rng) {
  Candidate candidate{order, std::vector<std::uint64_t>(order.size(), 0)};
  for (std::size_t s = 0; s + 1 < order.size(); ++s)
    candidate.idle_after[s] = rng.next_below(max_idle + 1);
  return candidate;
}

// --- evaluator vs the traced analytic engine ---------------------------------

TEST(SearchEvaluator, MatchesTracedAnalyticEngineOnMutatedSchedule) {
  const core::SessionConfig config = small_config();
  const march::MarchTest base = march::algorithms::march_c_minus();
  const std::uint64_t window = 512;
  ScheduleEvaluator evaluator(config, base, window);
  util::Rng rng(11);

  // Every valid reorder, each with seeded idle on its interior slots.
  for (const std::vector<std::size_t>& order :
       search::valid_orders(conds_of(base)))
    for (int draw = 0; draw < 2; ++draw) {
      const Candidate candidate = drawn_candidate(order, 400, rng);
      ASSERT_TRUE(search::order_is_valid(conds_of(base), candidate.order));

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

      // Same closed-form rates on both sides; the only divergence allowed
      // is summation order (rate*cycles vs per-cycle spreading), ~1 ulp.
      SCOPED_TRACE(candidate.key());
      EXPECT_EQ(run.cycles, static_cast<std::uint64_t>(score.cycles));
      EXPECT_NEAR(run.supply_energy_j, score.energy_j,
                  1e-9 * std::abs(score.energy_j));
      ASSERT_TRUE(run.trace.has_value());
      EXPECT_NEAR(run.trace->peak_power_w, score.peak_power_w,
                  1e-9 * score.peak_power_w);
    }
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
  util::Rng rng(5);

  for (const std::vector<std::size_t>& order :
       search::valid_orders(conds_of(base))) {
    Candidate candidate = drawn_candidate(order, 2000, rng);
    ASSERT_TRUE(search::order_is_valid(conds_of(base), candidate.order));
    candidate.idle_after[0] = 1;     // boundary: a single pause cycle
    candidate.idle_after[1] = 0;     // a zero-idle slot inserts nothing
    candidate.idle_after[2] = 1000;  // non-multiple of anything
    const std::size_t pauses = static_cast<std::size_t>(std::count_if(
        candidate.idle_after.begin(), candidate.idle_after.end(),
        [](std::uint64_t idle) { return idle != 0; }));
    const march::MarchTest schedule =
        search::build_schedule(base, candidate, "mutated");
    SCOPED_TRACE(candidate.key());

    // Per-element boundary accounting: pauses report their own cycles,
    // operations scale with the address count; zero-idle slots insert no
    // element at all.
    ASSERT_EQ(schedule.elements().size(), n + pauses);
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
}

// --- element orders ------------------------------------------------------------

TEST(ScheduleOrders, MarchCMinusChainRules) {
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

TEST(ScheduleOrders, ValidOrderCountsOfTheTable1Tests) {
  const std::vector<std::pair<march::MarchTest, std::size_t>> expected = {
      {march::algorithms::march_c_minus(), 4},
      {march::algorithms::march_ss(), 4},
      {march::algorithms::march_sr(), 2},
      {march::algorithms::march_g(), 8}};
  for (const auto& [test, count] : expected) {
    const std::vector<StateCond> conds = conds_of(test);
    const std::vector<std::vector<std::size_t>> orders =
        search::valid_orders(conds);
    EXPECT_EQ(orders.size(), count) << test.name();
    // Lexicographic, identity first, every one valid and pinned.
    EXPECT_TRUE(std::is_sorted(orders.begin(), orders.end())) << test.name();
    EXPECT_EQ(orders.front(),
              search::identity_candidate(conds.size()).order);
    for (const std::vector<std::size_t>& order : orders) {
      EXPECT_TRUE(search::order_is_valid(conds, order));
      EXPECT_EQ(order.front(), 0u);
      EXPECT_EQ(order.back(), conds.size() - 1);
    }
  }
}

TEST(ScheduleOrders, SolvedSchedulesPreserveValidityAndLimits) {
  const march::MarchTest base = march::algorithms::march_c_minus();
  const std::vector<StateCond> conds = conds_of(base);
  const std::size_t n = conds.size();
  SearchSpec spec = small_spec();
  const ScheduleEvaluator evaluator(spec.config, base, spec.window_cycles);
  const double peak = base_peak(spec);
  util::Rng rng(42);

  std::size_t solved = 0;
  for (const std::vector<std::size_t>& order : search::valid_orders(conds))
    for (int draw = 0; draw < 40; ++draw) {
      // Seeded budgets from far under the reachable floor to the base peak.
      spec.peak_budget_w = peak * (0.5 + 0.5 * rng.next_double());
      const search::OrderOptimum optimum =
          search::solve_order(evaluator, spec, order);
      const Candidate& candidate = optimum.candidate;
      ++solved;
      EXPECT_TRUE(search::order_is_valid(conds, candidate.order));
      EXPECT_EQ(candidate.order, order);
      // First and last elements stay pinned.
      EXPECT_EQ(candidate.order.front(), 0u);
      EXPECT_EQ(candidate.order.back(), n - 1);
      // Trailing idle never appears; the idle budget holds.
      EXPECT_EQ(candidate.idle_after.back(), 0u);
      std::uint64_t idle = 0;
      for (const std::uint64_t cycles : candidate.idle_after) {
        EXPECT_EQ(cycles % spec.idle_quantum, 0u);
        idle += cycles;
      }
      EXPECT_LE(idle, spec.idle_quantum * spec.max_idle_quanta);
      // The permutation stays a permutation.
      const std::set<std::size_t> unique(candidate.order.begin(),
                                         candidate.order.end());
      EXPECT_EQ(unique.size(), n);
      EXPECT_EQ(optimum.meets_budget,
                optimum.score.peak_power_w <= spec.peak_budget_w);
    }
  EXPECT_GT(solved, 100u);
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

// --- the exact solver against brute force -------------------------------------

/// Every idle split of at most @p quanta quanta over the first @p slots
/// slots (the trailing slot stays 0), in quanta.
void idle_splits(std::size_t slot, std::size_t slots, std::size_t left,
                 std::vector<std::size_t>& split,
                 std::vector<std::vector<std::size_t>>& out) {
  if (slot == slots) {
    out.push_back(split);
    return;
  }
  for (std::size_t j = 0; j <= left; ++j) {
    split[slot] = j;
    idle_splits(slot + 1, slots, left - j, split, out);
  }
}

/// Every schedule of @p spec's idle grid, order by order: score_one of
/// each (order, split).
std::vector<std::vector<search::Score>> brute_force(
    const ScheduleEvaluator& evaluator, const SearchSpec& spec,
    const std::vector<std::vector<std::size_t>>& orders) {
  const std::size_t n = evaluator.elements();
  std::vector<std::vector<std::size_t>> splits;
  std::vector<std::size_t> split(n, 0);
  idle_splits(0, n - 1, spec.max_idle_quanta, split, splits);
  std::vector<std::vector<search::Score>> scores(orders.size());
  for (std::size_t o = 0; o < orders.size(); ++o)
    for (const std::vector<std::size_t>& quanta : splits) {
      Candidate candidate{orders[o], std::vector<std::uint64_t>(n, 0)};
      for (std::size_t s = 0; s < n; ++s)
        candidate.idle_after[s] = quanta[s] * spec.idle_quantum;
      scores[o].push_back(evaluator.score_one(candidate));
    }
  return scores;
}

void expect_same_score(const search::Score& a, const search::Score& b) {
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.peak_window_j, b.peak_window_j);
  EXPECT_EQ(a.peak_power_w, b.peak_power_w);
}

TEST(SearchSolver, ExactAgainstBruteForceOnGeneratedInstances) {
  std::vector<march::MarchTest> tests = march::algorithms::table1();
  tests.push_back(march::algorithms::march_g_with_delays());
  const std::vector<sram::Geometry> geometries = {{8, 8, 1}, {16, 32, 1}};
  util::Rng rng(2006);
  std::size_t feasible = 0, infeasible = 0;
  for (const march::MarchTest& test : tests)
    for (const sram::Geometry& geometry : geometries) {
      SearchSpec spec;
      spec.config.geometry = geometry;
      spec.base = test;
      spec.window_cycles = 2 + rng.next_below(4 * geometry.words());
      spec.idle_quantum = 1 + rng.next_below(geometry.words());
      spec.max_idle_quanta = 1 + rng.next_below(6);
      const ScheduleEvaluator evaluator(spec.config, test,
                                        spec.window_cycles);
      const std::vector<std::vector<std::size_t>> orders =
          search::valid_orders(evaluator.conds());
      const std::vector<std::vector<search::Score>> scores =
          brute_force(evaluator, spec, orders);
      double floor = std::numeric_limits<double>::infinity();
      for (const std::vector<search::Score>& order : scores)
        for (const search::Score& score : order)
          floor = std::min(floor, score.peak_power_w);
      const double top = base_peak(spec);

      // Seeded budgets between the reachable floor and the base peak, one
      // under the floor (no schedule meets it), and none at all.
      std::vector<double> budgets = {0.0, 0.999 * floor, floor, top};
      for (int b = 0; b < 4; ++b)
        budgets.push_back(floor + (top - floor) * rng.next_double());
      for (const double budget : budgets) {
        spec.peak_budget_w = budget;
        for (std::size_t o = 0; o < orders.size(); ++o) {
          const search::OrderOptimum optimum =
              search::solve_order(evaluator, spec, orders[o]);
          SCOPED_TRACE(test.name() + " " + std::to_string(geometry.rows) +
                       "x" + std::to_string(geometry.cols) + " budget " +
                       std::to_string(budget) + " order " +
                       optimum.candidate.key());
          // Bit identity: the solver's walk is score_one's.
          expect_same_score(optimum.score,
                            evaluator.score_one(optimum.candidate));
          std::optional<double> least_cycles;
          double least_peak = std::numeric_limits<double>::infinity();
          for (const search::Score& score : scores[o]) {
            least_peak = std::min(least_peak, score.peak_power_w);
            if ((budget <= 0.0 || score.peak_power_w <= budget) &&
                (!least_cycles || score.cycles < *least_cycles))
              least_cycles = score.cycles;
          }
          if (budget <= 0.0) {
            // Unconstrained: the zero-idle schedule.
            EXPECT_TRUE(optimum.meets_budget);
            EXPECT_EQ(optimum.candidate.idle_after,
                      std::vector<std::uint64_t>(orders[o].size(), 0));
          } else if (least_cycles) {
            ++feasible;
            EXPECT_TRUE(optimum.meets_budget);
            EXPECT_EQ(optimum.score.cycles, *least_cycles);
            EXPECT_LE(optimum.score.peak_power_w, budget);
          } else {
            // Over budget: the exact minimum peak, at its least length.
            ++infeasible;
            EXPECT_FALSE(optimum.meets_budget);
            EXPECT_EQ(optimum.score.peak_power_w, least_peak);
            double least_at_peak = std::numeric_limits<double>::infinity();
            for (const search::Score& score : scores[o])
              if (score.peak_power_w == least_peak)
                least_at_peak = std::min(least_at_peak, score.cycles);
            EXPECT_EQ(optimum.score.cycles, least_at_peak);
          }
        }
      }
    }
  EXPECT_GT(feasible, 100u);
  EXPECT_GT(infeasible, 20u);
}

TEST(SearchSolver, WinnersAreBitIdenticalToScoreOne) {
  // With max_front past the order count, the front is every distinct
  // Pareto optimum, each carrying the solver's own Score — score_one's,
  // to the bit — and the schedule built from its candidate.
  SearchSpec spec = small_spec();
  spec.max_front = 8;
  const ScheduleEvaluator evaluator(spec.config, *spec.base,
                                    spec.window_cycles);
  std::vector<search::OrderOptimum> optima;
  for (const std::vector<std::size_t>& order :
       search::valid_orders(evaluator.conds()))
    optima.push_back(search::solve_order(evaluator, spec, order));
  const search::SearchOutcome outcome = search::run_search(spec, 1);
  ASSERT_FALSE(outcome.front.empty());
  for (const search::ScheduleResult& point : outcome.front) {
    const std::string schedule = io::to_json(point.schedule).dump();
    const auto it = std::find_if(
        optima.begin(), optima.end(), [&](const search::OrderOptimum& o) {
          return io::to_json(search::build_schedule(
                                 *spec.base, o.candidate,
                                 spec.base->name() + " [scheduled]"))
                     .dump() == schedule;
        });
    ASSERT_NE(it, optima.end()) << schedule;
    const search::Score score = evaluator.score_one(it->candidate);
    expect_same_score(it->score, score);
    EXPECT_EQ(point.cycles, static_cast<std::uint64_t>(score.cycles));
    EXPECT_EQ(point.energy_j, score.energy_j);
    EXPECT_EQ(point.peak_power_w, score.peak_power_w);
  }
}

// --- the job's answer against brute force over every order's optimum -------

/// The job's answer by definition (search.h): the fewest-cycle optimum
/// within budget (then less peak, less energy, smaller key), or the
/// least-peak one (then fewer cycles, less energy, smaller key) when no
/// order meets the budget — and the whole ranking it heads.
std::vector<search::OrderOptimum> answer_ranking(const SearchSpec& spec) {
  const ScheduleEvaluator evaluator(spec.config, *spec.base,
                                    spec.window_cycles);
  std::vector<search::OrderOptimum> optima;
  for (const std::vector<std::size_t>& order :
       search::valid_orders(evaluator.conds()))
    optima.push_back(search::solve_order(evaluator, spec, order));
  const bool feasible =
      std::any_of(optima.begin(), optima.end(),
                  [](const search::OrderOptimum& o) { return o.meets_budget; });
  std::erase_if(optima, [&](const search::OrderOptimum& o) {
    return feasible && !o.meets_budget;
  });
  const auto rank = [&](const search::OrderOptimum& o) {
    const search::Score& s = o.score;
    return feasible ? std::make_tuple(s.cycles, s.peak_power_w, s.energy_j,
                                      o.candidate.key())
                    : std::make_tuple(s.peak_power_w, s.cycles, s.energy_j,
                                      o.candidate.key());
  };
  std::sort(optima.begin(), optima.end(),
            [&](const search::OrderOptimum& a, const search::OrderOptimum& b) {
              return rank(a) < rank(b);
            });
  return optima;
}

/// The schedule JSON run_search reports for @p optimum.
std::string schedule_of(const SearchSpec& spec,
                        const search::OrderOptimum& optimum) {
  return io::to_json(search::build_schedule(*spec.base, optimum.candidate,
                                            spec.base->name() +
                                                " [scheduled]"))
      .dump();
}

bool is_point(const search::ScheduleResult& point, const SearchSpec& spec,
              const search::OrderOptimum& optimum) {
  return point.cycles == static_cast<std::uint64_t>(optimum.score.cycles) &&
         point.peak_power_w == optimum.score.peak_power_w &&
         point.energy_j == optimum.score.energy_j &&
         io::to_json(point.schedule).dump() == schedule_of(spec, optimum);
}

TEST(SearchAnswer, EqualsBruteForceBestOnGeneratedSpecs) {
  // Every search-legal library algorithm on word width 1 and 4, with no
  // budget, a feasible one and one under the least reachable peak.
  const std::vector<sram::Geometry> geometries = {
      {8, 8, 1}, {4, 32, 4}, {8, 16, 4}};
  util::Rng rng(24);
  std::size_t checked = 0, feasible = 0, infeasible = 0;
  for (const march::MarchTest& test : march::algorithms::all())
    for (const sram::Geometry& geometry : geometries) {
      SearchSpec spec;
      spec.config.geometry = geometry;
      spec.base = test;
      spec.window_cycles = 2 + rng.next_below(4 * geometry.words());
      spec.idle_quantum = 1 + rng.next_below(geometry.words());
      spec.max_idle_quanta = 1 + rng.next_below(8);
      try {
        spec.validate();
      } catch (const Error&) {
        continue;  // too many elements, or no valid order
      }
      spec.peak_budget_w = 1e-30;  // each order's exact minimum peak
      double least = std::numeric_limits<double>::infinity();
      for (const search::OrderOptimum& o : answer_ranking(spec))
        least = std::min(least, o.score.peak_power_w);
      const double top = base_peak(spec);
      for (const double budget :
           {0.0, least + (top - least) * rng.next_double(), 0.999 * least}) {
        spec.peak_budget_w = budget;
        const std::vector<search::OrderOptimum> ranking = answer_ranking(spec);
        const search::OrderOptimum& answer = ranking.front();
        SCOPED_TRACE(test.name() + " " + std::to_string(geometry.rows) + "x" +
                     std::to_string(geometry.cols) + "/" +
                     std::to_string(geometry.word_width) + " budget " +
                     std::to_string(budget));
        ++checked;
        if (budget > 0.0) ++(answer.meets_budget ? feasible : infeasible);

        spec.max_front = 1;
        const search::SearchOutcome alone = search::run_search(spec, 1);
        ASSERT_EQ(alone.front.size(), 1u);
        EXPECT_TRUE(alone.front[0].verified);
        EXPECT_TRUE(is_point(alone.front[0], spec, answer));
        EXPECT_EQ(outcome_json(spec, 4), io::to_json(alone).dump());

        spec.max_front = 8;
        const search::SearchOutcome wide = search::run_search(spec, 1);
        EXPECT_EQ(outcome_json(spec, 4), io::to_json(wide).dump());
        ASSERT_GE(wide.front.size(), 1u);
        ASSERT_LE(wide.front.size(), 8u);
        EXPECT_EQ(std::count_if(wide.front.begin(), wide.front.end(),
                                [&](const search::ScheduleResult& point) {
                                  return is_point(point, spec, answer);
                                }),
                  1);
        // The answer's figures again, whatever else the front reports.
        for (const search::ScheduleResult& point : wide.front) {
          EXPECT_TRUE(point.verified);
          if (answer.meets_budget && budget > 0.0 &&
              point.peak_power_w <= budget) {
            EXPECT_GE(point.cycles,
                      static_cast<std::uint64_t>(answer.score.cycles));
          }
          if (!answer.meets_budget) {
            EXPECT_GE(point.peak_power_w, answer.score.peak_power_w);
          }
        }
        // Sorted by (peak, cycles), mutually non-dominated, no two alike.
        for (std::size_t i = 1; i < wide.front.size(); ++i) {
          const search::ScheduleResult& a = wide.front[i - 1];
          const search::ScheduleResult& b = wide.front[i];
          EXPECT_LE(a.peak_power_w, b.peak_power_w);
          EXPECT_GE(a.cycles, b.cycles);
          EXPECT_TRUE(a.peak_power_w < b.peak_power_w ||
                      a.cycles > b.cycles || a.energy_j != b.energy_j);
        }
      }
    }
  EXPECT_GE(checked, 90u);
  EXPECT_GE(feasible, 20u);
  EXPECT_GE(infeasible, 20u);
}

// --- the verification fallback walk -------------------------------------------

TEST(SearchAnswer, FailedAnswerWalksItsRankingToTheFirstPass) {
  // March G has 8 valid orders; at 0.97x the base peak several meet the
  // budget at different lengths.
  SearchSpec spec = small_spec();
  spec.base = march::algorithms::march_g();
  spec.max_idle_quanta = 16;
  spec.peak_budget_w = 0.97 * base_peak(spec);
  spec.max_front = 1;
  const std::vector<search::OrderOptimum> ranking = answer_ranking(spec);
  ASSERT_GE(ranking.size(), 3u);
  ASSERT_TRUE(ranking.front().meets_budget);
  std::set<std::string> schedules;
  for (const search::OrderOptimum& optimum : ranking)
    schedules.insert(schedule_of(spec, optimum));
  ASSERT_EQ(schedules.size(), ranking.size());

  for (std::size_t failing = 0; failing <= ranking.size(); ++failing) {
    // The first `failing` points of the ranking fail their check.
    std::set<std::string> fail;
    for (std::size_t i = 0; i < failing; ++i)
      fail.insert(schedule_of(spec, ranking[i]));
    std::atomic<std::size_t> calls{0};
    const search::SearchOutcome outcome = search::detail::run_search_with(
        spec, 2,
        [&](const SearchSpec& s, const Candidate& candidate,
            const search::Score& score) {
          ++calls;
          search::ScheduleResult result =
              search::verify_schedule(s, candidate, score);
          if (fail.count(io::to_json(result.schedule).dump()))
            result.verified = false;
          return result;
        });
    SCOPED_TRACE("failing " + std::to_string(failing));
    // One check per walked point: the failed ones and the first pass.
    const std::size_t walked = std::min(failing + 1, ranking.size());
    EXPECT_EQ(calls.load(), walked);
    ASSERT_EQ(outcome.front.size(), walked);
    for (std::size_t i = 0; i < walked; ++i) {
      const auto it = std::find_if(
          outcome.front.begin(), outcome.front.end(),
          [&](const search::ScheduleResult& p) {
            return is_point(p, spec, ranking[i]);
          });
      ASSERT_NE(it, outcome.front.end()) << "ranking point " << i;
      EXPECT_EQ(it->verified, i >= failing) << "ranking point " << i;
    }
    // Reported in (peak, cycles) order, failed points included.
    EXPECT_TRUE(std::is_sorted(
        outcome.front.begin(), outcome.front.end(),
        [](const search::ScheduleResult& a, const search::ScheduleResult& b) {
          return std::make_pair(a.peak_power_w, a.cycles) <
                 std::make_pair(b.peak_power_w, b.cycles);
        }));
  }
}

TEST(SearchAnswer, AVerifiedAnswerCostsOneCheckPerReportedPoint) {
  SearchSpec spec = small_spec();
  spec.base = march::algorithms::march_g();
  spec.peak_budget_w = 0.97 * base_peak(spec);
  for (const std::size_t max_front : {1u, 2u, 8u}) {
    spec.max_front = max_front;
    std::atomic<std::size_t> calls{0};
    const search::SearchOutcome outcome = search::detail::run_search_with(
        spec, 4,
        [&](const SearchSpec& s, const Candidate& candidate,
            const search::Score& score) {
          ++calls;
          return search::verify_schedule(s, candidate, score);
        });
    EXPECT_EQ(calls.load(), outcome.front.size()) << max_front;
    EXPECT_LE(outcome.front.size(), max_front);
    if (max_front == 1) {
      EXPECT_EQ(calls.load(), 1u);
    }
    EXPECT_EQ(io::to_json(outcome).dump(), outcome_json(spec, 1));
  }
}

// --- determinism -------------------------------------------------------------

TEST(SearchDeterminism, TheOneItemIsAPureFunctionOfTheSpec) {
  const SearchSpec spec = small_spec();
  const search::RestartResult a = search::run_restart(spec, 0);
  const search::RestartResult b = search::run_restart(spec, 0);
  EXPECT_EQ(io::to_json(a).dump(), io::to_json(b).dump());
  EXPECT_EQ(io::to_json(a).dump(), outcome_json(spec, 4));
  EXPECT_FALSE(a.front.empty());
  EXPECT_THROW(search::run_restart(spec, 1), Error);
}

TEST(SearchDeterminism, ByteIdenticalAcrossThreadCounts) {
  const SearchSpec spec = small_spec();
  EXPECT_EQ(single_document(spec, 1), single_document(spec, 4));
  EXPECT_EQ(outcome_json(spec, 1), outcome_json(spec, 4));
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
  spec.max_idle_quanta = 16;
  // small_spec's budget is 0.97x the base peak: one the base violates.
  ASSERT_LT(spec.peak_budget_w, base_peak(spec));

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

TEST(SearchBudget, NaivePaddingStaysOnTheSolversIdleGrid) {
  // The naive competitor gets the solver's idle allowance: at most
  // max_idle_quanta quanta over all slots, so with too few quanta for one
  // uniform step it keeps the base schedule and misses the budget.
  SearchSpec spec = small_spec();
  const std::size_t slots = spec.base->elements().size() - 1;
  for (const std::size_t quanta : {0u, 4u, 5u, 16u, 64u}) {
    spec.max_idle_quanta = quanta;
    const search::PaddedBaseline naive = search::naive_idle_padding(spec);
    std::uint64_t idle = 0;
    for (const std::uint64_t cycles : naive.candidate.idle_after)
      idle += cycles;
    EXPECT_LE(idle, quanta * spec.idle_quantum) << quanta;
    EXPECT_EQ(naive.meets_budget,
              naive.score.peak_power_w <= spec.peak_budget_w)
        << quanta;
    if (quanta < slots) {
      EXPECT_EQ(idle, 0u) << quanta;
      EXPECT_FALSE(naive.meets_budget) << quanta;
    }
  }
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
  spec.restarts = 0;  // wire-only: the search never reads it
  EXPECT_NO_THROW(spec.validate());
  spec = small_spec();
  spec.base = march::parse_march("read first", "{ U(r0); U(r0,w1) }");
  EXPECT_THROW(spec.validate(), Error);  // no order satisfies the chain
  spec = small_spec();
  power::TraceConfig trace;
  trace.window_cycles = 64;
  spec.config.trace = trace;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(SearchSpec, ValidateBoundsTheSolverInputs) {
  // The solver holds O(elements x Q) state per order and walks
  // O(elements x Q^2) segments: an unbounded idle budget off the wire
  // would exhaust a worker's memory.
  SearchSpec spec = small_spec();
  spec.max_idle_quanta = search::kMaxIdleQuanta;
  EXPECT_NO_THROW(spec.validate());
  spec.max_idle_quanta = search::kMaxIdleQuanta + 1;
  EXPECT_THROW(spec.validate(), Error);
  spec.max_idle_quanta = 1'000'000'000'000;
  EXPECT_THROW(spec.validate(), Error);
  EXPECT_THROW(search::run_restart(spec, 0), Error);

  // valid_orders walks (elements - 2)! permutations.
  spec = small_spec();
  std::vector<march::MarchElement> elements = spec.base->elements();
  march::MarchElement pause;
  pause.pause_cycles = 8;
  while (elements.size() <= search::kMaxSearchElements)
    elements.insert(elements.end() - 1, pause);
  spec.base = march::MarchTest("too long", elements);
  EXPECT_THROW(spec.validate(), Error);
  EXPECT_THROW(search::run_search(spec, 1), Error);
}

}  // namespace
