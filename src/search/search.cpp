#include "search/search.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "engine/parallel.h"
#include "power/trace.h"
#include "util/error.h"

namespace sramlp::search {

namespace {

/// The base test's valid element orders (valid_orders).
std::vector<std::vector<std::size_t>> orders_of(const SearchSpec& spec) {
  SRAMLP_REQUIRE(spec.base.has_value(), "search spec needs a base March test");
  const std::vector<march::MarchElement>& elements = spec.base->elements();
  SRAMLP_REQUIRE(elements.size() <= kMaxSearchElements,
                 "base test has more than " +
                     std::to_string(kMaxSearchElements) + " elements");
  std::vector<StateCond> conds;
  conds.reserve(elements.size());
  for (const march::MarchElement& element : elements)
    conds.push_back(element_state(element));
  return valid_orders(conds);
}

}  // namespace

void SearchSpec::validate() const {
  config.geometry.validate();
  SRAMLP_REQUIRE(base.has_value(), "search spec needs a base March test");
  SRAMLP_REQUIRE(!base->elements().empty(), "base test has no elements");
  SRAMLP_REQUIRE(!orders_of(*this).empty(),
                 "no element order satisfies the base test's read-state "
                 "chain");
  SRAMLP_REQUIRE(window_cycles >= 1, "window_cycles must be >= 1");
  SRAMLP_REQUIRE(idle_quantum > 0, "idle_quantum must be >= 1");
  SRAMLP_REQUIRE(max_idle_quanta <= kMaxIdleQuanta,
                 "max_idle_quanta must be <= " +
                     std::to_string(kMaxIdleQuanta));
  SRAMLP_REQUIRE(max_front > 0, "max_front must be >= 1");
  SRAMLP_REQUIRE(peak_budget_w >= 0.0, "peak budget cannot be negative");
  SRAMLP_REQUIRE(!config.trace.has_value(),
                 "leave config.trace unset: the search traces its own "
                 "verification runs at window_cycles");
  SRAMLP_REQUIRE(config.waveform_sink == nullptr,
                 "waveform sinks cannot cross the search/job boundary");
}

double verify_tolerance(const core::SessionConfig& config) {
  // The PR 5 analytic-vs-measured trace parity bounds (test_engine.cpp):
  // the closed-form per-element attribution tracks the cycle-accurate
  // measurement within 1% in functional mode, 5% in low-power mode.
  return config.mode == sram::Mode::kLowPowerTest ? 5e-2 : 1e-2;
}

namespace {

/// Dominance on the front: minimise (peak power, test time).
bool dominates(const Score& a, const Score& b) {
  return a.peak_power_w <= b.peak_power_w && a.cycles <= b.cycles &&
         (a.peak_power_w < b.peak_power_w || a.cycles < b.cycles);
}

/// The program of search.h's file comment over at most @p q quanta: the
/// least-idle placement of @p order within @p limit_w [W], or nullopt and
/// @p rejected_w = the least peak it turned away (a lower bound).
std::optional<OrderOptimum> place_idle_upto(
    const ScheduleEvaluator& evaluator, const SearchSpec& spec,
    const std::vector<std::size_t>& order, std::size_t q, double limit_w,
    double& rejected_w) {
  const std::size_t n = order.size();
  const double window_s = evaluator.window_seconds();
  rejected_w = std::numeric_limits<double>::infinity();
  const auto within = [&](double window_j) {
    const double watts = window_j / window_s;
    if (watts <= limit_w) return true;
    rejected_w = std::min(rejected_w, watts);
    return false;
  };
  // layer[k]: the dominant walk through the slots so far with k quanta
  // placed; idle[s * (q + 1) + k]: the quanta after slot s on the
  // dominant path to (s, k).
  std::vector<std::optional<ScoreWalk>> layer(q + 1), next(q + 1);
  std::vector<std::uint32_t> idle((n - 1) * (q + 1));
  layer[0] = evaluator.start_walk();
  for (std::size_t s = 0; s + 1 < n; ++s) {
    std::fill(next.begin(), next.end(), std::nullopt);
    for (std::size_t k = 0; k <= q; ++k) {
      if (!layer[k]) continue;
      ScoreWalk walk = *layer[k];
      evaluator.add_element(walk, order[s]);
      if (!within(walk.peak)) continue;
      for (std::size_t j = 0; k + j <= q; ++j) {
        ScoreWalk padded = walk;
        evaluator.add_idle(padded, j * spec.idle_quantum);
        if (!within(padded.peak)) break;  // the closed peak grows with j
        std::optional<ScoreWalk>& held = next[k + j];
        if (held && held->acc <= padded.acc) continue;
        held = padded;
        idle[s * (q + 1) + k + j] = static_cast<std::uint32_t>(j);
      }
    }
    std::swap(layer, next);
  }
  for (std::size_t k = 0; k <= q; ++k) {
    if (!layer[k]) continue;
    ScoreWalk walk = *layer[k];
    evaluator.add_element(walk, order[n - 1]);
    evaluator.add_idle(walk, 0);  // score_one's trailing slot
    if (!within(walk.peak_window_j())) continue;
    OrderOptimum optimum{Candidate{order, std::vector<std::uint64_t>(n, 0)},
                         evaluator.finish(walk), true};
    for (std::size_t s = n - 1, left = k; s-- > 0;) {
      const std::uint32_t j = idle[s * (q + 1) + left];
      optimum.candidate.idle_after[s] = j * spec.idle_quantum;
      left -= j;
    }
    return optimum;
  }
  return std::nullopt;
}

/// place_idle_upto over the whole idle budget.  A state with k quanta only
/// extends states with fewer, so the program cut at K quanta agrees with
/// the full one on every k <= K: doubling K from 1 reaches the least k
/// after ~(2k)^2 steps per slot instead of max_idle_quanta^2.
std::optional<OrderOptimum> place_idle(const ScheduleEvaluator& evaluator,
                                       const SearchSpec& spec,
                                       const std::vector<std::size_t>& order,
                                       double limit_w, double& rejected_w) {
  const std::size_t budget = spec.max_idle_quanta;
  for (std::size_t q = std::min<std::size_t>(1, budget);;
       q = std::min(2 * q, budget)) {
    if (std::optional<OrderOptimum> found = place_idle_upto(
            evaluator, spec, order, q, limit_w, rejected_w))
      return found;
    if (q == budget) return std::nullopt;
  }
}

}  // namespace

OrderOptimum solve_order(const ScheduleEvaluator& evaluator,
                         const SearchSpec& spec,
                         const std::vector<std::size_t>& order) {
  const Candidate bare{order, std::vector<std::uint64_t>(order.size(), 0)};
  const Score bare_score = evaluator.score_one(bare);
  if (spec.peak_budget_w <= 0.0 ||
      bare_score.peak_power_w <= spec.peak_budget_w)
    return OrderOptimum{bare, bare_score, true};
  double rejected_w = 0.0;
  if (std::optional<OrderOptimum> optimum =
          place_idle(evaluator, spec, order, spec.peak_budget_w, rejected_w))
    return *optimum;

  // No placement meets the budget.  Feasibility is monotone in the limit:
  // bisect the doubles' bit patterns between lo (infeasible) and hi (a
  // placement's peak) until adjacent, when hi is the exact minimum peak.
  // A failed probe lifts lo under the least peak it turned away; every
  // other probe tries that floor (often the answer).  The result is the
  // program's placement at limit hi (`at_hi`, once a probe ran there).
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  double lo = std::nextafter(rejected_w, 0.0);
  double hi = bare_score.peak_power_w;
  std::optional<OrderOptimum> at_hi;
  for (bool floor_turn = true; bits(lo) + 1 < bits(hi);
       floor_turn = !floor_turn) {
    const double probe =
        floor_turn ? std::nextafter(lo, hi)
                   : std::bit_cast<double>(bits(lo) +
                                           (bits(hi) - bits(lo)) / 2);
    std::optional<OrderOptimum> found =
        place_idle(evaluator, spec, order, probe, rejected_w);
    if (!found) {
      lo = std::max(probe, std::nextafter(rejected_w, 0.0));
      continue;
    }
    hi = found->score.peak_power_w;
    at_hi = hi == probe ? std::move(found) : std::nullopt;
  }
  if (!at_hi) at_hi = place_idle(evaluator, spec, order, hi, rejected_w);
  SRAMLP_REQUIRE(at_hi.has_value(), "bisection lost its feasible bound");
  at_hi->meets_budget = false;
  return *at_hi;
}

ScheduleResult verify_schedule(const SearchSpec& spec,
                               const Candidate& candidate,
                               const Score& score) {
  march::MarchTest schedule = build_schedule(
      *spec.base, candidate, spec.base->name() + " [scheduled]");
  core::SessionConfig config = spec.config;
  power::TraceConfig trace;
  trace.window_cycles = spec.window_cycles;
  config.trace = trace;
  core::TestSession session(config);
  const core::SessionResult run = session.run(schedule);

  ScheduleResult result{std::move(schedule)};
  result.cycles = static_cast<std::uint64_t>(score.cycles);
  result.energy_j = score.energy_j;
  result.peak_power_w = score.peak_power_w;
  result.verified_peak_w = run.trace ? run.trace->peak_power_w : 0.0;
  const double tolerance = verify_tolerance(spec.config);
  const bool peak_ok =
      result.verified_peak_w > 0.0 &&
      std::abs(result.peak_power_w - result.verified_peak_w) <=
          tolerance * result.verified_peak_w;
  result.verified =
      run.mismatches == 0 && run.cycles == result.cycles && peak_ok;
  return result;
}

namespace {

/// One order's optimum, with its candidate key for the tie-breaks.
struct Entry {
  Candidate candidate;
  Score score;
  bool meets_budget = false;
  std::string key;
};

/// The front's reporting order: (peak, cycles, energy, key).
bool peak_first(const Entry* a, const Entry* b) {
  if (a->score.peak_power_w != b->score.peak_power_w)
    return a->score.peak_power_w < b->score.peak_power_w;
  if (a->score.cycles != b->score.cycles)
    return a->score.cycles < b->score.cycles;
  if (a->score.energy_j != b->score.energy_j)
    return a->score.energy_j < b->score.energy_j;
  return a->key < b->key;
}

/// The answer's ranking within budget: (cycles, peak, energy, key).
bool cycles_first(const Entry* a, const Entry* b) {
  if (a->score.cycles != b->score.cycles)
    return a->score.cycles < b->score.cycles;
  return peak_first(a, b);
}

}  // namespace

SearchOutcome detail::run_search_with(const SearchSpec& spec,
                                      unsigned threads,
                                      const Verify& verify) {
  spec.validate();
  const ScheduleEvaluator evaluator(spec.config, *spec.base,
                                    spec.window_cycles);
  const std::vector<std::vector<std::size_t>> orders = orders_of(spec);
  std::vector<Entry> optima(orders.size());
  engine::parallel_for(orders.size(), threads, [&](std::size_t o) {
    OrderOptimum optimum = solve_order(evaluator, spec, orders[o]);
    std::string key = optimum.candidate.key();
    optima[o] = Entry{std::move(optimum.candidate), optimum.score,
                      optimum.meets_budget, std::move(key)};
  });

  // The answer's ranking: the optima within budget by cycles, or, when no
  // order meets the budget, every optimum by peak.  Its head is the answer.
  const bool feasible =
      std::any_of(optima.begin(), optima.end(),
                  [](const Entry& entry) { return entry.meets_budget; });
  std::vector<const Entry*> ranking;
  for (const Entry& entry : optima)
    if (entry.meets_budget || !feasible) ranking.push_back(&entry);
  std::sort(ranking.begin(), ranking.end(),
            feasible ? cycles_first : peak_first);
  const Entry* answer = ranking.front();

  // The rest of the Pareto front over (peak, cycles) in reporting order:
  // one point per exact (peak, cycles, energy), none alike the answer.
  std::vector<const Entry*> others;
  for (const Entry& entry : optima)
    if (&entry != answer &&
        std::none_of(optima.begin(), optima.end(), [&](const Entry& other) {
          return dominates(other.score, entry.score);
        }))
      others.push_back(&entry);
  std::sort(others.begin(), others.end(), peak_first);
  const auto same_point = [](const Entry* a, const Entry* b) {
    return a->score.peak_power_w == b->score.peak_power_w &&
           a->score.cycles == b->score.cycles &&
           a->score.energy_j == b->score.energy_j;
  };
  others.erase(std::unique(others.begin(), others.end(), same_point),
               others.end());
  std::erase_if(others,
                [&](const Entry* entry) { return same_point(entry, answer); });

  // The answer plus max_front - 1 others spread evenly along the front.
  std::vector<const Entry*> reported{answer};
  const std::size_t spread = std::min(spec.max_front - 1, others.size());
  for (std::size_t i = 0; i < spread; ++i)
    reported.push_back(
        others[spread == 1 ? 0 : i * (others.size() - 1) / (spread - 1)]);

  std::vector<std::optional<ScheduleResult>> results(reported.size());
  engine::parallel_for(reported.size(), threads, [&](std::size_t i) {
    results[i] = verify(spec, reported[i]->candidate, reported[i]->score);
  });
  // A failed answer: verify down its ranking until a point passes.
  for (const Entry* entry : ranking) {
    const auto i = static_cast<std::size_t>(
        std::find(reported.begin(), reported.end(), entry) - reported.begin());
    if (i == reported.size()) {
      reported.push_back(entry);
      results.push_back(verify(spec, entry->candidate, entry->score));
    }
    if (results[i]->verified) break;
  }

  std::vector<std::size_t> by_peak(reported.size());
  std::iota(by_peak.begin(), by_peak.end(), std::size_t{0});
  std::sort(by_peak.begin(), by_peak.end(),
            [&](std::size_t a, std::size_t b) {
              return peak_first(reported[a], reported[b]);
            });
  SearchOutcome outcome;
  outcome.front.reserve(by_peak.size());
  for (const std::size_t i : by_peak)
    outcome.front.push_back(std::move(*results[i]));
  return outcome;
}

SearchOutcome run_search(const SearchSpec& spec, unsigned threads) {
  return detail::run_search_with(spec, threads, verify_schedule);
}

RestartResult run_restart(const SearchSpec& spec, std::size_t restart) {
  SRAMLP_REQUIRE(restart == 0, "a search job is one work item (index 0)");
  return run_search(spec, 1);
}

PaddedBaseline naive_idle_padding(const SearchSpec& spec) {
  spec.validate();
  const march::MarchTest& base = *spec.base;
  const std::size_t n = base.elements().size();
  ScheduleEvaluator evaluator(spec.config, base, spec.window_cycles);

  PaddedBaseline best{identity_candidate(n), Score{}, false};
  best.score = evaluator.score_one(best.candidate);
  if (spec.peak_budget_w <= 0.0 ||
      best.score.peak_power_w <= spec.peak_budget_w) {
    best.meets_budget = true;
    return best;
  }
  const std::size_t slots = n > 1 ? n - 1 : 0;
  double previous_peak = best.score.peak_power_w;
  // The solver's idle budget bounds the padding too: at most
  // max_idle_quanta quanta over all slots.
  const std::size_t most = slots > 0 ? spec.max_idle_quanta / slots : 0;
  for (std::uint64_t quanta = 1; quanta <= most; ++quanta) {
    Candidate padded = identity_candidate(n);
    for (std::size_t s = 0; s < slots; ++s)
      padded.idle_after[s] = quanta * spec.idle_quantum;
    const Score score = evaluator.score_one(padded);
    best.candidate = std::move(padded);
    best.score = score;
    if (score.peak_power_w <= spec.peak_budget_w) {
      best.meets_budget = true;
      break;
    }
    // Padding has a floor (a window inside one hot element); stop once it
    // stops helping.
    if (quanta > 1 && score.peak_power_w >= previous_peak) break;
    previous_peak = score.peak_power_w;
  }
  return best;
}

}  // namespace sramlp::search
