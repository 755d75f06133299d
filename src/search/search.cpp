#include "search/search.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
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
  SRAMLP_REQUIRE(restarts > 0, "search needs at least one work item");
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

std::size_t SearchSpec::size() const {
  return std::min(restarts, orders_of(*this).size());
}

double verify_tolerance(const core::SessionConfig& config) {
  // The PR 5 analytic-vs-measured trace parity bounds (test_engine.cpp):
  // the closed-form per-element attribution tracks the cycle-accurate
  // measurement within 1% in functional mode, 5% in low-power mode.
  return config.mode == sram::Mode::kLowPowerTest ? 5e-2 : 1e-2;
}

namespace {

/// Dominance on the reported front: minimise (peak power, test time), of
/// Scores or ScheduleResults (integer-valued cycles either way).
template <typename Point>
bool dominates(const Point& a, const Point& b) {
  return a.peak_power_w <= b.peak_power_w && a.cycles <= b.cycles &&
         (a.peak_power_w < b.peak_power_w || a.cycles < b.cycles);
}

struct Entry {
  Candidate candidate;
  Score score;
  std::string key;
};

/// Build the winner's runnable schedule, then hold it to the
/// cycle-accurate standard: re-run it traced on the parity-locked engine
/// and require zero read mismatches (the validity chain held), the exact
/// analytic cycle count, and an analytic peak within the trace-parity
/// tolerance of the measured one.
ScheduleResult verify_winner(const SearchSpec& spec,
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

RestartResult run_restart(const SearchSpec& spec, std::size_t restart) {
  spec.validate();
  const ScheduleEvaluator evaluator(spec.config, *spec.base,
                                    spec.window_cycles);
  const std::vector<std::vector<std::size_t>> orders = orders_of(spec);
  const std::size_t items = std::min(spec.restarts, orders.size());
  SRAMLP_REQUIRE(restart < items, "search item index out of range");

  std::vector<Entry> optima;
  for (std::size_t o = restart; o < orders.size(); o += items) {
    const OrderOptimum optimum = solve_order(evaluator, spec, orders[o]);
    optima.push_back(
        Entry{optimum.candidate, optimum.score, optimum.candidate.key()});
  }
  // Their Pareto set over (peak, cycles); each order is one distinct
  // candidate, so there are no duplicates to drop.
  std::vector<Entry> archive;
  for (const Entry& entry : optima)
    if (std::none_of(optima.begin(), optima.end(), [&](const Entry& other) {
          return dominates(other.score, entry.score);
        }))
      archive.push_back(entry);

  // Reduce the archive to the reported front: sort by (peak, cycles,
  // energy, key), then keep at most max_front points spread evenly across
  // it so both front endpoints survive the cap.
  std::stable_sort(archive.begin(), archive.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.score.peak_power_w != b.score.peak_power_w)
                       return a.score.peak_power_w < b.score.peak_power_w;
                     if (a.score.cycles != b.score.cycles)
                       return a.score.cycles < b.score.cycles;
                     if (a.score.energy_j != b.score.energy_j)
                       return a.score.energy_j < b.score.energy_j;
                     return a.key < b.key;
                   });
  std::vector<const Entry*> winners;
  if (archive.size() <= spec.max_front) {
    for (const Entry& entry : archive) winners.push_back(&entry);
  } else if (spec.max_front == 1) {
    winners.push_back(&archive.front());
  } else {
    for (std::size_t i = 0; i < spec.max_front; ++i) {
      const std::size_t index =
          (i * (archive.size() - 1)) / (spec.max_front - 1);
      if (!winners.empty() && winners.back() == &archive[index]) continue;
      winners.push_back(&archive[index]);
    }
  }

  RestartResult result;
  result.restart = restart;
  result.front.reserve(winners.size());
  for (const Entry* winner : winners)
    result.front.push_back(
        verify_winner(spec, winner->candidate, winner->score));
  return result;
}

SearchOutcome run_search(const SearchSpec& spec, unsigned threads) {
  spec.validate();
  SearchOutcome outcome;
  outcome.restarts.resize(spec.size());
  engine::parallel_for(outcome.restarts.size(), threads, [&](std::size_t i) {
    outcome.restarts[i] = run_restart(spec, i);
  });
  outcome.front = merge_front(outcome.restarts);
  return outcome;
}

std::vector<ScheduleResult> merge_front(
    const std::vector<RestartResult>& restarts) {
  std::vector<const ScheduleResult*> all;
  for (const RestartResult& restart : restarts)
    for (const ScheduleResult& result : restart.front)
      all.push_back(&result);

  std::vector<ScheduleResult> front;
  for (const ScheduleResult* candidate : all) {
    // dominates() is strict, so a point never drops itself.
    if (std::any_of(all.begin(), all.end(), [&](const ScheduleResult* other) {
          return dominates(*other, *candidate);
        }))
      continue;
    if (std::none_of(front.begin(), front.end(),
                     [&](const ScheduleResult& kept) {
                       return kept.peak_power_w == candidate->peak_power_w &&
                              kept.cycles == candidate->cycles &&
                              kept.energy_j == candidate->energy_j;
                     }))
      front.push_back(*candidate);
  }
  std::stable_sort(front.begin(), front.end(),
                   [](const ScheduleResult& a, const ScheduleResult& b) {
                     if (a.peak_power_w != b.peak_power_w)
                       return a.peak_power_w < b.peak_power_w;
                     if (a.cycles != b.cycles) return a.cycles < b.cycles;
                     return a.energy_j < b.energy_j;
                   });
  return front;
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
  // Uniform padding is deliberately NOT bounded by max_idle_quanta: it is
  // the naive competitor, free to burn as much test time as it needs.
  for (std::uint64_t quanta = 1; slots > 0 && quanta <= 1u << 14; ++quanta) {
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
