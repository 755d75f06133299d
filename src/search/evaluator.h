// The memoized analytic schedule evaluator — the search's scoring path.
//
// Scoring a candidate from scratch would re-run the closed-form analytic
// model per candidate.  This evaluator instead precomputes, ONCE per
// (config, base test) pair, each base element's closed-form contribution:
//
//   rate   — per-cycle supply expectation (engine::analytic_element_rate,
//            the exact arithmetic of the AnalyticBackend's traced
//            per-element attribution; idle rate for pauses),
//   cycles — the element's span (MarchTest::element_cycles — the shared
//            boundary arithmetic of both engines' traces).
//
// A candidate score is then an O(elements) composition of the cached
// segments: total energy, total cycles and the fixed-window peak profile
// (power::PowerTrace window semantics, including the partial trailing
// window), walked segment by segment with ScoreWalk.
#pragma once

#include <cstdint>
#include <vector>

#include "core/session.h"
#include "march/test.h"
#include "search/schedule.h"

namespace sramlp::search {

/// Analytic score of one candidate schedule.
struct Score {
  double energy_j = 0.0;
  double cycles = 0.0;        ///< integer-valued (exact below 2^53)
  double peak_window_j = 0.0; ///< max fixed-window supply energy
  double peak_power_w = 0.0;  ///< peak_window_j over one full window
};

/// Running score of a schedule fed one constant-rate segment at a time:
/// total energy, total cycles and the max energy of any fixed window of
/// `window` cycles aligned at cycle 0 — exactly power::PowerTrace's
/// fixed-window peak, a trailing partial window included.  All cycle
/// counts are integer-valued doubles < 2^53, for which floor(rem / window)
/// is exact: the correctly-rounded quotient of integers below 2^53 can
/// never round across the next integer.
struct ScoreWalk {
  double window = 1.0;
  double energy_j = 0.0;
  double cycles = 0.0;
  double fill = 0.0;  ///< cycles in the current partial window
  double acc = 0.0;   ///< joules in the current partial window
  double peak = 0.0;  ///< max closed-window energy so far

  /// Fold @p span cycles at @p rate J/cycle: a head that closes the
  /// current window if it crosses, m full windows of rate * window each,
  /// and a tail that reopens the partial window.  A zero-cycle segment is a
  /// no-op.
  void add(double rate, double span);
  /// The trailing partial window is rated against the full window width by
  /// PowerTrace, so its energy competes for the peak as-is.
  double peak_window_j() const;
};

class ScheduleEvaluator {
 public:
  /// @p window_cycles is the peak-window width (>= 1); pick a thermal-scale
  /// window (a few element spans) — windows much narrower than one element
  /// land entirely inside it, where no schedule move can help.
  ScheduleEvaluator(const core::SessionConfig& config,
                    const march::MarchTest& base,
                    std::uint64_t window_cycles);

  std::size_t elements() const { return rates_.size(); }
  const std::vector<StateCond>& conds() const { return conds_; }
  double window_seconds() const { return window_seconds_; }

  /// Walks the schedule's slots in order: each element, then its trailing
  /// idle window (a no-op when it has zero cycles).  Const and thread-safe.
  Score score_one(const Candidate& candidate) const;

  /// score_one's steps, for the exact solver's slot-at-a-time walks: an
  /// empty walk, one base element, idle cycles, the finished Score.
  ScoreWalk start_walk() const { return ScoreWalk{.window = window_cycles_}; }
  void add_element(ScoreWalk& walk, std::size_t element) const {
    walk.add(rates_[element], cycles_[element]);
  }
  void add_idle(ScoreWalk& walk, std::uint64_t cycles) const {
    walk.add(idle_rate_, static_cast<double>(cycles));
  }
  Score finish(const ScoreWalk& walk) const;

 private:
  std::vector<double> rates_;   ///< per base element [J/cycle]
  std::vector<double> cycles_;  ///< per base element span
  std::vector<StateCond> conds_;
  double idle_rate_ = 0.0;
  double window_cycles_ = 0.0;
  double window_seconds_ = 0.0;
};

}  // namespace sramlp::search
