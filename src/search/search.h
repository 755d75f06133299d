// Peak-constrained March schedule search: given a peak-power budget, the
// shortest validity-preserving schedule of a base March test — an element
// order plus idle windows between elements (search/schedule.h) — whose
// fixed-window peak stays under the cap.  Scan-test scheduling under a
// power cap (arXiv 1106.2794, 0710.4653) needs heuristics; a March test's
// space is small enough to solve exactly.
//
// The solver.  valid_orders lists the orders the read-state chain allows
// (4 for March C- and SS, 2 for SR, 8 for G).  solve_order places idle in
// each with a dynamic program over (slot s, quanta used k): every path to
// (s, k) ends at the same cycle, so among those whose closed windows are
// within budget the least open-window energy (ScoreWalk::acc) dominates.
// The optimum is the least k whose completed walk is within budget; ties
// go to the first path found (smaller predecessor k, then smaller idle).
// Slots are walked as score_one walks them, so the winner's Score is
// bit-identical to score_one's.  When no placement meets the budget, the
// budget is bisected over the same program (feasibility is monotone in
// it) and the exact minimum-peak placement is reported, over budget.  With
// no budget (0), an order's optimum is its zero-idle schedule.
//
// Item r of size() = min(restarts, valid orders) solves orders r,
// r + size(), …; its front is the Pareto set of their optima, cut to
// max_front points, each verified cycle-accurate (zero read mismatches,
// exact cycle count, analytic peak within verify_tolerance).
// run_restart(spec, r) is a pure function of (spec, r): no random
// numbers, fixed-order double arithmetic (no FMA contraction), the
// parity-locked engine.  run_search reduces items in item order, so a spec
// serializes byte-identically at any thread count, shard count or host —
// the dist/ 'search' job kind rides on exactly this.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/session.h"
#include "march/test.h"
#include "search/evaluator.h"
#include "search/schedule.h"

namespace sramlp::search {

/// Input caps: solve_order walks O(elements x Q^2) segments and keeps
/// O(elements x Q) back-pointers (one pass ~1 s at the caps), and
/// valid_orders walks all (elements - 2)! interior permutations.
inline constexpr std::size_t kMaxIdleQuanta = 4096;
inline constexpr std::size_t kMaxSearchElements = 10;

/// One search job: base test, budget and the idle grid.
struct SearchSpec {
  core::SessionConfig config;  ///< geometry/tech/mode of the sweep point
  /// Base March test (optional only to keep the spec default-constructible,
  /// like dist::JobSpec::test; validate() requires it).
  std::optional<march::MarchTest> base;
  /// Peak-window power budget [W]; 0 = unconstrained (each order's
  /// optimum is its zero-idle schedule).
  double peak_budget_w = 0.0;
  /// Peak-window width in cycles.  Pick a thermal-scale window of a few
  /// element spans (e.g. 4 * geometry.words()): idle only has leverage on
  /// windows that straddle element boundaries.
  std::uint64_t window_cycles = 65536;
  /// Unused by the solver.  Kept on the wire and in the job fingerprint,
  /// so specs that differ only here stay distinct jobs.
  std::uint64_t seed = 1;
  /// Most work items: size() = min(restarts, valid orders).
  std::size_t restarts = 8;
  std::size_t steps = 96;  ///< unused by the solver; kept on the wire
  std::uint64_t idle_quantum = 1024;
  std::size_t max_idle_quanta = 16;  ///< idle budget over the schedule
  std::size_t max_front = 8;   ///< verified winners kept per item

  void validate() const;
  std::size_t size() const;
};

/// One verified point of an item's Pareto front.
struct ScheduleResult {
  march::MarchTest schedule;      ///< runnable (both engines, serializable)
  std::uint64_t cycles = 0;       ///< test time in cycles
  double energy_j = 0.0;          ///< analytic total supply energy
  double peak_power_w = 0.0;      ///< analytic peak-window power
  double verified_peak_w = 0.0;   ///< cycle-accurate measured peak
  bool verified = false;          ///< mismatch-free + cycles exact + peak
                                  ///< within the trace-parity tolerance
};

/// Everything one work item reports.  Default-constructible (dist/ merge
/// slots); `front` is sorted by (peak asc, cycles asc, energy asc).
struct RestartResult {
  std::size_t restart = 0;  ///< the item index
  std::vector<ScheduleResult> front;
};

/// The whole search: per-item results plus the merged global front.
struct SearchOutcome {
  std::vector<RestartResult> restarts;
  std::vector<ScheduleResult> front;
};

/// The optimum of one element order (see the file comment).
struct OrderOptimum {
  Candidate candidate;
  Score score;  ///< bit-identical to evaluator.score_one(candidate)
  /// False when no placement meets the budget: candidate is then the
  /// least-idle placement at the exact minimum peak.
  bool meets_budget = false;
};

/// Solve @p order (a valid order of spec.base) exactly over spec's idle
/// grid and budget.
OrderOptimum solve_order(const ScheduleEvaluator& evaluator,
                         const SearchSpec& spec,
                         const std::vector<std::size_t>& order);

/// Work item @p restart of @p spec — a pure function of its arguments
/// (see the file comment).
RestartResult run_restart(const SearchSpec& spec, std::size_t restart);

/// All items over engine::parallel_for (0 threads = hardware count),
/// merged with merge_front.  Byte-identical results at any thread count.
SearchOutcome run_search(const SearchSpec& spec, unsigned threads = 0);

/// Deterministic global Pareto front over per-item fronts: item-order
/// scan, (peak_power_w, cycles) dominance, exact-duplicate dedup, sorted by
/// (peak asc, cycles asc, energy asc).  This is the reduction the dist/
/// job-kind merge (dist/job.h) and run_search share — the merged front
/// depends only on the per-item results, never on who merged them.
std::vector<ScheduleResult> merge_front(
    const std::vector<RestartResult>& restarts);

/// The naive baseline the search must beat: keep the base order and pad a
/// uniform idle quantum count after every element (growing until the peak
/// budget is met or padding stops helping), so its length moves in steps
/// of (elements - 1) x idle_quantum.  Used by the march_search tool and
/// tests to report "search time vs naive-padding time at the same budget".
struct PaddedBaseline {
  Candidate candidate;
  Score score;
  bool meets_budget = false;
};
PaddedBaseline naive_idle_padding(const SearchSpec& spec);

/// Relative peak-power tolerance for winner verification: the PR 5
/// analytic-vs-measured trace parity bound (test_engine.cpp).
double verify_tolerance(const core::SessionConfig& config);

}  // namespace sramlp::search
