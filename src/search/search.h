// Peak-constrained March schedule search (see ROADMAP: use the PR 5
// per-element peak data as an objective).
//
// Given a peak-power budget, search over validity-preserving schedules of
// a base March test — element reorders, inserted idle windows, idle
// redistribution (search/schedule.h) — for schedules minimising test time
// and energy while staying under the cap.  The scan-test literature
// (arXiv 1106.2794, 0710.4653) does this budget-constrained scheduling
// for scan chains; the memoized analytic evaluator (search/evaluator.h)
// makes the SRAM March version nearly free per candidate.
//
// Determinism contract: run_restart(spec, r) is a pure function of
// (spec, r) — its RNG is util::Rng keyed by spec.seed and r, its scores
// come from the evaluator's fixed-order double arithmetic (no FMA
// contraction), and its winner verification runs the parity-locked
// cycle-accurate engine.  run_search fans restarts out over
// engine::parallel_for with one result slot per restart and reduces in
// restart order, so the same spec produces byte-identical serialized
// results whatever the thread count, shard count, or host — the dist/
// 'search' job kind rides on exactly this.
//
// Each restart walks a seeded beam search: neighbours of every beam
// member are scored as one batch, the beam keeps the best
// scalarised costs (restart-dependent peak-vs-time weight, hard budget
// penalty), and every scored candidate feeds a Pareto archive over
// (peak power, test cycles).  The restart's surviving front is verified
// cycle-accurate — zero read mismatches, exact cycle count, analytic
// peak within the PR 5 trace-parity tolerance — before it is reported.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/session.h"
#include "march/test.h"
#include "search/evaluator.h"
#include "search/schedule.h"

namespace sramlp::search {

/// One search job: base test, objective, budget and search knobs.
struct SearchSpec {
  core::SessionConfig config;  ///< geometry/tech/mode of the sweep point
  /// Base March test (optional only to keep the spec default-constructible,
  /// like dist::JobSpec::test; validate() requires it).
  std::optional<march::MarchTest> base;
  /// Peak-window power budget [W]; 0 = unconstrained (pure Pareto sweep).
  double peak_budget_w = 0.0;
  /// Peak-window width in cycles.  Pick a thermal-scale window of a few
  /// element spans (e.g. 4 * geometry.words()): schedule moves only have
  /// leverage on windows that straddle element boundaries.
  std::uint64_t window_cycles = 65536;
  std::uint64_t seed = 1;
  std::size_t restarts = 8;    ///< independent seeded restarts (fan-out unit)
  std::size_t steps = 96;      ///< beam iterations per restart
  std::size_t beam_width = 8;
  std::size_t neighbors = 16;  ///< candidates per beam member per step
  std::uint64_t idle_quantum = 1024;
  std::size_t max_idle_quanta = 16;
  std::size_t max_front = 8;   ///< verified winners kept per restart

  void validate() const;
  std::size_t size() const { return restarts; }
};

/// One verified point of a restart's Pareto front.
struct ScheduleResult {
  march::MarchTest schedule;      ///< runnable (both engines, serializable)
  std::uint64_t cycles = 0;       ///< test time in cycles
  double energy_j = 0.0;          ///< analytic total supply energy
  double peak_power_w = 0.0;      ///< analytic peak-window power
  double verified_peak_w = 0.0;   ///< cycle-accurate measured peak
  bool verified = false;          ///< mismatch-free + cycles exact + peak
                                  ///< within the trace-parity tolerance
};

/// Everything one restart reports.  Default-constructible (dist/ merge
/// slots); `front` is sorted by (peak asc, cycles asc, energy asc).
struct RestartResult {
  std::size_t restart = 0;
  std::vector<ScheduleResult> front;
};

/// The whole search: per-restart results plus the merged global front.
struct SearchOutcome {
  std::vector<RestartResult> restarts;
  std::vector<ScheduleResult> front;
};

/// Run restart @p restart of @p spec — a pure function of its arguments
/// (see the determinism contract above).
RestartResult run_restart(const SearchSpec& spec, std::size_t restart);

/// All restarts over engine::parallel_for (0 threads = hardware count),
/// merged with merge_front.  Byte-identical results at any thread count.
SearchOutcome run_search(const SearchSpec& spec, unsigned threads = 0);

/// Deterministic global Pareto front over per-restart fronts: restart-order
/// scan, (peak_power_w, cycles) dominance, exact-duplicate dedup, sorted by
/// (peak asc, cycles asc, energy asc).  This is the reduction the dist/
/// job-kind merge (dist/job.h) and run_search share — the merged front
/// depends only on the per-restart results, never on who merged them.
std::vector<ScheduleResult> merge_front(
    const std::vector<RestartResult>& restarts);

/// The naive baseline the search must beat: keep the base order and pad a
/// uniform idle quantum count after every element (growing until the peak
/// budget is met or the idle budget is exhausted).  Used by the
/// march_search tool and tests to report "search time vs naive-padding
/// time at the same budget".
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
