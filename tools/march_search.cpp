// march_search — peak-constrained March schedule search front-end.
//
// Solves, for every valid element order of a base March test, the
// shortest idle placement (search/schedule.h) under a peak-window power
// budget, exactly (search/search.h), and reports up to --max-front points
// of the Pareto front over (peak-window power, test cycles) of those
// optima — always including the answer, the fewest-cycle point within
// budget — each re-verified cycle-accurate.  Two execution modes producing
// byte-identical output:
//
//   march_search [knobs] --out front.json            local (engine::
//                                                    parallel_for over
//                                                    orders and points)
//   march_search [knobs] --connect A --out front.json
//                                                    via a running
//                                                    `sramlp_dist serve`
//                                                    daemon (the job is
//                                                    one work item, run by
//                                                    one of its workers
//                                                    and cached)
//
// The emitted document is exactly `sramlp_dist single` on the equivalent
// search job: {"kind":"search","front":[...]} with exact-round-trip
// doubles, so fronts can be diffed byte for byte across hosts, thread
// counts and services.
//
// The human summary lists each order's optimum, and compares the best
// against the naive alternative at the same budget — keeping the base
// order and padding uniform idle after every element — which is the "how
// much test time does peak shaping actually cost" question the tool exists
// to answer.  The padding gets the same idle allowance as the solver
// (--max-idle-quanta quanta in total).  When no order meets the budget it prints the exact minimum
// peak any schedule on the idle grid can reach.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "cli.h"
#include "dist/job.h"
#include "dist/service.h"
#include "io/serialize.h"
#include "march/algorithms.h"
#include "obs/log.h"
#include "search/evaluator.h"
#include "search/schedule.h"
#include "search/search.h"
#include "search/serialize.h"
#include "util/error.h"

namespace {

using namespace sramlp;
using cli::Args;
using cli::read_file;
using cli::write_file;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "\n"
      "spec source (pick one, or use the knobs below):\n"
      "  --spec F            full search::SearchSpec JSON\n"
      "  --job F             dist job spec of kind 'search'\n"
      "                      (e.g. `sramlp_dist example-job --search`)\n"
      "\n"
      "knobs (defaults in parens):\n"
      "  --rows R --cols C --width W   geometry (16 32 1)\n"
      "  --algorithm march_c-|mats+    base test (march_c-)\n"
      "  --low-power                   low-power test mode pre-charge\n"
      "  --budget W                    peak budget in watts (0 = pure\n"
      "                                Pareto sweep, no constraint)\n"
      "  --budget-scale S              budget = S x the BASE schedule's\n"
      "                                peak (e.g. 0.97; overrides --budget)\n"
      "  --window N                    peak-window cycles (4 x words)\n"
      "  --max-front F (8)             most front points reported: the\n"
      "                                answer (fewest cycles within\n"
      "                                budget, else least peak) plus F-1\n"
      "                                others spread along the front\n"
      "  --idle-quantum Q (1024)  --max-idle-quanta M (16, at most 4096)\n"
      "                                idle grid of the solver and of the\n"
      "                                naive padding it is compared with\n"
      "\n"
      "execution:\n"
      "  --threads N         local fan-out over orders and front points\n"
      "                      (0 = hardware)\n"
      "  --connect A         submit to a sweep service instead\n"
      "  --submitter NAME    fairness label with --connect\n"
      "  --out F             write the Pareto JSON document (byte-identical\n"
      "                      to `sramlp_dist single` on the same job)\n"
      "  --quiet             suppress the human summary\n"
      "\n"
      "  [--log-level L] [--log-format human|jsonl] [--log-file PATH]\n"
      "  [--log-max-bytes N]\n",
      argv0);
  std::exit(2);
}

search::SearchSpec spec_from_args(Args& args) {
  if (const auto spec_path = args.value("--spec"))
    return io::search_spec_from_json(
        io::JsonValue::parse(read_file(*spec_path)));
  if (const auto job_path = args.value("--job")) {
    const dist::JobSpec job =
        dist::job_from_json(io::JsonValue::parse(read_file(*job_path)));
    if (!job.search) throw Error("--job needs a job spec of kind 'search'");
    return *job.search;
  }
  search::SearchSpec spec;
  spec.config.geometry = {args.number("--rows", 16),
                          args.number("--cols", 32),
                          args.number("--width", 1)};
  if (args.flag("--low-power")) spec.config.mode = sram::Mode::kLowPowerTest;
  const std::string algorithm =
      args.value("--algorithm").value_or("march_c-");
  if (algorithm == "march_c-") {
    spec.base = march::algorithms::march_c_minus();
  } else if (algorithm == "mats+") {
    spec.base = march::algorithms::mats_plus();
  } else {
    throw Error("--algorithm must be march_c- or mats+, got '" + algorithm +
                "'");
  }
  spec.peak_budget_w = args.real("--budget", 0.0);
  spec.window_cycles =
      args.number("--window", 4 * spec.config.geometry.words());
  spec.idle_quantum = args.number("--idle-quantum", spec.idle_quantum);
  spec.max_idle_quanta =
      args.number("--max-idle-quanta", spec.max_idle_quanta);
  spec.max_front = args.number("--max-front", spec.max_front);
  return spec;
}

/// Parse the front back out of the document — the summary reports what
/// was WRITTEN (local or service, computed or cache-replayed), not a
/// separate computation that could drift from it.
std::vector<search::ScheduleResult> front_of_document(
    const std::string& document) {
  const io::JsonValue doc = io::JsonValue::parse(document);
  const io::JsonValue& points = doc.at("front");
  std::vector<search::ScheduleResult> front;
  front.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    front.push_back(io::schedule_result_from_json(points.at(i)));
  return front;
}

int run(Args& args) {
  search::SearchSpec spec = spec_from_args(args);
  const double budget_scale = args.real("--budget-scale", 0.0);
  const std::size_t threads = args.number("--threads", 0);
  const std::optional<std::string> connect = args.value("--connect");
  const std::string submitter = args.value("--submitter").value_or("");
  const std::optional<std::string> out_path = args.value("--out");
  const bool quiet = args.flag("--quiet");
  args.reject_leftovers();
  spec.validate();

  // The base schedule's analytic score anchors both the --budget-scale
  // resolution and the summary; the evaluator is exactly the search's own
  // scoring path, so "base peak" here is the number the search optimises.
  search::ScheduleEvaluator evaluator(spec.config, *spec.base,
                                      spec.window_cycles);
  const search::Score base =
      evaluator.score_one(search::identity_candidate(evaluator.elements()));
  if (budget_scale > 0.0) spec.peak_budget_w = budget_scale * base.peak_power_w;

  dist::JobSpec job;
  job.kind = dist::JobSpec::Kind::kSearch;
  job.search = spec;
  std::string document;
  if (connect) {
    const dist::SubmitResult result =
        dist::submit_job(*connect, job, 5000, {}, submitter);
    document = result.document;
    if (!quiet)
      std::printf("service %s: %zu items (%zu from cache), whole-job "
                  "cache %s\n",
                  connect->c_str(), result.total_points, result.cached_points,
                  result.cache_hit ? "HIT" : "miss");
  } else {
    document = dist::single_document(job, static_cast<unsigned>(threads));
  }
  if (out_path) write_file(*out_path, document);

  if (!quiet) {
    const std::vector<search::ScheduleResult> front =
        front_of_document(document);
    const search::PaddedBaseline naive = search::naive_idle_padding(spec);
    std::printf(
        "base %s on %zux%zux%zu (%s), window %llu cycles:\n"
        "  peak %.6f W, %llu cycles, %.6e J\n",
        spec.base->name().c_str(), spec.config.geometry.rows,
        spec.config.geometry.cols, spec.config.geometry.word_width,
        spec.config.mode == sram::Mode::kLowPowerTest ? "low-power"
                                                      : "functional",
        static_cast<unsigned long long>(spec.window_cycles),
        base.peak_power_w, static_cast<unsigned long long>(base.cycles),
        base.energy_j);
    if (spec.peak_budget_w > 0.0)
      std::printf("budget %.6f W (%.1f%% of base peak)\n", spec.peak_budget_w,
                  100.0 * spec.peak_budget_w / base.peak_power_w);
    // Each order's optimum, re-solved here (a millisecond each): the
    // document reports at most max_front points of their Pareto set.
    const std::vector<std::vector<std::size_t>> orders =
        search::valid_orders(evaluator.conds());
    bool any_meets = false;
    double min_peak = base.peak_power_w;
    std::printf("element orders (%zu), optimum of each:\n", orders.size());
    for (const std::vector<std::size_t>& order : orders) {
      const search::OrderOptimum optimum =
          search::solve_order(evaluator, spec, order);
      std::printf("  %-40s %8llu cycles  peak %.6f W%s\n",
                  optimum.candidate.key().c_str(),
                  static_cast<unsigned long long>(optimum.score.cycles),
                  optimum.score.peak_power_w,
                  optimum.meets_budget ? "" : "  over budget (minimum peak)");
      any_meets = any_meets || optimum.meets_budget;
      min_peak = std::min(min_peak, optimum.score.peak_power_w);
    }
    if (!any_meets)
      std::printf("no element order meets the budget: the minimum peak on "
                  "this idle grid is %.6f W (%.1f%% of base peak)\n",
                  min_peak, 100.0 * min_peak / base.peak_power_w);
    std::printf("front (%zu points):\n", front.size());
    for (const search::ScheduleResult& point : front)
      std::printf("  peak %.6f W  %8llu cycles  %.6e J  %s\n",
                  point.peak_power_w,
                  static_cast<unsigned long long>(point.cycles),
                  point.energy_j,
                  point.verified ? "verified" : "UNVERIFIED");
    if (spec.peak_budget_w > 0.0) {
      const search::ScheduleResult* best = nullptr;
      for (const search::ScheduleResult& point : front)
        if (point.verified && point.peak_power_w <= spec.peak_budget_w &&
            (!best || point.cycles < best->cycles))
          best = &point;
      if (naive.meets_budget)
        std::printf("naive idle padding meets the budget at %llu cycles "
                    "(peak %.6f W)\n",
                    static_cast<unsigned long long>(naive.score.cycles),
                    naive.score.peak_power_w);
      else
        std::printf("naive idle padding CANNOT meet the budget within the "
                    "idle allowance (best peak %.6f W)\n",
                    naive.score.peak_power_w);
      if (best) {
        std::printf("search meets the budget at %llu cycles (peak %.6f W)",
                    static_cast<unsigned long long>(best->cycles),
                    best->peak_power_w);
        if (naive.meets_budget && naive.score.cycles > 0.0)
          std::printf(", %.1f%% of the naive schedule's time",
                      100.0 * static_cast<double>(best->cycles) /
                          naive.score.cycles);
        std::printf("\n");
      } else {
        std::printf("search found NO verified schedule under the budget\n");
      }
    }
    if (out_path) std::printf("front written to %s\n", out_path->c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv, 1);
  if (args.flag("--help") || args.flag("-h")) usage(argv[0]);
  try {
    cli::apply_logging_flags(args);
    return run(args);
  } catch (const std::exception& e) {
    obs::log_error("cli", "march_search failed", {obs::kv("error", e.what())});
    return 1;
  }
}
