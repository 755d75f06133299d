#include "workloads.h"

#include <algorithm>
#include <array>
#include <map>
#include <utility>
#include <vector>

#include "faults/models.h"
#include "march/algorithms.h"
#include "search/evaluator.h"
#include "util/error.h"

namespace perfbench {

using sramlp::dist::JobSpec;
using sramlp::march::MarchTest;
using sramlp::sram::DataBackground;
using sramlp::sram::Geometry;
namespace algorithms = sramlp::march::algorithms;

namespace {

/// Sweep geometries: square 64²–1024², non-square, word width 4 and 8.
const std::array<Geometry, 16> kSweepGeometries = {{
    {64, 64, 1},    {128, 128, 1},  {256, 256, 1},   {512, 512, 1},
    {1024, 1024, 1}, {128, 512, 1}, {512, 128, 1},   {64, 1024, 1},
    {1024, 256, 1}, {256, 256, 4},  {512, 512, 4},   {512, 1024, 4},
    {256, 1024, 8}, {128, 256, 8},  {1024, 512, 8},  {1024, 1024, 8},
}};

const std::array<Geometry, 3> kCampaignGeometries = {{
    {128, 128, 1}, {192, 192, 1}, {256, 256, 1}}};

const std::array<Geometry, 3> kSearchGeometries = {{
    {128, 128, 1}, {256, 256, 1}, {512, 512, 1}}};

std::vector<MarchTest> campaign_tests() {
  return {algorithms::march_c_minus(), algorithms::march_ss(),
          algorithms::mats_plus()};
}

std::vector<MarchTest> search_tests() {
  return {algorithms::march_c_minus(), algorithms::march_ss(),
          algorithms::march_sr(), algorithms::march_g()};
}

std::string geometry_label(const Geometry& g) {
  return std::to_string(g.rows) + "x" + std::to_string(g.cols) + "x" +
         std::to_string(g.word_width);
}

/// @p count distinct indices of [0, n), in draw order.
std::vector<std::size_t> pick_distinct(std::size_t n, std::size_t count,
                                       sramlp::util::Rng& rng) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  sramlp::util::shuffle(all, rng);
  all.resize(count);
  return all;
}

}  // namespace

Workload workload_from_name(const std::string& name) {
  if (name == "sweep_analytic") return Workload::kSweepAnalytic;
  if (name == "campaign_faults") return Workload::kCampaignFaults;
  if (name == "schedule_search") return Workload::kScheduleSearch;
  throw sramlp::Error("unknown workload '" + name +
                      "' (sweep_analytic | campaign_faults | "
                      "schedule_search)");
}

std::string to_name(Workload workload) {
  switch (workload) {
    case Workload::kSweepAnalytic: return "sweep_analytic";
    case Workload::kCampaignFaults: return "campaign_faults";
    case Workload::kScheduleSearch: return "schedule_search";
  }
  return "?";
}

std::string to_name(Reuse reuse) {
  switch (reuse) {
    case Reuse::kFresh: return "fresh";
    case Reuse::kResubmit: return "resubmit";
    case Reuse::kOverlap: return "overlap";
  }
  return "?";
}

JobStream::JobStream(Workload workload, std::uint64_t seed)
    : workload_(workload),
      rng_(seed ^ (0xB5AD4ECEDA1CE2A9ull *
                   (static_cast<std::uint64_t>(workload) + 1))) {}

std::size_t JobStream::block_size() const {
  switch (workload_) {
    case Workload::kSweepAnalytic: return 1;
    case Workload::kCampaignFaults:
      return kCampaignGeometries.size() * campaign_tests().size();
    case Workload::kScheduleSearch:
      return kSearchGeometries.size() * search_tests().size();
  }
  return 1;
}

GeneratedJob JobStream::next() {
  switch (workload_) {
    case Workload::kSweepAnalytic: return next_sweep();
    case Workload::kCampaignFaults: return next_campaign();
    case Workload::kScheduleSearch: return next_search();
  }
  throw sramlp::Error("unknown workload");
}

std::size_t JobStream::next_stratum(std::size_t strata) {
  if (block_.empty()) {
    block_.resize(strata);
    for (std::size_t i = 0; i < strata; ++i) block_[i] = i;
    sramlp::util::shuffle(block_, rng_);
  }
  const std::size_t stratum = block_.back();
  block_.pop_back();
  return stratum;
}

GeneratedJob JobStream::next_sweep() {
  const std::vector<MarchTest> tests = algorithms::all();
  const auto backgrounds = DataBackground::kinds();
  GeneratedJob out;
  out.spec.kind = JobSpec::Kind::kSweep;
  const double draw = rng_.next_double();
  if (have_previous_ && draw < 0.25) {
    out.reuse = Reuse::kResubmit;
    out.spec = previous_;
  } else if (have_previous_ && draw < 0.5) {
    // Keep the first half of the previous job's algorithms, replace the
    // second half with ones it does not use: half the points overlap.
    out.reuse = Reuse::kOverlap;
    out.spec = previous_;
    std::vector<MarchTest>& algs = out.spec.grid.algorithms;
    const std::size_t half = algs.size() / 2;
    std::vector<std::size_t> unused;
    for (std::size_t t = 0; t < tests.size(); ++t)
      if (std::none_of(algs.begin(), algs.end(), [&](const MarchTest& a) {
            return a.name() == tests[t].name();
          }))
        unused.push_back(t);
    sramlp::util::shuffle(unused, rng_);
    for (std::size_t i = 0; i < half; ++i)
      algs[half + i] = tests[unused[i]];
  } else {
    // Fresh grid of 16–64 points; the algorithm axis is even so a later
    // job can overlap exactly half of it.
    std::size_t n_geo = 0, n_bg = 0, n_alg = 0;
    do {
      n_geo = 1 + rng_.next_below(4);
      n_bg = 1 + rng_.next_below(4);
      n_alg = 2 * (1 + rng_.next_below(4));
    } while (n_geo * n_bg * n_alg < 16 || n_geo * n_bg * n_alg > 64);
    sramlp::core::SweepGrid& grid = out.spec.grid;
    for (const std::size_t g :
         pick_distinct(kSweepGeometries.size(), n_geo, rng_))
      grid.geometries.push_back(kSweepGeometries[g]);
    grid.backgrounds.clear();
    for (const std::size_t b : pick_distinct(backgrounds.size(), n_bg, rng_))
      grid.backgrounds.push_back(DataBackground(backgrounds[b]));
    for (const std::size_t a : pick_distinct(tests.size(), n_alg, rng_))
      grid.algorithms.push_back(tests[a]);
  }
  out.label = std::to_string(out.spec.grid.geometries.size()) + "g" +
              std::to_string(out.spec.grid.backgrounds.size()) + "b" +
              std::to_string(out.spec.grid.algorithms.size()) + "a";
  previous_ = out.spec;
  have_previous_ = true;
  return out;
}

GeneratedJob JobStream::next_campaign() {
  const std::vector<MarchTest> tests = campaign_tests();
  const std::size_t stratum =
      next_stratum(kCampaignGeometries.size() * tests.size());
  const Geometry& geometry = kCampaignGeometries[stratum / tests.size()];
  GeneratedJob out;
  out.spec.kind = JobSpec::Kind::kCampaign;
  out.spec.config.geometry = geometry;
  out.spec.test = tests[stratum % tests.size()];

  // One instance of every fault kind, plus up to 6 more: a fresh
  // fingerprint per job (the library itself is seeded per job).
  const std::vector<sramlp::faults::FaultSpec> library =
      sramlp::faults::standard_fault_library(geometry,
                                             rng_.next_u64() >> 16, 3);
  std::map<sramlp::faults::FaultKind, std::vector<std::size_t>> by_kind;
  for (std::size_t i = 0; i < library.size(); ++i)
    by_kind[library[i].kind].push_back(i);
  std::vector<bool> chosen(library.size(), false);
  for (const auto& [kind, indices] : by_kind)
    chosen[indices[rng_.next_below(indices.size())]] = true;
  std::size_t count = by_kind.size();
  const std::size_t target = count + rng_.next_below(7);
  for (const std::size_t i :
       pick_distinct(library.size(), library.size(), rng_)) {
    if (count >= target) break;
    if (!chosen[i]) {
      chosen[i] = true;
      ++count;
    }
  }
  for (std::size_t i = 0; i < library.size(); ++i)
    if (chosen[i]) out.spec.faults.push_back(library[i]);
  out.label = out.spec.test->name() + " " + geometry_label(geometry);
  return out;
}

GeneratedJob JobStream::next_search() {
  const std::vector<MarchTest> tests = search_tests();
  const std::size_t stratum =
      next_stratum(kSearchGeometries.size() * tests.size());
  const Geometry& geometry = kSearchGeometries[stratum / tests.size()];
  const MarchTest& base = tests[stratum % tests.size()];
  GeneratedJob out;
  out.budget_scale = 0.90 + 0.01 * static_cast<double>(rng_.next_below(10));
  out.spec = search_job(base, geometry, out.budget_scale,
                        1 + (rng_.next_u64() >> 33), &out.base_cycles);
  out.label = base.name() + " " + geometry_label(geometry);
  return out;
}

JobSpec search_job(const MarchTest& base, const Geometry& geometry,
                   double budget_scale, std::uint64_t seed,
                   std::uint64_t* base_cycles) {
  JobSpec job;
  job.kind = JobSpec::Kind::kSearch;
  sramlp::search::SearchSpec spec;
  spec.config.geometry = geometry;
  spec.base = base;
  spec.window_cycles = 8 * geometry.words();
  spec.idle_quantum = std::max<std::uint64_t>(1, geometry.words() / 2);
  spec.max_idle_quanta = 256;
  // 24 restarts make six 4-restart shards, so the three workers steal
  // and a slow one delays a job less than with one shard each.  Each
  // restart verifies only its lowest-peak schedule, the one that decides
  // feasibility: a block of 12 jobs stays at ~4 s.
  spec.restarts = 24;
  spec.max_front = 1;
  spec.seed = seed;
  sramlp::search::ScheduleEvaluator evaluator(spec.config, base,
                                              spec.window_cycles);
  const sramlp::search::Score score = evaluator.score_one(
      sramlp::search::identity_candidate(evaluator.elements()));
  spec.peak_budget_w = budget_scale * score.peak_power_w;
  if (base_cycles != nullptr)
    *base_cycles = static_cast<std::uint64_t>(score.cycles);
  job.search = std::move(spec);
  return job;
}

JobSpec warmup_job(Workload workload) {
  const Geometry geometry{16, 32, 1};
  JobSpec job;
  switch (workload) {
    case Workload::kSweepAnalytic:
      job.kind = JobSpec::Kind::kSweep;
      job.grid.geometries = {geometry};
      job.grid.algorithms = {algorithms::mats_plus()};
      break;
    case Workload::kCampaignFaults:
      job.kind = JobSpec::Kind::kCampaign;
      job.config.geometry = geometry;
      job.test = algorithms::march_c_minus();
      job.faults = sramlp::faults::standard_fault_library(geometry, 7, 1);
      job.faults.resize(4);
      break;
    case Workload::kScheduleSearch:
      job = search_job(algorithms::march_c_minus(), geometry, 0.97, 1,
                       nullptr);
      job.search->restarts = 2;
      job.search->steps = 8;
      break;
  }
  return job;
}

}  // namespace perfbench
