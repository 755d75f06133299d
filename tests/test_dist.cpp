// The job-kind table (dist/job.h) that every distributed path stands on,
// and its acceptance anchor: items computed by execute() over any
// partition of the index space — random disjoint subsets, run in shuffled
// order, each item through the JSON wire form — merge() to a document
// byte-identical to single_document(), which itself matches a document
// built straight from the core runners (SweepRunner::run,
// CampaignRunner::run, search::run_search).  Covers generated sweep jobs
// (non-square, word width 1/4/8, traced), campaign and search jobs, plus
// the point-cache payload round trip — and the steal cut (lease_units): on
// generated libraries it partitions the uncached indices, every campaign
// batch unit is one session pair, every search item is its own unit,
// executing the units (partly cached, with the Fig. 7 restore on and off)
// merges to single, and the 512-unit cap holds on large jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <string>
#include <vector>

#include "core/fault_campaign.h"
#include "core/sweep.h"
#include "dist/job.h"
#include "faults/batch.h"
#include "io/serialize.h"
#include "march/algorithms.h"
#include "search/serialize.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace sramlp;
using dist::JobSpec;

/// A seeded sweep job: 1-3 non-square geometries of word width 1, 4 or 8,
/// every background, 1-4 library algorithms, a perturbed session base, and
/// (when @p traced) a windowed power trace on every run.
JobSpec generated_sweep_job(std::uint64_t seed, bool traced) {
  util::Rng rng(seed);
  const std::vector<march::MarchTest> library = march::algorithms::all();
  constexpr std::array<std::size_t, 3> kWidths = {1, 4, 8};
  JobSpec job;
  job.kind = JobSpec::Kind::kSweep;
  for (std::uint64_t g = 0, n = 1 + rng.next_below(3); g < n; ++g) {
    const std::size_t width = kWidths[rng.next_below(kWidths.size())];
    job.grid.geometries.push_back(
        {1 + rng.next_below(24), width * (2 + rng.next_below(7)), width});
  }
  job.grid.backgrounds.clear();
  for (const sram::BackgroundKind kind : sram::DataBackground::kinds())
    job.grid.backgrounds.push_back(sram::DataBackground(kind));
  for (std::uint64_t a = 0, n = 1 + rng.next_below(4); a < n; ++a)
    job.grid.algorithms.push_back(library[rng.next_below(library.size())]);
  job.grid.base.wordline_duty = 0.25 + 0.5 * rng.next_double();
  job.grid.base.row_transition_restore = rng.next_bool();
  if (traced)
    job.grid.base.trace = power::TraceConfig{
        .window_cycles = 8 + rng.next_below(32), .keep_windows = true};
  return job;
}

JobSpec campaign_job(std::uint64_t seed) {
  JobSpec job;
  job.kind = JobSpec::Kind::kCampaign;
  job.config.geometry = {8, 8, 1};
  job.test = march::algorithms::march_c_minus();
  job.faults = faults::standard_fault_library(job.config.geometry, seed);
  return job;
}

JobSpec search_job(std::uint64_t seed) {
  JobSpec job;
  job.kind = JobSpec::Kind::kSearch;
  search::SearchSpec spec;
  spec.config.geometry = {8, 16, 1};
  spec.base = march::algorithms::march_c_minus();
  spec.window_cycles = 512;
  spec.seed = seed;
  spec.restarts = 3;  // under March C-'s 4 orders: item 0 solves two
  spec.idle_quantum = 128;
  spec.max_idle_quanta = 8;
  spec.max_front = 4;
  // A seeded budget of 0.90-0.99x the base peak.
  const search::ScheduleEvaluator evaluator(spec.config, *spec.base,
                                            spec.window_cycles);
  spec.peak_budget_w =
      (0.90 + 0.01 * static_cast<double>(seed % 10)) *
      evaluator.score_one(search::identity_candidate(evaluator.elements()))
          .peak_power_w;
  job.search = std::move(spec);
  return job;
}

// --- independent references: documents built from the core runners ---------

std::string document_of(io::JsonValue doc) { return doc.dump(2) + "\n"; }

std::string sweep_reference(const JobSpec& job) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("kind", io::JsonValue::string("sweep"));
  io::JsonValue points = io::JsonValue::array();
  for (const core::SweepPointResult& p : core::SweepRunner().run(job.grid))
    points.push_back(io::to_json(p));
  doc.set("points", std::move(points));
  return document_of(std::move(doc));
}

std::string campaign_reference(const JobSpec& job) {
  core::CampaignRunner::Options options;
  options.batched = true;
  const core::CampaignReport report =
      core::CampaignRunner(options).run(job.config, *job.test, job.faults);
  io::JsonValue doc = io::JsonValue::object();
  doc.set("kind", io::JsonValue::string("campaign"));
  doc.set("algorithm", io::JsonValue::string(report.algorithm));
  io::JsonValue entries = io::JsonValue::array();
  for (const core::CampaignEntry& e : report.entries)
    entries.push_back(io::to_json(e));
  doc.set("entries", std::move(entries));
  return document_of(std::move(doc));
}

std::string search_reference(const JobSpec& job) {
  const search::SearchOutcome outcome = search::run_search(*job.search, 2);
  io::JsonValue doc = io::JsonValue::object();
  doc.set("kind", io::JsonValue::string("search"));
  io::JsonValue restarts = io::JsonValue::array();
  for (const search::RestartResult& r : outcome.restarts)
    restarts.push_back(io::to_json(r));
  doc.set("restarts", std::move(restarts));
  io::JsonValue front = io::JsonValue::array();
  for (const search::ScheduleResult& point : outcome.front)
    front.push_back(io::to_json(point));
  doc.set("front", std::move(front));
  return document_of(std::move(doc));
}

// --- the partition property --------------------------------------------------

/// Execute @p job over random disjoint index subsets in shuffled order,
/// each item through its wire form (dump + parse, as a worker line
/// travels), and merge.  Every index must be emitted exactly once.
std::string partitioned_document(const JobSpec& job, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::size_t> order(job.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::shuffle(order, rng);
  std::vector<io::JsonValue> payloads(job.size());
  for (std::size_t start = 0; start < order.size();) {
    const std::size_t count = std::min<std::size_t>(
        1 + rng.next_below(5), order.size() - start);
    const std::vector<std::size_t> subset(
        order.begin() + static_cast<std::ptrdiff_t>(start),
        order.begin() + static_cast<std::ptrdiff_t>(start + count));
    start += count;
    std::size_t emitted = 0;
    const bool finished = dist::execute(
        job, subset, static_cast<unsigned>(1 + rng.next_below(2)),
        [&](std::size_t index, io::JsonValue data) {
          EXPECT_EQ(index, subset[emitted]) << "items emit in subset order";
          EXPECT_TRUE(payloads[index].is_null()) << "index " << index;
          payloads[index] = io::JsonValue::parse(data.dump());
          ++emitted;
          return true;
        });
    EXPECT_TRUE(finished);
    EXPECT_EQ(emitted, subset.size());
  }
  return dist::merge(job, std::move(payloads));
}

TEST(JobKindTable, GeneratedSweepJobsMergeByteIdenticalToSingle) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool traced : {false, true}) {
      const JobSpec job = generated_sweep_job(seed, traced);
      const std::string single = dist::single_document(job);
      EXPECT_EQ(single, sweep_reference(job))
          << "seed " << seed << (traced ? " traced" : "");
      EXPECT_EQ(partitioned_document(job, seed), single)
          << "seed " << seed << (traced ? " traced" : "");
    }
  }
}

TEST(JobKindTable, TracedSweepDocumentCarriesTheTrace) {
  const JobSpec job = generated_sweep_job(3, /*traced=*/true);
  const io::JsonValue doc =
      io::JsonValue::parse(dist::single_document(job, 1));
  const core::SweepPointResult point =
      io::sweep_point_from_json(doc.at("points").at(std::size_t{0}));
  ASSERT_TRUE(point.prr.low_power.trace.has_value());
  EXPECT_GT(point.prr.low_power.trace->peak_window_energy_j, 0.0);
}

TEST(JobKindTable, CampaignJobsMergeByteIdenticalToSingle) {
  for (const std::uint64_t seed : {7u, 11u}) {
    const JobSpec job = campaign_job(seed);
    const std::string single = dist::single_document(job);
    EXPECT_EQ(single, campaign_reference(job)) << "seed " << seed;
    EXPECT_EQ(partitioned_document(job, seed), single) << "seed " << seed;
  }
}

TEST(JobKindTable, SearchJobsMergeByteIdenticalToSingle) {
  for (const std::uint64_t seed : {7u, 8u}) {
    const JobSpec job = search_job(seed);
    const std::string single = dist::single_document(job, 1);
    EXPECT_EQ(single, search_reference(job)) << "seed " << seed;
    EXPECT_EQ(partitioned_document(job, seed), single) << "seed " << seed;
  }
}

TEST(JobKindTable, EmitReturningFalseStopsExecution) {
  const JobSpec job = generated_sweep_job(1, false);
  std::vector<std::size_t> all(job.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::size_t seen = 0;
  EXPECT_FALSE(dist::execute(job, all, 1, [&](std::size_t, io::JsonValue) {
    return ++seen < 2;
  }));
  EXPECT_EQ(seen, 2u);
}

TEST(JobKindTable, MergeRefusesAMissingItem) {
  const JobSpec job = campaign_job(7);
  EXPECT_THROW(dist::merge(job, std::vector<io::JsonValue>(job.size() - 1)),
               Error);
}

// --- lease units -------------------------------------------------------------

/// A campaign job over a generated library: @p geometry, library seed
/// @p seed, @p instances per fault kind, restore on or off.
JobSpec generated_campaign_job(const sram::Geometry& geometry,
                               std::uint64_t seed, int instances,
                               bool restore) {
  JobSpec job;
  job.kind = JobSpec::Kind::kCampaign;
  job.config.geometry = geometry;
  job.config.row_transition_restore = restore;
  job.test = march::algorithms::march_c_minus();
  job.faults = faults::standard_fault_library(geometry, seed, instances);
  return job;
}

/// Roughly @p percent of the job's indices, ascending, drawn by @p rng.
std::vector<std::size_t> random_subset(std::size_t size, unsigned percent,
                                       util::Rng& rng) {
  std::vector<std::size_t> subset;
  for (std::size_t i = 0; i < size; ++i)
    if (rng.next_below(100) < percent) subset.push_back(i);
  return subset;
}

/// Every index of @p uncached in exactly one unit, each unit ascending,
/// and nothing else.
void expect_partition(const std::vector<std::vector<std::size_t>>& units,
                      const std::vector<std::size_t>& uncached,
                      const std::string& label) {
  std::vector<std::size_t> seen;
  for (const std::vector<std::size_t>& unit : units) {
    EXPECT_FALSE(unit.empty()) << label;
    EXPECT_TRUE(std::is_sorted(unit.begin(), unit.end())) << label;
    seen.insert(seen.end(), unit.begin(), unit.end());
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, uncached) << label;
  EXPECT_LE(units.size(), dist::kMaxLeaseUnits) << label;
}

TEST(LeaseUnits, PartitionTheUncachedIndicesOfGeneratedJobs) {
  util::Rng rng(2024);
  const std::vector<sram::Geometry> geometries = {
      {8, 8, 1}, {16, 16, 1}, {33, 17, 1}, {64, 64, 1}, {16, 32, 4}};
  for (const sram::Geometry& geometry : geometries)
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      for (const int instances : {1, 3, 8})
        for (const bool restore : {true, false}) {
          const JobSpec job =
              generated_campaign_job(geometry, seed, instances, restore);
          for (const unsigned percent : {100u, 60u}) {
            const std::vector<std::size_t> uncached =
                random_subset(job.size(), percent, rng);
            dist::LeaseCut cut;
            const auto units = dist::lease_units(job, uncached, 4, &cut);
            const std::string label =
                std::to_string(geometry.rows) + "x" +
                std::to_string(geometry.cols) + " seed " +
                std::to_string(seed) + " x" + std::to_string(instances) +
                (restore ? " restore" : " no-restore") + " " +
                std::to_string(percent) + "%";
            expect_partition(units, uncached, label);
            EXPECT_TRUE(cut.planned) << label;
            if (!restore) {
              EXPECT_EQ(cut.batches, 0u) << label;
              EXPECT_EQ(cut.fallback, uncached.size()) << label;
            }
            // Batches first, one unit each; fallbacks in runs of 4.
            EXPECT_EQ(units.size(),
                      cut.batches + (cut.fallback + 3) / 4)
                << label;
          }
        }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const JobSpec job = generated_sweep_job(seed, false);
    const std::vector<std::size_t> uncached =
        random_subset(job.size(), 70, rng);
    dist::LeaseCut cut;
    const auto units = dist::lease_units(job, uncached, 3, &cut);
    expect_partition(units, uncached, dist::item_type(job));
    EXPECT_FALSE(cut.planned);
    // Exactly consecutive runs of 3: the steal cut sweeps always had.
    for (std::size_t u = 0; u < units.size(); ++u) {
      const std::size_t start = u * 3;
      EXPECT_EQ(units[u],
                std::vector<std::size_t>(
                    uncached.begin() + static_cast<std::ptrdiff_t>(start),
                    uncached.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(start + 3,
                                                    uncached.size()))));
    }
  }
  // A search item (one group of element orders) is one unit, whatever
  // the unit size.
  for (const std::size_t restarts : {1u, 3u, 24u}) {
    JobSpec job = search_job(1);
    job.search->restarts = restarts;
    const std::vector<std::size_t> uncached =
        random_subset(job.size(), 70, rng);
    dist::LeaseCut cut;
    const auto units = dist::lease_units(job, uncached, 3, &cut);
    expect_partition(units, uncached, dist::item_type(job));
    EXPECT_FALSE(cut.planned);
    ASSERT_EQ(units.size(), uncached.size());
    for (std::size_t u = 0; u < units.size(); ++u)
      EXPECT_EQ(units[u], std::vector<std::size_t>{uncached[u]});
  }
}

TEST(LeaseUnits, CampaignBatchUnitsReplanToOneBatch) {
  for (const sram::Geometry& geometry :
       {sram::Geometry{8, 8, 1}, sram::Geometry{64, 64, 1},
        sram::Geometry{256, 256, 1}})
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      for (const int instances : {3, 8}) {
        const JobSpec job = generated_campaign_job(geometry, seed, instances,
                                                   /*restore=*/true);
        std::vector<std::size_t> all(job.size());
        std::iota(all.begin(), all.end(), std::size_t{0});
        dist::LeaseCut cut;
        const auto units = dist::lease_units(job, all, 4, &cut);
        ASSERT_LE(cut.batches, units.size());
        for (std::size_t u = 0; u < cut.batches; ++u) {
          std::vector<faults::FaultSpec> members;
          for (const std::size_t i : units[u]) members.push_back(job.faults[i]);
          const faults::BatchPlan plan = faults::plan_batches(members);
          EXPECT_EQ(plan.batches.size(), 1u) << "unit " << u;
          EXPECT_TRUE(plan.fallback.empty()) << "unit " << u;
        }
      }
}

/// The merged document of @p job when the indices outside @p uncached come
/// from the point cache and the rest are executed unit by unit, in
/// reverse unit order.
std::string leased_document(const JobSpec& job,
                            const std::vector<std::size_t>& uncached,
                            std::size_t unit) {
  std::vector<io::JsonValue> payloads(job.size());
  std::vector<std::size_t> cached;
  for (std::size_t i = 0, u = 0; i < job.size(); ++i) {
    if (u < uncached.size() && uncached[u] == i)
      ++u;
    else
      cached.push_back(i);
  }
  dist::execute(job, cached, 1, [&](std::size_t index, io::JsonValue data) {
    payloads[index] =
        dist::from_cache(job, index, dist::cache_payload(job, data));
    return true;
  });
  const auto units = dist::lease_units(job, uncached, unit);
  for (auto it = units.rbegin(); it != units.rend(); ++it)
    dist::execute(job, *it, 1, [&](std::size_t index, io::JsonValue data) {
      EXPECT_TRUE(payloads[index].is_null()) << "index " << index;
      payloads[index] = io::JsonValue::parse(data.dump());
      return true;
    });
  return dist::merge(job, std::move(payloads));
}

TEST(LeaseUnits, ExecutingTheUnitsMergesToSingle) {
  util::Rng rng(77);
  for (const bool restore : {true, false})
    for (const std::uint64_t seed : {3u, 9u}) {
      const JobSpec job =
          generated_campaign_job({16, 16, 1}, seed, 3, restore);
      const std::string single = dist::single_document(job);
      std::vector<std::size_t> all(job.size());
      std::iota(all.begin(), all.end(), std::size_t{0});
      EXPECT_EQ(leased_document(job, all, 4), single)
          << "seed " << seed << (restore ? " restore" : " no-restore");
      EXPECT_EQ(leased_document(job, random_subset(job.size(), 50, rng), 3),
                single)
          << "partly cached, seed " << seed
          << (restore ? " restore" : " no-restore");
    }
  const JobSpec sweep = generated_sweep_job(5, false);
  EXPECT_EQ(leased_document(sweep, random_subset(sweep.size(), 50, rng), 2),
            dist::single_document(sweep));
  JobSpec search = search_job(4);
  search.search->restarts = 24;  // one order per item
  std::vector<std::size_t> items(search.size());
  std::iota(items.begin(), items.end(), std::size_t{0});
  EXPECT_EQ(leased_document(search, {1, 3}, 2), dist::single_document(search));
  EXPECT_EQ(leased_document(search, items, 2), dist::single_document(search));
}

TEST(LeaseUnits, LargeJobsStayWithinTheUnitCap) {
  // A >= 10^4-point sweep: 40 geometries x every background x 50
  // algorithms (nothing is computed; only the cut is taken).
  JobSpec sweep;
  sweep.kind = JobSpec::Kind::kSweep;
  for (std::size_t g = 0; g < 40; ++g)
    sweep.grid.geometries.push_back({8 + g, 16, 1});
  for (const sram::BackgroundKind kind : sram::DataBackground::kinds())
    sweep.grid.backgrounds.push_back(sram::DataBackground(kind));
  const std::vector<march::MarchTest> library = march::algorithms::all();
  for (std::size_t a = 0; a < 50; ++a)
    sweep.grid.algorithms.push_back(library[a % library.size()]);
  ASSERT_GE(sweep.size(), 10000u);
  std::vector<std::size_t> all(sweep.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto sweep_units = dist::lease_units(sweep, all, 4);
  expect_partition(sweep_units, all, "sweep");
  EXPECT_GT(sweep_units.size(), dist::kMaxLeaseUnits / 2);

  // A campaign of thousands of faults: restore off, so every fault is a
  // fallback and one-fault runs overflow the cap; restore on, the same
  // library still cuts into a handful of batches.
  for (const bool restore : {false, true}) {
    const JobSpec campaign =
        generated_campaign_job({512, 512, 1}, 7, 200, restore);
    ASSERT_GT(campaign.size(), 2 * dist::kMaxLeaseUnits);
    std::vector<std::size_t> faults(campaign.size());
    std::iota(faults.begin(), faults.end(), std::size_t{0});
    const auto units = dist::lease_units(campaign, faults, 1);
    expect_partition(units, faults, restore ? "restore" : "no-restore");
    if (!restore) {
      EXPECT_GT(units.size(), dist::kMaxLeaseUnits / 2);
    }
  }
}

// --- the point-cache payload -------------------------------------------------

TEST(JobKindTable, SweepCachePayloadIsGridNeutralAndRebinds) {
  const JobSpec big = generated_sweep_job(4, false);
  // The last grid point of `big`, alone in a one-point grid.
  std::size_t geometry = 0, background = 0, algorithm = 0;
  const std::size_t last = big.size() - 1;
  big.grid.split(last, &geometry, &background, &algorithm);
  JobSpec small = big;
  small.grid.geometries = {big.grid.geometries[geometry]};
  small.grid.backgrounds = {big.grid.backgrounds[background]};
  small.grid.algorithms = {big.grid.algorithms[algorithm]};
  ASSERT_EQ(dist::point_fingerprint(big, last),
            dist::point_fingerprint(small, 0));

  io::JsonValue data;
  dist::execute(big, {last}, 1, [&](std::size_t, io::JsonValue d) {
    data = std::move(d);
    return true;
  });
  const std::string payload = dist::cache_payload(big, data);
  const io::JsonValue neutral = io::JsonValue::parse(payload);
  for (const char* member : {"index", "geometry", "background", "algorithm"})
    EXPECT_EQ(neutral.at(member).as_uint(), 0u) << member;
  // Rebound into either grid, the payload is that grid's point, exactly.
  EXPECT_EQ(dist::from_cache(big, last, payload).dump(), data.dump());
  std::string small_point;
  dist::execute(small, {0}, 1, [&](std::size_t, io::JsonValue d) {
    small_point = d.dump();
    return true;
  });
  EXPECT_EQ(dist::from_cache(small, 0, payload).dump(), small_point);
}

TEST(JobKindTable, CampaignAndSearchCachePayloadsPassThrough) {
  for (const JobSpec& job : {campaign_job(7), search_job(7)}) {
    io::JsonValue data;
    dist::execute(job, {1}, 1, [&](std::size_t, io::JsonValue d) {
      data = std::move(d);
      return true;
    });
    const std::string payload = dist::cache_payload(job, data);
    EXPECT_EQ(payload, data.dump());
    EXPECT_EQ(dist::from_cache(job, 1, payload).dump(), payload);
  }
  EXPECT_THROW(dist::from_cache(campaign_job(7), 0, "[1,2]"), Error);
  EXPECT_THROW(dist::from_cache(campaign_job(7), 0, "{\"torn\":"), Error);
}

// --- job specs ---------------------------------------------------------------

TEST(JobSpec, RoundTripPreservesKindSizeAndFingerprint) {
  for (const JobSpec& job :
       {generated_sweep_job(2, true), campaign_job(11), search_job(7)}) {
    const JobSpec back =
        dist::job_from_json(io::JsonValue::parse(dist::to_json(job).dump(2)));
    EXPECT_EQ(back.kind, job.kind);
    EXPECT_EQ(back.size(), job.size());
    EXPECT_EQ(back.fingerprint(), job.fingerprint());
    EXPECT_STREQ(dist::item_type(back), dist::item_type(job));
    EXPECT_TRUE(dist::is_item_type(dist::item_type(job)));
  }
  EXPECT_FALSE(dist::is_item_type("shard_done"));
  // Different jobs get different fingerprints.
  JobSpec other = campaign_job(11);
  other.faults.pop_back();
  EXPECT_NE(other.fingerprint(), campaign_job(11).fingerprint());
}

TEST(JobSpec, RejectsUnknownKindsAndEmptyJobs) {
  io::JsonValue json = dist::to_json(campaign_job(7));
  json.set("kind", io::JsonValue::string("scan"));
  EXPECT_THROW(dist::job_from_json(json), Error);
  JobSpec empty;
  EXPECT_THROW(empty.validate(), Error);
  empty.kind = JobSpec::Kind::kCampaign;
  EXPECT_THROW(empty.validate(), Error);
  empty.kind = JobSpec::Kind::kSearch;
  EXPECT_THROW(empty.validate(), Error);
}

}  // namespace
