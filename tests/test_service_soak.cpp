// Sweep-service soak: the ISSUE's two load-bearing claims, end to end.
//
//  * Resilience under churn — a service with several concurrent
//    submitters (duplicate and distinct jobs interleaved) and a worker
//    that dies mid-shard still hands EVERY submitter a document
//    byte-identical to the single-process run, with the dead worker's
//    leases requeued onto the survivors.
//
//  * Scheduling — on the same job with one deliberately slow worker out
//    of four, small stealable shards beat a static plan (one shard per
//    worker, so nothing can be stolen) on wall-clock, because the slow
//    worker just steals fewer shards instead of stalling a fixed quarter
//    of the grid.  Both wall-clock numbers are printed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/job.h"
#include "dist/service.h"
#include "march/algorithms.h"

// gcc spells sanitizer presence __SANITIZE_*__; clang answers through
// __has_feature.  Either way the timing assertion below is off.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SRAMLP_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SRAMLP_UNDER_SANITIZER 1
#endif
#endif

namespace {

using namespace sramlp;
using dist::JobSpec;

JobSpec sweep_job_a() {
  JobSpec job;
  job.kind = JobSpec::Kind::kSweep;
  job.grid.geometries = {{8, 16, 1}, {4, 32, 1}, {6, 24, 2}};
  job.grid.backgrounds = {sram::DataBackground::solid0(),
                          sram::DataBackground::checkerboard()};
  job.grid.algorithms = {march::algorithms::mats_plus(),
                         march::algorithms::march_c_minus()};
  return job;  // 12 points
}

JobSpec sweep_job_b() {
  JobSpec job = sweep_job_a();
  job.grid.backgrounds = {sram::DataBackground::solid1()};
  return job;  // 6 points, disjoint from job A's backgrounds
}

JobSpec campaign_job() {
  JobSpec job;
  job.kind = JobSpec::Kind::kCampaign;
  job.config.geometry = {8, 8, 1};
  job.test = march::algorithms::march_c_minus();
  job.faults = faults::standard_fault_library(job.config.geometry, 11);
  return job;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(ServiceSoak, ConcurrentSubmittersSurviveAWorkerDeath) {
  dist::Service::Options options;
  options.points_per_shard = 2;
  dist::Service service(options);
  service.start();
  const std::string address = service.address();

  // One suicidal worker: no artificial delay, so it races ahead, grabs
  // shards first, streams three points and drops its connection mid-shard
  // (no shard_done).  Two slow-but-healthy workers inherit its requeued
  // leases.
  std::vector<std::thread> workers;
  {
    dist::ServiceWorker::Options dying;
    dying.die_after_points = 3;
    workers.emplace_back(
        [address, dying] { dist::ServiceWorker(dying).run(address); });
    dist::ServiceWorker::Options healthy;
    healthy.slow_point_us = 2000;
    for (int w = 0; w < 2; ++w)
      workers.emplace_back(
          [address, healthy] { dist::ServiceWorker(healthy).run(address); });
  }

  const std::vector<JobSpec> jobs = {sweep_job_a(), sweep_job_b(),
                                     campaign_job()};
  std::vector<std::string> references;
  for (const JobSpec& job : jobs)
    references.push_back(dist::single_document(job));

  // Six submitters: every job twice, concurrently — the duplicates land as
  // in-flight dedups or job-cache hits depending on timing, both of which
  // must still produce the reference bytes.
  std::vector<std::string> documents(6);
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < documents.size(); ++s)
    submitters.emplace_back([&, s] {
      documents[s] = dist::submit_job(address, jobs[s % jobs.size()],
                                      /*connect_timeout_ms=*/10000)
                         .document;
    });
  for (std::thread& t : submitters) t.join();

  for (std::size_t s = 0; s < documents.size(); ++s)
    EXPECT_EQ(documents[s], references[s % references.size()])
        << "submitter " << s;

  const dist::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 6u);
  EXPECT_EQ(stats.jobs_completed + stats.job_cache_hits +
                stats.jobs_deduplicated,
            6u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  EXPECT_GE(stats.workers_lost, 1u);     // the suicide was noticed...
  EXPECT_GE(stats.shard_requeues, 1u);   // ...and its leases requeued
  // Every duplicate was answered without recomputing: exactly one
  // execution of each distinct point (dead-worker replays excluded by
  // first-wins filling, so executed counts can exceed, but filled points
  // cannot).
  std::printf("soak: %llu points executed, %llu requeues, "
              "cache hit-rate %.2f\n",
              static_cast<unsigned long long>(stats.points_executed),
              static_cast<unsigned long long>(stats.shard_requeues),
              stats.cache.hit_rate());

  service.request_stop();
  service.wait();
  for (std::thread& t : workers) t.join();
}

/// Serve @p job on a fresh service cut into @p points_per_shard shards, with
/// four workers of which worker 0 is slow; returns the submit's wall time.
double timed_submit(const JobSpec& job, std::size_t points_per_shard,
                    const std::string& reference, const char* label) {
  constexpr std::uint64_t kSlowPointUs = 5000;  // a 5 ms/point slow host
  // The healthy workers are not instant either, so the slow one has leased
  // its shard long before a healthy one could come back for a second.
  constexpr std::uint64_t kHealthyPointUs = 500;
  dist::Service::Options options;
  options.points_per_shard = points_per_shard;
  dist::Service service(options);
  service.start();
  const std::string address = service.address();
  std::vector<std::thread> workers;
  std::vector<std::size_t> stolen(4, 0);
  for (int w = 0; w < 4; ++w)
    workers.emplace_back([&, w] {
      dist::ServiceWorker::Options worker;
      worker.slow_point_us = w == 0 ? kSlowPointUs : kHealthyPointUs;
      stolen[w] = dist::ServiceWorker(worker).run(address);
    });
  const auto start = std::chrono::steady_clock::now();
  const dist::SubmitResult result = dist::submit_job(address, job, 10000);
  const double seconds = seconds_since(start);
  EXPECT_EQ(result.document, reference) << label;
  EXPECT_FALSE(result.cache_hit) << label;
  service.request_stop();
  service.wait();
  for (std::thread& t : workers) t.join();
  std::printf("scheduling: %s %.1f ms; points per worker (worker 0 slow): "
              "%zu %zu %zu %zu\n",
              label, seconds * 1e3, stolen[0], stolen[1], stolen[2],
              stolen[3]);
  return seconds;
}

// The acceptance comparison: 4 workers, one of them slow, same 40-point
// job.  Static plan = 4 shards of 10, one per worker: the slow worker owns
// a fixed quarter of the grid and the job waits for it.  Steal queue =
// 2-point shards: the slow worker only hurts the few it actually steals.
TEST(ServiceSoak, StealQueueBeatsStaticPlanWithOneSlowWorker) {
  JobSpec job;
  job.kind = JobSpec::Kind::kSweep;
  job.grid.geometries = {{4, 16, 1}, {8, 16, 1}, {4, 32, 1}, {8, 32, 1},
                         {6, 24, 2}, {4, 24, 2}, {8, 24, 1}, {4, 20, 1},
                         {6, 16, 1}, {6, 32, 2}};
  job.grid.backgrounds = {sram::DataBackground::solid0(),
                          sram::DataBackground::checkerboard()};
  job.grid.algorithms = {march::algorithms::mats_plus(),
                         march::algorithms::march_c_minus()};
  ASSERT_EQ(job.size(), 40u);
  const std::string reference = dist::single_document(job);

  const double static_seconds =
      timed_submit(job, job.size() / 4, reference, "static plan");
  const double steal_seconds = timed_submit(job, 2, reference, "steal queue");
  std::printf("scheduling: steal queue %.1fx faster than the static plan\n",
              static_seconds / steal_seconds);
  // Wall-clock comparisons are meaningless under sanitizer
  // instrumentation; the sanitized build still runs both schedules above
  // (that is the race coverage), only the timing claim is gated out.
#ifndef SRAMLP_UNDER_SANITIZER
  EXPECT_LT(steal_seconds, static_seconds)
      << "dynamic stealing should beat the static plan with a slow worker";
#endif
}

}  // namespace
