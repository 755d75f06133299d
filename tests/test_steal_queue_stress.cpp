// Concurrency stress for the steal/cache/service layers.  These tests are
// written for ThreadSanitizer (the `tsan` CI job builds them with
// -DSRAMLP_SANITIZE=thread): they hammer the exact APIs the service calls
// from its connection threads — StealQueue lease/complete/abandon/fail,
// ResultCache get/put with LRU eviction and spill re-reads, service
// shutdown racing live submissions — and a signal storm that turns the
// EINTR paths in io/framing.cpp from dead code into the common case.
//
// Everything is seeded and self-checking: whatever interleaving the
// scheduler picks, every index must be computed, every cache hit must be
// byte-exact, and every service answer must equal the single-process
// document.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dist/result_cache.h"
#include "dist/service.h"
#include "dist/steal_queue.h"
#include "march/algorithms.h"
#include "util/error.h"

namespace {

namespace fs = std::filesystem;
using namespace sramlp;
using dist::JobSpec;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("sramlp_stress_test_" + tag + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// Indices 0..n-1 as consecutive units of @p per (the last one shorter).
std::vector<std::vector<std::size_t>> unit_runs(std::size_t n,
                                                std::size_t per) {
  std::vector<std::vector<std::size_t>> units;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % per == 0) units.emplace_back();
    units.back().push_back(i);
  }
  return units;
}

// --- StealQueue under contention ---------------------------------------------

// N threads fight over one queue, each rolling per-lease dice between
// completing, failing (requeue) and abandoning (connection-death requeue,
// sometimes holding several leases first).  The invariants cannot depend
// on the interleaving: every shard completes exactly once, every index is
// computed by whoever completed its shard, and the requeue counter agrees
// with the requeues the threads themselves performed.
TEST(StealQueueStress, ConcurrentLeaseCompleteAbandonFail) {
  constexpr std::size_t kIndices = 600;
  constexpr std::size_t kThreads = 4;
  constexpr unsigned kRetries = 1u << 20;  // never exhaust a fail budget

  dist::StealQueue queue(unit_runs(kIndices, /*per=*/2));
  const std::size_t shard_count = queue.stats().shard_count;

  std::atomic<std::size_t> observed_requeues{0};
  std::mutex done_mutex;
  std::set<std::size_t> completed_indices;  // union over all threads

  auto worker = [&](std::uint64_t worker_id) {
    std::mt19937 rng(static_cast<unsigned>(0xD1CE + worker_id));
    std::uniform_int_distribution<int> dice(0, 99);
    std::set<std::size_t> mine;
    while (true) {
      std::optional<dist::StealShard> shard = queue.lease(worker_id);
      if (!shard) {
        if (queue.done()) break;
        std::this_thread::yield();
        continue;
      }
      const int roll = dice(rng);
      if (roll < 10) {
        // Worker "reports failure": shard goes back for someone else.
        ASSERT_TRUE(queue.fail(shard->id, kRetries));
        observed_requeues.fetch_add(1, std::memory_order_relaxed);
      } else if (roll < 20) {
        // Connection death, possibly holding several leases at once.
        std::size_t held = 1;
        while (held < 3) {
          if (!queue.lease(worker_id)) break;
          ++held;
        }
        ASSERT_EQ(queue.abandon(worker_id), held);
        observed_requeues.fetch_add(held, std::memory_order_relaxed);
      } else {
        queue.complete(shard->id);
        mine.insert(shard->indices.begin(), shard->indices.end());
      }
    }
    std::lock_guard<std::mutex> lock(done_mutex);
    completed_indices.insert(mine.begin(), mine.end());
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back(worker, static_cast<std::uint64_t>(t + 1));
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(queue.done());
  const auto stats = queue.stats();
  EXPECT_EQ(stats.completed, shard_count);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.leased, 0u);
  EXPECT_EQ(stats.requeues, observed_requeues.load());

  // A requeued shard can be completed by its new owner while the original
  // worker's completion set already holds it — either way, the union must
  // be exactly the full index set.
  EXPECT_EQ(completed_indices.size(), kIndices);
  EXPECT_EQ(*completed_indices.begin(), 0u);
  EXPECT_EQ(*completed_indices.rbegin(), kIndices - 1);
}

// --- ResultCache under contention --------------------------------------------

std::string stress_payload(std::uint64_t key) {
  // Distinct, content-checkable and long enough that a torn read would
  // show (spans several internal read chunks when spilled).
  std::string payload = "{\"key\": " + std::to_string(key) + ", \"blob\": \"";
  for (int i = 0; i < 64; ++i)
    payload += "k" + std::to_string(key * 31 + static_cast<std::uint64_t>(i));
  payload += "\"}";
  return payload;
}

// Mixed get/put/contains/stats traffic from several threads over a key
// space much larger than the LRU capacity, so hits are served from both
// tiers (memory and spill re-read) concurrently with insertions and
// evictions.  Every hit must be byte-exact, and a fresh cache on the same
// spill file must reload every key exactly.
TEST(ResultCacheStress, ConcurrentGetPutSpillStaysByteExact) {
  const TempDir dir("cache");
  const std::string spill = dir.str() + "/spill.jsonl";
  constexpr std::uint64_t kKeys = 64;
  constexpr std::size_t kThreads = 4;
  constexpr int kOpsPerThread = 2000;

  {
    dist::ResultCache::Options options;
    options.capacity = 8;  // force constant eviction -> spill re-reads
    options.spill_path = spill;
    dist::ResultCache cache(options);

    auto churn = [&](unsigned seed) {
      std::mt19937 rng(seed);
      std::uniform_int_distribution<std::uint64_t> pick_key(0, kKeys - 1);
      std::uniform_int_distribution<int> dice(0, 99);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::uint64_t key = pick_key(rng);
        const int roll = dice(rng);
        if (roll < 45) {
          cache.put(key, stress_payload(key));
        } else if (roll < 90) {
          std::optional<std::string> hit = cache.get(key);
          if (hit) {
            ASSERT_EQ(*hit, stress_payload(key));
          }
        } else if (roll < 95) {
          (void)cache.contains(key);
        } else {
          (void)cache.stats();
        }
      }
    };

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back(churn, static_cast<unsigned>(0xCAFE + t));
    for (std::thread& t : threads) t.join();

    const auto stats = cache.stats();
    EXPECT_GT(stats.insertions, 0u);
    EXPECT_EQ(stats.entries, kKeys);  // key space is small; all were put
  }

  // Warm restart: the spill file is the authoritative store, so a new
  // cache must serve every key byte-exactly, whatever eviction order the
  // racing threads produced.
  dist::ResultCache::Options options;
  options.capacity = 4;
  options.spill_path = spill;
  dist::ResultCache reloaded(options);
  EXPECT_EQ(reloaded.stats().loaded, kKeys);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    std::optional<std::string> hit = reloaded.get(key);
    ASSERT_TRUE(hit.has_value()) << "key " << key << " lost from spill";
    EXPECT_EQ(*hit, stress_payload(key));
  }
}

// --- Service shutdown racing live traffic ------------------------------------

JobSpec stress_sweep_job() {
  JobSpec job;
  job.kind = JobSpec::Kind::kSweep;
  job.grid.geometries = {{8, 16, 1}, {4, 32, 1}};
  job.grid.backgrounds = {sram::DataBackground::solid0(),
                          sram::DataBackground::checkerboard()};
  job.grid.algorithms = {march::algorithms::mats_plus()};
  return job;  // 4 points
}

// Submitters loop jobs while a racer thread pulls the plug: request_stop()
// lands with jobs in flight, workers mid-steal and submitters mid-stream.
// Completed submissions must be correct; interrupted ones must surface as
// sramlp::Error, never a hang or a torn document.
TEST(ServiceStress, ShutdownRacesLiveSubmissionsAndWorkers) {
  const JobSpec job = stress_sweep_job();

  dist::Service::Options options;
  options.points_per_shard = 1;
  options.cache.capacity = 4;
  dist::Service service(options);
  service.start();
  const std::string address = service.address();

  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w)
    workers.emplace_back(
        [address] { dist::ServiceWorker().run(address); });

  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stop_submitting{false};
  std::string expected;  // first completed document; later ones must match
  std::mutex expected_mutex;

  auto submitter = [&] {
    while (!stop_submitting.load()) {
      try {
        dist::SubmitResult result = dist::submit_job(address, job);
        {
          std::lock_guard<std::mutex> lock(expected_mutex);
          if (expected.empty()) expected = result.document;
          ASSERT_EQ(result.document, expected);
        }
        completed.fetch_add(1);
      } catch (const Error&) {
        // The racer won: the service stopped under this submission.
        break;
      }
    }
  };
  std::vector<std::thread> submitters;
  for (int s = 0; s < 2; ++s) submitters.emplace_back(submitter);

  // Let real traffic build up, then pull the plug mid-flight.
  while (completed.load() < 3) std::this_thread::yield();
  service.request_stop();
  stop_submitting.store(true);

  service.wait();
  for (std::thread& t : submitters) t.join();
  for (std::thread& t : workers) t.join();

  EXPECT_GE(completed.load(), 3u);
  EXPECT_FALSE(expected.empty());
}

// --- EINTR signal storm ------------------------------------------------------

std::atomic<std::uint64_t> g_signals_delivered{0};

extern "C" void stress_sigusr1_handler(int) {
  g_signals_delivered.fetch_add(1, std::memory_order_relaxed);
}

/// Installs a no-op SIGUSR1 handler WITHOUT SA_RESTART for its lifetime,
/// so every slow syscall in the process can fail with EINTR instead of
/// being transparently restarted — the harshest setting for the retry
/// loops in io/framing.cpp.
class SignalStorm {
 public:
  SignalStorm() {
    struct sigaction action {};
    action.sa_handler = stress_sigusr1_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // deliberately NOT SA_RESTART
    sigaction(SIGUSR1, &action, &previous_);
    storm_ = std::thread([this] {
      while (!stop_.load()) {
        ::kill(::getpid(), SIGUSR1);
        // Tight enough to land inside send/recv/connect windows, loose
        // enough that handlers are not the only thing that runs.
        ::usleep(100);
      }
    });
  }
  ~SignalStorm() {
    stop_.store(true);
    storm_.join();
    sigaction(SIGUSR1, &previous_, nullptr);
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread storm_;
  struct sigaction previous_ {};
};

// A full service round-trip (connect, submit, steal, stream, merge) under
// a constant hail of EINTRs must produce the exact same bytes as a calm
// run.  Before connect_socket() handled EINTR this failed as a spurious
// "connection failed"; a missing retry in a send/recv loop shows up as a
// torn frame or a short document.
TEST(ServiceStress, SignalStormDoesNotPerturbResults) {
  const JobSpec job = stress_sweep_job();

  // Calm reference first, same process, no storm.
  std::string calm_document;
  {
    dist::Service::Options options;
    options.points_per_shard = 1;
    dist::Service service(options);
    service.start();
    const std::string address = service.address();
    std::thread worker([address] { dist::ServiceWorker().run(address); });
    calm_document = dist::submit_job(address, job).document;
    service.request_stop();
    service.wait();
    worker.join();
  }
  ASSERT_FALSE(calm_document.empty());

  // Analytic rounds are fast (single-digit ms); keep running them until
  // the storm has demonstrably landed a few hundred signals inside them.
  SignalStorm storm;
  for (int round = 0;
       round < 200 && g_signals_delivered.load() < 500; ++round) {
    dist::Service::Options options;
    options.points_per_shard = 1;
    dist::Service service(options);
    service.start();
    const std::string address = service.address();
    std::thread worker([address] { dist::ServiceWorker().run(address); });
    const dist::SubmitResult result = dist::submit_job(address, job);
    service.request_stop();
    service.wait();
    worker.join();
    EXPECT_EQ(result.document, calm_document) << "round " << round;
  }
  // The storm must actually have stormed for the rounds to mean anything.
  EXPECT_GT(g_signals_delivered.load(), 100u);
}

}  // namespace
