// The sweep service (dist/service.h) and its parts: steal-queue ownership
// and fault-tolerance invariants, the two-tier result cache (LRU + spill,
// including torn-tail recovery), the framed socket transport and its
// frame-size cap, canonical per-point fingerprints, hostile peers, the
// spill-file checkpoint, and the acceptance anchor — a service-computed
// job is byte-identical to `sramlp_dist single` on the same job, and a
// resubmitted job is answered from the cache without executing a shard,
// byte-identical again.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dist/job.h"
#include "dist/result_cache.h"
#include "dist/service.h"
#include "dist/steal_queue.h"
#include "faults/batch.h"
#include "io/framing.h"
#include "march/algorithms.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "power/trace.h"
#include "search/serialize.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;
using namespace sramlp;
using dist::JobSpec;

/// Fresh per-test scratch directory under the system temp dir.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("sramlp_service_test_" + tag + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

JobSpec small_sweep_job() {
  JobSpec job;
  job.kind = JobSpec::Kind::kSweep;
  job.grid.geometries = {{8, 16, 1}, {4, 32, 1}, {6, 24, 2}};
  job.grid.backgrounds = {sram::DataBackground::solid0(),
                          sram::DataBackground::checkerboard()};
  job.grid.algorithms = {march::algorithms::mats_plus(),
                         march::algorithms::march_c_minus()};
  return job;  // 12 points
}

JobSpec small_campaign_job() {
  JobSpec job;
  job.kind = JobSpec::Kind::kCampaign;
  job.config.geometry = {8, 8, 1};
  job.test = march::algorithms::march_c_minus();
  job.faults = faults::standard_fault_library(job.config.geometry, 11);
  return job;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

/// Indices 0..n-1 cut the way the service cuts a sweep: consecutive runs
/// of @p per (the last one shorter).
std::vector<std::vector<std::size_t>> unit_runs(std::size_t n,
                                                std::size_t per) {
  return dist::lease_units(small_sweep_job(), iota_indices(n), per);
}

// --- StealQueue --------------------------------------------------------------

TEST(StealQueue, LeasesExactlyTheGivenUnitsAndPreservesEveryIndex) {
  dist::StealQueue queue(unit_runs(10, 3));
  const auto stats = queue.stats();
  EXPECT_EQ(stats.shard_count, 4u);  // 3+3+3+1
  EXPECT_EQ(stats.pending, 4u);
  EXPECT_FALSE(queue.done());
  std::vector<std::size_t> seen;
  while (auto shard = queue.lease(1)) {
    EXPECT_EQ(shard->indices, queue.indices(shard->id));
    seen.insert(seen.end(), shard->indices.begin(), shard->indices.end());
    queue.complete(shard->id);
  }
  EXPECT_EQ(seen, iota_indices(10));
  EXPECT_THROW(queue.indices(4), Error);
}

TEST(StealQueue, LeaseUnitCapMergesNeighbouringUnits) {
  // 1000 one-point units: merged pairwise to fit the 512-unit cap.
  const dist::StealQueue queue(unit_runs(1000, 1));
  const auto stats = queue.stats();
  EXPECT_LE(stats.shard_count, dist::kMaxLeaseUnits);
  // ceil(1000/512) = 2 units per shard -> 500 shards of 2.
  EXPECT_EQ(stats.shard_count, 500u);
  EXPECT_EQ(queue.indices(499), (std::vector<std::size_t>{998, 999}));
}

TEST(StealQueue, LeaseCompleteLifecycle) {
  dist::StealQueue queue(unit_runs(4, 2));
  std::size_t seen = 0;
  while (auto shard = queue.lease(/*worker_id=*/1)) {
    seen += shard->indices.size();
    queue.complete(shard->id);
  }
  EXPECT_EQ(seen, 4u);
  EXPECT_TRUE(queue.done());
  EXPECT_EQ(queue.stats().requeues, 0u);
}

TEST(StealQueue, AbandonRequeuesOnlyThatWorkersLeases) {
  dist::StealQueue queue(unit_runs(6, 2));  // 3 shards
  const auto a = queue.lease(1);
  const auto b = queue.lease(2);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(queue.abandon(1), 1u);  // worker 1 died holding one shard
  EXPECT_EQ(queue.stats().pending, 2u);  // its shard + the never-leased one
  // Worker 2 finishes everything, including the requeued shard.
  queue.complete(b->id);
  while (auto shard = queue.lease(2)) queue.complete(shard->id);
  EXPECT_TRUE(queue.done());
  EXPECT_EQ(queue.stats().requeues, 1u);
}

TEST(StealQueue, LateCompletionOfRequeuedShardDropsStalePendingCopy) {
  dist::StealQueue queue(unit_runs(2, 2));  // one shard
  const auto shard = queue.lease(1);
  ASSERT_TRUE(shard);
  EXPECT_EQ(queue.abandon(1), 1u);   // presumed dead...
  queue.complete(shard->id);         // ...but its completion arrives late
  EXPECT_TRUE(queue.done());
  EXPECT_FALSE(queue.lease(2).has_value());  // stale copy is gone
}

TEST(StealQueue, FailRetriesBoundedTimes) {
  dist::StealQueue queue(unit_runs(2, 2));  // one shard
  const unsigned retries = 1;                  // 2 attempts total
  auto first = queue.lease(1);
  ASSERT_TRUE(first);
  EXPECT_TRUE(queue.fail(first->id, retries));   // attempt 1 failed: requeued
  auto second = queue.lease(1);
  ASSERT_TRUE(second);
  EXPECT_FALSE(queue.fail(second->id, retries));  // attempt 2 failed: give up
}

// --- ResultCache -------------------------------------------------------------

TEST(ResultCache, MemoryLruEvictsLeastRecentlyUsed) {
  dist::ResultCache cache({/*capacity=*/2, /*spill_path=*/""});
  cache.put(1, "one");
  cache.put(2, "two");
  EXPECT_EQ(cache.get(1), std::optional<std::string>("one"));  // 1 now MRU
  cache.put(3, "three");                                       // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_FALSE(cache.get(2).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCache, SpillSurvivesRestartAndEviction) {
  TempDir dir("spill");
  const std::string spill = dir.str() + "/cache.jsonl";
  {
    dist::ResultCache cache({/*capacity=*/1, spill});
    cache.put(10, "ten");
    cache.put(20, "twenty");  // evicts 10 from memory; both on disk
    EXPECT_EQ(cache.get(10), std::optional<std::string>("ten"));  // spill hit
    EXPECT_GE(cache.stats().spill_hits, 1u);
  }
  // A fresh cache over the same spill file warm-starts from it.
  dist::ResultCache reborn({/*capacity=*/4, spill});
  EXPECT_EQ(reborn.stats().loaded, 2u);
  EXPECT_EQ(reborn.get(20), std::optional<std::string>("twenty"));
  EXPECT_EQ(reborn.get(10), std::optional<std::string>("ten"));
}

TEST(ResultCache, TornTailRecordIsSkippedAndOverwritten) {
  TempDir dir("torn");
  const std::string spill = dir.str() + "/cache.jsonl";
  {
    dist::ResultCache cache({4, spill});
    cache.put(1, "alpha");
    cache.put(2, "beta");
  }
  {
    // Simulate a daemon killed mid-append: chop the final record short.
    std::ifstream in(spill);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(spill, std::ios::trunc);
    out << contents.substr(0, contents.size() - 7);
  }
  dist::ResultCache cache({4, spill});
  EXPECT_EQ(cache.stats().loaded, 1u);  // the intact record only
  EXPECT_EQ(cache.get(1), std::optional<std::string>("alpha"));
  EXPECT_FALSE(cache.get(2).has_value());
  cache.put(3, "gamma");  // appends cleanly past the torn tail
  dist::ResultCache after({4, spill});
  EXPECT_EQ(after.get(3), std::optional<std::string>("gamma"));
  EXPECT_EQ(after.get(1), std::optional<std::string>("alpha"));
}

// --- framing -----------------------------------------------------------------

TEST(Framing, RoundTripsDocumentsOverTcp) {
  io::Socket listener = io::listen_socket("tcp:0");
  const std::string address = io::local_address(listener);
  std::thread server([&] {
    io::LineChannel channel(io::accept_connection(listener));
    while (auto message = channel.receive()) channel.send(*message);
  });
  io::LineChannel client(io::connect_socket(address, 2000));
  io::JsonValue doc = io::JsonValue::object();
  doc.set("exact", io::JsonValue::integer(9007199254740993ull));  // 2^53+1
  doc.set("pi", io::JsonValue::number(3.141592653589793));
  ASSERT_TRUE(client.send(doc));
  const auto echo = client.receive();
  ASSERT_TRUE(echo.has_value());
  EXPECT_EQ(echo->dump(), doc.dump());  // byte-exact through the wire
  client.shutdown();
  listener.shutdown();
  server.join();
}

TEST(Framing, UnixSocketAndStaleBindRecovery) {
  TempDir dir("unixsock");
  const std::string address = "unix:" + dir.str() + "/svc.sock";
  {
    io::Socket listener = io::listen_socket(address);
    EXPECT_EQ(io::local_address(listener), address);
  }
  // The path is now a stale socket file; rebinding must succeed.
  io::Socket listener = io::listen_socket(address);
  std::thread server([&] {
    io::LineChannel channel(io::accept_connection(listener));
    channel.receive();
  });
  io::LineChannel client(io::connect_socket(address, 2000));
  EXPECT_TRUE(client.send(io::JsonValue::object()));
  client.shutdown();
  listener.shutdown();
  server.join();
}

/// A LineChannel over one end of a Unix socket pair, and the raw other end.
struct ChannelPair {
  ChannelPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    channel = std::make_unique<io::LineChannel>(io::Socket(fds[0]));
    writer = io::Socket(fds[1]);
  }

  /// Send @p bytes in pieces of at most @p piece bytes, then end the
  /// stream.
  void send_then_close(const std::string& bytes, std::size_t piece) {
    for (std::size_t off = 0; off < bytes.size();) {
      const ssize_t n =
          ::send(writer.fd(), bytes.data() + off,
                 std::min(piece, bytes.size() - off), MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    writer.shutdown();
  }

  /// Every document until end of stream.
  std::vector<io::JsonValue> receive_all() {
    std::vector<io::JsonValue> received;
    while (auto message = channel->receive())
      received.push_back(std::move(*message));
    return received;
  }

  std::unique_ptr<io::LineChannel> channel;
  io::Socket writer;
};

TEST(Framing, MegabyteFrameArrivingInSmallPiecesParses) {
  ChannelPair pair;
  io::JsonValue doc = io::JsonValue::object();
  doc.set("blob", io::JsonValue::string(std::string(std::size_t{1} << 20,
                                                    'x')));
  doc.set("tail", io::JsonValue::integer(7));
  const std::string frame = doc.dump() + '\n';
  std::thread sender([&] { pair.send_then_close(frame, 4096); });
  const std::vector<io::JsonValue> received = pair.receive_all();
  sender.join();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].dump(), doc.dump());
}

TEST(Framing, BurstOfSmallLinesParsesInOrder) {
  ChannelPair pair;
  constexpr std::uint64_t kLines = 10000;
  std::string burst;
  for (std::uint64_t i = 0; i < kLines; ++i) {
    io::JsonValue line = io::JsonValue::object();
    line.set("seq", io::JsonValue::integer(i));
    burst += line.dump() + '\n';
  }
  std::thread sender([&] { pair.send_then_close(burst, burst.size()); });
  const std::vector<io::JsonValue> received = pair.receive_all();
  sender.join();
  ASSERT_EQ(received.size(), kLines);
  for (std::uint64_t i = 0; i < kLines; ++i)
    EXPECT_EQ(received[i].at("seq").as_uint(), i);
}

TEST(Framing, GarbledFrameReadsAsEndOfStream) {
  io::Socket listener = io::listen_socket("tcp:0");
  const std::string address = io::local_address(listener);
  std::thread server([&] {
    io::Socket conn = io::accept_connection(listener);
    const char raw[] = "{\"truncated\": tru\n";  // never valid JSON
    (void)::send(conn.fd(), raw, sizeof raw - 1, 0);
  });
  io::LineChannel client(io::connect_socket(address, 2000));
  EXPECT_FALSE(client.receive().has_value());  // a garbled frame reads as EOF
  server.join();
  listener.shutdown();
}

// --- fingerprints ------------------------------------------------------------

TEST(Fingerprints, SamePhysicalPointHashesEquallyAcrossGrids) {
  const JobSpec big = small_sweep_job();
  JobSpec small;
  small.kind = JobSpec::Kind::kSweep;
  // Grid point (geometry 0, background 0, algorithm 0) of `big`, alone.
  small.grid.geometries = {big.grid.geometries[0]};
  small.grid.backgrounds = {big.grid.backgrounds[0]};
  small.grid.algorithms = {big.grid.algorithms[0]};
  EXPECT_EQ(dist::point_fingerprint(big, 0), dist::point_fingerprint(small, 0));
  // A different algorithm at the same config must NOT collide.
  EXPECT_NE(dist::point_fingerprint(big, 0), dist::point_fingerprint(big, 1));
  // Job fingerprints of different grids differ even when points overlap.
  EXPECT_NE(big.fingerprint(), small.fingerprint());
}

TEST(Fingerprints, Fnv1a64MatchesKnownVector) {
  // FNV-1a test vectors: empty -> offset basis, "a" -> published digest.
  EXPECT_EQ(dist::fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(dist::fnv1a64("a"), 12638187200555641996ull);
  // Streaming: continuing a state equals hashing the concatenation.
  EXPECT_EQ(dist::fnv1a64("b", dist::fnv1a64("a")), dist::fnv1a64("ab"));
}

/// The per-point key as it was built before PointKeys: one JSON object per
/// index, dumped and hashed whole.  Frozen here so that every key a spill
/// file already holds provably stays valid — except a search item's: the
/// job became one item under a new "kind", so per-order items miss
/// (SpillFromPerOrderSearchItemsAnswersNothing).
std::uint64_t reference_point_fingerprint(const JobSpec& job,
                                          std::size_t index) {
  io::JsonValue key = io::JsonValue::object();
  if (job.kind == JobSpec::Kind::kSweep) {
    std::size_t geometry = 0, background = 0, algorithm = 0;
    job.grid.split(index, &geometry, &background, &algorithm);
    key.set("kind", io::JsonValue::string("sweep_point"));
    key.set("config", io::to_json(job.grid.config_at(index)));
    key.set("test", io::to_json(job.grid.algorithms[algorithm]));
  } else if (job.kind == JobSpec::Kind::kCampaign) {
    key.set("kind", io::JsonValue::string("campaign_entry"));
    key.set("config", io::to_json(job.config));
    key.set("test", io::to_json(*job.test));
    key.set("fault", io::to_json(job.faults[index]));
  } else {
    key.set("kind", io::JsonValue::string("search_job"));
    key.set("search", io::to_json(*job.search));
  }
  return dist::fnv1a64(key.dump());
}

/// A seeded sweep job: 1-3 non-square geometries of word width 1, 4 or 8,
/// every background, 1-4 library algorithms, a perturbed session base.
JobSpec generated_sweep_job(std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<march::MarchTest> library = march::algorithms::all();
  constexpr std::array<std::size_t, 3> kWidths = {1, 4, 8};
  JobSpec job;
  job.kind = JobSpec::Kind::kSweep;
  for (std::uint64_t g = 0, n = 1 + rng.next_below(3); g < n; ++g) {
    const std::size_t width = kWidths[rng.next_below(kWidths.size())];
    job.grid.geometries.push_back(
        {1 + rng.next_below(40), width * (1 + rng.next_below(12)), width});
  }
  job.grid.backgrounds.clear();
  for (const sram::BackgroundKind kind : sram::DataBackground::kinds())
    job.grid.backgrounds.push_back(sram::DataBackground(kind));
  for (std::uint64_t a = 0, n = 1 + rng.next_below(4); a < n; ++a)
    job.grid.algorithms.push_back(library[rng.next_below(library.size())]);
  job.grid.base.wordline_duty = 0.25 + 0.5 * rng.next_double();
  job.grid.base.row_transition_restore = rng.next_bool();
  return job;
}

JobSpec small_search_job(std::uint64_t seed) {
  JobSpec job;
  job.kind = JobSpec::Kind::kSearch;
  search::SearchSpec spec;
  spec.config.geometry = {16, 32, 1};
  spec.base = march::algorithms::march_c_minus();
  spec.window_cycles = 4 * spec.config.geometry.words();
  spec.seed = seed;
  spec.idle_quantum = 512;
  job.search = std::move(spec);
  return job;
}

TEST(Fingerprints, PointKeysMatchTheFrozenJsonObjectKeys) {
  std::vector<JobSpec> jobs = {small_sweep_job(), small_campaign_job(),
                               small_search_job(7), small_search_job(8)};
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    jobs.push_back(generated_sweep_job(seed));
  JobSpec campaign = small_campaign_job();
  campaign.config.geometry = {6, 24, 4};
  campaign.config.background = sram::DataBackground::checkerboard();
  campaign.test = march::algorithms::march_ss();
  campaign.faults = faults::standard_fault_library(campaign.config.geometry, 3);
  jobs.push_back(campaign);

  std::size_t compared = 0;
  for (const JobSpec& job : jobs) {
    dist::PointKeys keys(job);
    // Descending, so the lazily built prefixes are first needed out of
    // grid order.
    for (std::size_t i = job.size(); i-- > 0;) {
      EXPECT_EQ(keys.key(i), reference_point_fingerprint(job, i))
          << "item " << i << " of " << job.size();
      ++compared;
    }
    EXPECT_EQ(dist::point_fingerprint(job, 0),
              reference_point_fingerprint(job, 0));
  }
  EXPECT_GT(compared, 500u);
}

// --- Service end-to-end ------------------------------------------------------

/// Service + worker-thread harness: workers run the real steal protocol
/// over real sockets, in-process.
class ServiceHarness {
 public:
  explicit ServiceHarness(dist::Service::Options options,
                          std::size_t workers = 2,
                          dist::ServiceWorker::Options worker_options = {}) {
    options.listen = "tcp:0";
    service_ = std::make_unique<dist::Service>(options);
    service_->start();
    address_ = service_->address();
    for (std::size_t w = 0; w < workers; ++w)
      threads_.emplace_back([this, worker_options] {
        dist::ServiceWorker(worker_options).run(service_->address());
      });
    // A worker still connecting when a short test ends would find the
    // listener closed, retry for its connect timeout and then terminate
    // the process: start timing only once every worker is in.
    for (int waited_ms = 0; service_->stats().workers_connected < workers;
         ++waited_ms) {
      if (waited_ms == 10000) {
        ADD_FAILURE() << "workers never connected";
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ~ServiceHarness() {
    service_->request_stop();
    service_->wait();
    for (std::thread& t : threads_) t.join();
  }

  const std::string& address() const { return address_; }
  dist::Service& service() { return *service_; }

  void add_worker(dist::ServiceWorker::Options options) {
    threads_.emplace_back([this, options] {
      dist::ServiceWorker(options).run(service_->address());
    });
  }

 private:
  std::unique_ptr<dist::Service> service_;
  std::string address_;
  std::vector<std::thread> threads_;
};

TEST(Service, SweepJobByteIdenticalToSingleAndCachedOnResubmit) {
  const JobSpec job = small_sweep_job();
  const std::string reference = dist::single_document(job);
  dist::Service::Options options;
  options.points_per_shard = 2;
  ServiceHarness harness(options, /*workers=*/3);

  const dist::SubmitResult first =
      dist::submit_job(harness.address(), job, 5000);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.total_points, job.size());
  EXPECT_EQ(first.streamed_lines, job.size());
  EXPECT_EQ(first.document, reference);  // byte-identical to single

  const dist::SubmitResult second =
      dist::submit_job(harness.address(), job, 5000);
  EXPECT_TRUE(second.cache_hit);           // no shard executed
  EXPECT_EQ(second.streamed_lines, 0u);    // replayed, not recomputed
  EXPECT_EQ(second.document, reference);   // byte-identical again

  const dist::ServiceStats stats = harness.service().stats();
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_EQ(stats.job_cache_hits, 1u);
  EXPECT_EQ(stats.points_executed, job.size());  // once, not twice
}

/// Submit @p job over a raw channel; its job_complete message (null when
/// the connection ends first).
io::JsonValue job_complete_of(const std::string& address, const JobSpec& job) {
  io::LineChannel channel(io::connect_socket(address, 5000));
  io::JsonValue submit = io::JsonValue::object();
  submit.set("type", io::JsonValue::string("submit"));
  submit.set("job", dist::to_json(job));
  EXPECT_TRUE(channel.send(submit));
  while (const std::optional<io::JsonValue> message = channel.receive())
    if (message->at("type").as_string() == "job_complete") return *message;
  return {};
}

TEST(Service, CampaignJobByteIdenticalToSingle) {
  const JobSpec job = small_campaign_job();
  const std::string reference = dist::single_document(job);
  dist::Service::Options options;
  // Fallback faults (this 8x8 library has a few) go out one per shard, so
  // every shard is exactly one session pair.
  options.points_per_shard = 1;
  ServiceHarness harness(options, /*workers=*/2);
  const io::JsonValue complete = job_complete_of(harness.address(), job);
  ASSERT_FALSE(complete.is_null());
  EXPECT_EQ(complete.at("document").as_string(), reference);
  // One shard per plan_batches session pair: the service leases whole
  // batches, never a slice across them.
  EXPECT_EQ(complete.at("shards_executed").as_uint(),
            faults::plan_batches(job.faults).session_pairs());
  const dist::SubmitResult again =
      dist::submit_job(harness.address(), job, 5000);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.document, reference);
}

TEST(Service, SearchJobIsOneShard) {
  JobSpec job = small_search_job(3);
  job.search->max_idle_quanta = 8;
  job.search->peak_budget_w = 1e-3;  // under any reachable peak: bisected
  const std::string reference = dist::single_document(job);
  dist::Service::Options options;  // points_per_shard 4 does not apply
  ServiceHarness harness(options, /*workers=*/2);
  const io::JsonValue complete = job_complete_of(harness.address(), job);
  ASSERT_FALSE(complete.is_null());
  EXPECT_EQ(complete.at("document").as_string(), reference);
  // The whole job, all 4 of March C-'s orders, is one item and one shard.
  ASSERT_EQ(job.size(), 1u);
  EXPECT_EQ(complete.at("shards_executed").as_uint(), 1u);
}

TEST(Service, HostileSearchJobIsRejectedAndWorkersServeOn) {
  dist::Service::Options options;
  ServiceHarness harness(options, /*workers=*/1);
  // An idle budget the exact solver could never allocate for.
  io::JsonValue hostile = dist::to_json(small_search_job(1));
  io::JsonValue spec = hostile.at("search");
  spec.set("max_idle_quanta", io::JsonValue::integer(1'000'000'000'000));
  hostile.set("search", std::move(spec));
  {
    io::LineChannel channel(io::connect_socket(harness.address(), 5000));
    io::JsonValue submit = io::JsonValue::object();
    submit.set("type", io::JsonValue::string("submit"));
    submit.set("job", std::move(hostile));
    ASSERT_TRUE(channel.send(submit));
    const auto reply = channel.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->at("type").as_string(), "job_failed");
    EXPECT_NE(reply->dump().find("max_idle_quanta"), std::string::npos)
        << reply->dump();
  }
  // The daemon and its one worker still compute a real search job.
  const JobSpec job = small_search_job(2);
  const io::JsonValue complete = job_complete_of(harness.address(), job);
  ASSERT_FALSE(complete.is_null());
  EXPECT_EQ(complete.at("document").as_string(), dist::single_document(job));
  EXPECT_EQ(complete.at("shards_executed").as_uint(), job.size());
}

TEST(Service, PointCacheAnswersOverlapOfANewJob) {
  const JobSpec big = small_sweep_job();  // 12 points
  JobSpec subset;
  subset.kind = JobSpec::Kind::kSweep;
  subset.grid.geometries = {big.grid.geometries[0], big.grid.geometries[1]};
  subset.grid.backgrounds = {big.grid.backgrounds[0]};
  subset.grid.algorithms = big.grid.algorithms;  // 4 points, all inside big
  const std::string reference = dist::single_document(subset);

  dist::Service::Options options;
  options.points_per_shard = 2;
  ServiceHarness harness(options, /*workers=*/2);
  dist::submit_job(harness.address(), big, 5000);
  const dist::SubmitResult result =
      dist::submit_job(harness.address(), subset, 5000);
  EXPECT_FALSE(result.cache_hit);  // different job fingerprint...
  EXPECT_EQ(result.cached_points, subset.size());  // ...but every point known
  EXPECT_EQ(result.document, reference);  // rebound coordinates, exact bytes
  EXPECT_EQ(harness.service().stats().points_executed, big.size());
}

TEST(Service, InFlightDuplicateSubmitsAttachInsteadOfRecomputing) {
  const JobSpec job = small_sweep_job();
  const std::string reference = dist::single_document(job);
  dist::Service::Options options;
  options.points_per_shard = 1;  // many small shards: a wide in-flight window
  dist::ServiceWorker::Options slow;
  slow.slow_point_us = 3000;
  ServiceHarness harness(options, /*workers=*/1, slow);

  std::vector<dist::SubmitResult> results(2);
  std::thread a([&] { results[0] = dist::submit_job(harness.address(), job); });
  std::thread b([&] { results[1] = dist::submit_job(harness.address(), job); });
  a.join();
  b.join();
  EXPECT_EQ(results[0].document, reference);
  EXPECT_EQ(results[1].document, reference);
  const dist::ServiceStats stats = harness.service().stats();
  // Both orders are legal (the second submit may land after completion and
  // hit the job cache instead), but the points ran at most once.
  EXPECT_EQ(stats.points_executed, job.size());
  EXPECT_EQ(stats.jobs_deduplicated + stats.job_cache_hits, 1u);
}

TEST(Service, SpillFileAnswersAcrossDaemonRestartsWithNoWorkers) {
  TempDir dir("restart");
  const std::string spill = dir.str() + "/results.jsonl";
  const JobSpec job = small_sweep_job();
  std::string reference;
  {
    dist::Service::Options options;
    options.cache.spill_path = spill;
    ServiceHarness harness(options, /*workers=*/2);
    reference = dist::submit_job(harness.address(), job, 5000).document;
  }
  // A brand-new daemon with ZERO workers must answer from the spill.
  dist::Service::Options options;
  options.cache.spill_path = spill;
  ServiceHarness harness(options, /*workers=*/0);
  const dist::SubmitResult result =
      dist::submit_job(harness.address(), job, 5000);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.document, reference);
  EXPECT_EQ(result.document, dist::single_document(job));
}

TEST(Service, StatsQueryAndShutdownOverTheWire) {
  dist::Service::Options options;
  ServiceHarness harness(options, /*workers=*/1);
  dist::submit_job(harness.address(), small_sweep_job(), 5000);
  const dist::ServiceStats stats = dist::query_stats(harness.address());
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_GE(stats.workers_connected, 1u);
  dist::request_shutdown(harness.address());
  harness.service().wait();  // returns because the shutdown arrived
}

TEST(Service, TelemetryOnOffDocumentsAreByteIdentical) {
  // The telemetry contract: logging at the chattiest level plus span
  // tracing must never perturb a single result byte — for every job kind,
  // traced sweeps included.  Both daemons compute every job from scratch
  // (independent daemons, no shared spill file), so this is not answered
  // by cache replay.
  TempDir dir("telemetry");
  JobSpec traced = small_sweep_job();
  traced.grid.base.trace =
      power::TraceConfig{.window_cycles = 32, .keep_windows = true};
  const std::vector<JobSpec> jobs = {small_sweep_job(), traced,
                                     small_campaign_job(),
                                     small_search_job(4)};
  std::size_t items = 0;
  for (const JobSpec& job : jobs) items += job.size();
  const auto serve_all = [&] {
    dist::Service::Options options;
    options.points_per_shard = 2;
    ServiceHarness harness(options, /*workers=*/2);
    std::vector<std::string> documents;
    for (const JobSpec& job : jobs)
      documents.push_back(
          dist::submit_job(harness.address(), job, 5000).document);
    EXPECT_EQ(harness.service().stats().points_executed, items);
    return documents;
  };

  obs::Logger::global().configure(obs::LogLevel::kDebug,
                                  obs::Logger::Format::kJsonl,
                                  dir.str() + "/service.log");
  obs::Tracer::global().enable(1 << 12);
  const std::vector<std::string> with_telemetry = serve_all();
  const std::uint64_t spans = obs::Tracer::global().recorded();
  const std::string trace = obs::Tracer::global().dump_chrome_json();
  obs::Tracer::global().disable();
  obs::Logger::global().configure(obs::LogLevel::kOff,
                                  obs::Logger::Format::kHuman, "");
  const std::vector<std::string> without_telemetry = serve_all();
  obs::Logger::global().configure(obs::LogLevel::kInfo,
                                  obs::Logger::Format::kHuman, "");

  // The instrumented run actually instrumented something...
  EXPECT_GT(spans, 0u);
  for (const char* name : {"job", "shard", "finalize", "lease", "execute"})
    EXPECT_NE(trace.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  EXPECT_FALSE(read_file(dir.str() + "/service.log").empty());
  // ...and neither telemetry state changed a single byte.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::string reference = dist::single_document(jobs[j]);
    EXPECT_EQ(with_telemetry[j], reference) << "job " << j;
    EXPECT_EQ(without_telemetry[j], reference) << "job " << j;
  }
}

TEST(Service, MetricsRequestServesPrometheusOverTheWire) {
  dist::Service::Options options;
  ServiceHarness harness(options, /*workers=*/1);
  dist::submit_job(harness.address(), small_sweep_job(), 5000);
  const dist::MetricsSnapshot snapshot =
      dist::query_metrics(harness.address());
  // The Prometheus text carries the service counters with live values.
  EXPECT_NE(snapshot.prometheus.find("# TYPE sramlp_jobs_submitted_total"),
            std::string::npos);
  EXPECT_NE(snapshot.prometheus.find("sramlp_points_executed_total"),
            std::string::npos);
  // The JSON lane exposes the same registry.
  EXPECT_TRUE(snapshot.json.has("sramlp_jobs_submitted_total"));
  EXPECT_GE(snapshot.json.at("sramlp_jobs_submitted_total")
                .at("instances")
                .at(std::size_t{0})
                .at("value")
                .as_uint(),
            1u);
}

/// A protocol message from its JSON text.
io::JsonValue frame(const char* text) { return io::JsonValue::parse(text); }

/// The value of the first instance of family @p name in @p snapshot's
/// JSON lane, checked against its Prometheus text line.
std::uint64_t scraped(const dist::MetricsSnapshot& snapshot,
                      const std::string& name) {
  const std::uint64_t value = snapshot.json.at(name)
                                  .at("instances")
                                  .at(std::size_t{0})
                                  .at("value")
                                  .as_uint();
  EXPECT_NE(snapshot.prometheus.find("\n" + name + " " +
                                     std::to_string(value) + "\n"),
            std::string::npos)
      << name;
  return value;
}

/// Every ServiceStats and cache counter family of @p harness's scrape
/// reads exactly its service's stats().
void expect_scrape_matches_stats(ServiceHarness& harness) {
  const dist::MetricsSnapshot snapshot =
      dist::query_metrics(harness.address());
  const dist::ServiceStats stats = harness.service().stats();
  for (const dist::ServiceCounter& counter : dist::kServiceCounters)
    EXPECT_EQ(scraped(snapshot, std::string("sramlp_") + counter.name +
                                    "_total"),
              stats.*counter.member)
        << counter.name;
  for (const dist::CacheCounter& counter : dist::kCacheCounters)
    EXPECT_EQ(scraped(snapshot, std::string("sramlp_cache_") + counter.name +
                                    "_total"),
              stats.cache.*counter.member)
        << counter.name;
}

/// Observations in histogram @p name of @p snapshot (0 before the first).
std::uint64_t histogram_count(const dist::MetricsSnapshot& snapshot,
                              const std::string& name) {
  if (!snapshot.json.has(name)) return 0;
  return snapshot.json.at(name)
      .at("instances")
      .at(std::size_t{0})
      .at("count")
      .as_uint();
}

TEST(Service, MetricsScrapeCountsEachServiceOnItsOwn) {
  // Two daemons in one process: each scrape reads its own service, not a
  // process-wide tally.
  dist::Service::Options options;
  options.points_per_shard = 2;
  ServiceHarness first(options, /*workers=*/1);
  ServiceHarness second(options, /*workers=*/0);
  const JobSpec sweep = small_sweep_job();
  dist::submit_job(first.address(), sweep, 5000);
  // On the second daemon a worker vanishes holding a leased shard before
  // a healthy one runs the job: one abandoned shard, leased twice.
  const JobSpec campaign = small_campaign_job();
  std::string campaign_document;
  std::thread submitter([&] {
    campaign_document =
        dist::submit_job(second.address(), campaign, 5000).document;
  });
  {
    io::LineChannel peer(io::connect_socket(second.address(), 5000));
    ASSERT_TRUE(peer.send(frame(R"({"type":"hello","role":"worker"})")));
    ASSERT_TRUE(peer.send(frame(R"({"type":"lease"})")));
    const std::optional<io::JsonValue> shard = peer.receive();
    ASSERT_TRUE(shard.has_value());
    ASSERT_EQ(shard->at("type").as_string(), "shard");
  }
  for (int waited_ms = 0; second.service().stats().workers_lost == 0;
       ++waited_ms) {
    ASSERT_LT(waited_ms, 10000) << "the leasing peer was never dropped";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  second.add_worker({});
  submitter.join();
  EXPECT_EQ(campaign_document, dist::single_document(campaign));
  for (ServiceHarness* harness : {&first, &second}) {
    const dist::MetricsSnapshot snapshot =
        dist::query_metrics(harness->address());
    EXPECT_EQ(scraped(snapshot, "sramlp_jobs_submitted_total"), 1u);
    const dist::ServiceStats stats = harness->service().stats();
    const std::uint64_t abandoned = harness == &second ? 1 : 0;
    EXPECT_EQ(scraped(snapshot, "sramlp_shards_abandoned_total"), abandoned);
    EXPECT_EQ(scraped(snapshot, "sramlp_shards_leased_total"),
              stats.shards_executed + abandoned);
    // The timings too: every grant so far (parked leases are not), every
    // accepted shard_done, of this service alone.
    EXPECT_EQ(histogram_count(snapshot, "sramlp_lease_latency_seconds"),
              stats.shards_leased);
    EXPECT_EQ(histogram_count(snapshot, "sramlp_shard_execution_seconds"),
              stats.shards_executed);
    expect_scrape_matches_stats(*harness);
  }

  // A whole-job cache hit, point-cache hits and a rejected job on the
  // first daemon; the scrape keeps reading its stats().
  EXPECT_TRUE(dist::submit_job(first.address(), sweep, 5000).cache_hit);
  JobSpec subset = sweep;
  subset.grid.geometries.pop_back();
  EXPECT_EQ(dist::submit_job(first.address(), subset, 5000).cached_points,
            subset.size());
  {
    io::LineChannel channel(io::connect_socket(first.address(), 5000));
    io::JsonValue bad = io::JsonValue::object();
    bad.set("type", io::JsonValue::string("submit"));
    bad.set("job", io::JsonValue::object());
    ASSERT_TRUE(channel.send(bad));
    const auto reply = channel.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->at("type").as_string(), "job_failed");
  }
  const dist::ServiceStats stats = first.service().stats();
  EXPECT_EQ(stats.jobs_submitted, 3u);
  EXPECT_EQ(stats.job_cache_hits, 1u);
  EXPECT_EQ(stats.point_cache_hits, subset.size());
  expect_scrape_matches_stats(first);
  EXPECT_EQ(scraped(dist::query_metrics(second.address()),
                    "sramlp_jobs_submitted_total"),
            1u);
}

TEST(Service, SubmitterCountersCountEachServiceOnItsOwn) {
  // Two daemons in one process: the per-submitter families are the
  // scraped service's own, like its other counters.
  dist::Service::Options options;
  ServiceHarness first(options, /*workers=*/1);
  ServiceHarness second(options, /*workers=*/1);
  const JobSpec sweep = small_sweep_job();
  dist::submit_job(first.address(), sweep, 5000, {}, "alice");
  dist::submit_job(second.address(), sweep, 5000, {}, "bob");
  EXPECT_TRUE(
      dist::submit_job(second.address(), sweep, 5000, {}, "bob").cache_hit);
  const std::string a = dist::query_metrics(first.address()).prometheus;
  const std::string b = dist::query_metrics(second.address()).prometheus;
  for (const char* family : {"sramlp_submitter_jobs_queued_total",
                             "sramlp_submitter_jobs_completed_total"}) {
    EXPECT_NE(a.find(std::string(family) + "{submitter=\"alice\"} 1"),
              std::string::npos)
        << a;
    EXPECT_NE(b.find(std::string(family) + "{submitter=\"bob\"} 2"),
              std::string::npos)
        << b;
  }
  EXPECT_NE(a.find("sramlp_submitter_shards_leased_total{submitter=\"alice\"}"),
            std::string::npos)
      << a;
  EXPECT_EQ(a.find("submitter=\"bob\""), std::string::npos) << a;
  EXPECT_EQ(b.find("submitter=\"alice\""), std::string::npos) << b;
}

TEST(Service, MetricsGaugesReadTheLiveQueues) {
  // No worker yet: the job sits in flight with every shard pending.
  dist::Service::Options options;
  options.points_per_shard = 2;
  ServiceHarness harness(options, /*workers=*/0);
  const JobSpec job = small_sweep_job();  // 12 points: 6 shards
  io::LineChannel submitter(io::connect_socket(harness.address(), 5000));
  io::JsonValue submit = io::JsonValue::object();
  submit.set("type", io::JsonValue::string("submit"));
  submit.set("job", dist::to_json(job));
  ASSERT_TRUE(submitter.send(submit));
  const auto accepted = submitter.receive();
  ASSERT_TRUE(accepted.has_value());
  ASSERT_EQ(accepted->at("type").as_string(), "job_accepted");

  const dist::MetricsSnapshot live = dist::query_metrics(harness.address());
  EXPECT_EQ(scraped(live, "sramlp_jobs_in_flight"), 1u);
  EXPECT_EQ(scraped(live, "sramlp_queue_depth"), 6u);
  // The submitter and the scrape itself.
  EXPECT_EQ(scraped(live, "sramlp_connections_active"), 2u);

  harness.add_worker({});
  std::optional<io::JsonValue> message;
  do {
    message = submitter.receive();
    ASSERT_TRUE(message.has_value());
  } while (message->at("type").as_string() != "job_complete");
  EXPECT_EQ(message->at("document").as_string(), dist::single_document(job));
  const dist::MetricsSnapshot idle = dist::query_metrics(harness.address());
  EXPECT_EQ(scraped(idle, "sramlp_jobs_in_flight"), 0u);
  EXPECT_EQ(scraped(idle, "sramlp_queue_depth"), 0u);
  // The daemon timed each of the 6 grants and shard completions (the
  // worker's next lease is parked, not granted), and nothing before them:
  // the two histograms belong to this service, not to the process.
  for (const char* name :
       {"sramlp_lease_latency_seconds", "sramlp_shard_execution_seconds"}) {
    EXPECT_EQ(histogram_count(live, name), 0u) << name;
    EXPECT_EQ(histogram_count(idle, name), 6u) << name;
  }
}

TEST(Service, RejectsMalformedJobWithoutDying) {
  dist::Service::Options options;
  ServiceHarness harness(options, /*workers=*/1);
  io::LineChannel channel(io::connect_socket(harness.address(), 5000));
  io::JsonValue bad = io::JsonValue::object();
  bad.set("type", io::JsonValue::string("submit"));
  bad.set("job", io::JsonValue::object());  // no kind/grid: invalid
  ASSERT_TRUE(channel.send(bad));
  const auto reply = channel.receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->at("type").as_string(), "job_failed");
  // The service survives and still answers real jobs.
  const dist::SubmitResult result =
      dist::submit_job(harness.address(), small_sweep_job(), 5000);
  EXPECT_EQ(result.document, dist::single_document(small_sweep_job()));
}

/// The job a daemon that still built every point key as a JSON object
/// served to write tests/data/point_cache_spill.jsonl (`sramlp_dist serve
/// --spill`, one `submit` of this job, `shutdown`).
JobSpec spill_fixture_job() {
  JobSpec job;
  job.kind = JobSpec::Kind::kSweep;
  job.grid.geometries = {{6, 24, 4}, {4, 64, 8}};
  job.grid.backgrounds = {sram::DataBackground::solid1(),
                          sram::DataBackground::checkerboard()};
  job.grid.algorithms = {march::algorithms::mats_plus(),
                         march::algorithms::march_c_minus()};
  return job;
}

TEST(Service, SpillFromTheJsonObjectKeyBuilderStillAnswersEveryPoint) {
  TempDir dir("fixture");
  const std::string spill = dir.str() + "/spill.jsonl";
  // Copied first: the daemon appends to its spill file.
  fs::copy_file(std::string(SRAMLP_TEST_DATA_DIR) + "/point_cache_spill.jsonl",
                spill);
  // The same points in a new grid shape: the whole-job key misses, so
  // only the per-point keys can answer.
  JobSpec reshaped = spill_fixture_job();
  std::reverse(reshaped.grid.geometries.begin(),
               reshaped.grid.geometries.end());
  std::reverse(reshaped.grid.algorithms.begin(),
               reshaped.grid.algorithms.end());

  dist::Service::Options options;
  options.cache.spill_path = spill;
  ServiceHarness harness(options, /*workers=*/1);
  const dist::SubmitResult result =
      dist::submit_job(harness.address(), reshaped, 5000);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_EQ(result.cached_points, reshaped.size());
  EXPECT_EQ(result.document, dist::single_document(reshaped));
  const dist::ServiceStats stats = harness.service().stats();
  EXPECT_EQ(stats.shards_executed, 0u);
  EXPECT_EQ(stats.points_executed, 0u);

  // The fixture's own job is still a whole-job hit.
  const dist::SubmitResult original =
      dist::submit_job(harness.address(), spill_fixture_job(), 5000);
  EXPECT_TRUE(original.cache_hit);
  EXPECT_EQ(original.document, dist::single_document(spill_fixture_job()));
}

TEST(Service, SpillFromPerOrderSearchItemsAnswersNothing) {
  // tests/data/search_per_order_*: a daemon that still cut a search into
  // per-order items ("search_restart", restarts = 4) served this job with
  // `serve --spill`; the spill holds those items and the merged document
  // with its "restarts" array.  None of them may answer the one-item job.
  TempDir dir("search_fixture");
  const std::string data = std::string(SRAMLP_TEST_DATA_DIR);
  const std::string spill = dir.str() + "/spill.jsonl";
  fs::copy_file(data + "/search_per_order_spill.jsonl", spill);
  const JobSpec job = dist::job_from_json(
      io::JsonValue::parse(read_file(data + "/search_per_order_job.json")));

  // The records sit under the old keys: the bare spec digest for the
  // document, the "search_restart" document for item 0.
  std::set<std::uint64_t> keys;
  std::ifstream records(spill);
  for (std::string line; std::getline(records, line);)
    keys.insert(io::JsonValue::parse(line).at("key").as_uint());
  ASSERT_EQ(keys.size(), 5u);
  const std::string spec = io::to_json(*job.search).dump();
  EXPECT_TRUE(keys.count(dist::fnv1a64(dist::to_json(job).dump())));
  EXPECT_TRUE(keys.count(dist::fnv1a64(
      "{\"kind\":\"search_restart\",\"search\":" + spec +
      ",\"restart\":0}")));
  EXPECT_FALSE(keys.count(job.fingerprint()));
  EXPECT_FALSE(keys.count(dist::point_fingerprint(job, 0)));

  dist::Service::Options options;
  options.cache.spill_path = spill;
  ServiceHarness harness(options, /*workers=*/1);
  const dist::SubmitResult result = dist::submit_job(harness.address(), job);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_EQ(result.cached_points, 0u);
  EXPECT_EQ(result.document, dist::single_document(job));
  EXPECT_FALSE(io::JsonValue::parse(result.document).has("restarts"));
  const dist::ServiceStats stats = harness.service().stats();
  EXPECT_EQ(stats.cache.loaded, 5u);
  EXPECT_EQ(stats.points_executed, 1u);
}

TEST(Service, MalformedPeerMessagesDropThePeerNotTheDaemon) {
  dist::Service::Options options;
  ServiceHarness harness(options, /*workers=*/0);
  const JobSpec job = small_sweep_job();
  std::string document;
  std::thread submitter([&] {
    document = dist::submit_job(harness.address(), job, 5000).document;
  });

  // Each malformed worker message drops that worker: its connection reads
  // end-of-stream.  The first hostile worker holds a lease when it
  // misbehaves, which must go back on the queue as for a lost worker.
  const char* const hostile[] = {
      R"({"type":"shard_done"})",
      R"({"type":"sweep_point","data":{}})",
      R"({"type":"lease","known":5})",
      R"({"type":"shard_failed","fingerprint":"x"})",
  };
  for (const char* const line : hostile) {
    io::LineChannel peer(io::connect_socket(harness.address(), 5000));
    ASSERT_TRUE(peer.send(frame(R"({"type":"hello","role":"worker"})")));
    if (line == hostile[0]) {
      ASSERT_TRUE(peer.send(frame(R"({"type":"lease"})")));
      const std::optional<io::JsonValue> shard = peer.receive();
      ASSERT_TRUE(shard.has_value());
      EXPECT_EQ(shard->at("type").as_string(), "shard");
    }
    ASSERT_TRUE(peer.send(frame(line)));
    EXPECT_FALSE(peer.receive().has_value()) << line;
  }
  // A valid job whose submitter label is not a string: job_failed.
  {
    io::LineChannel client(io::connect_socket(harness.address(), 5000));
    io::JsonValue submit = frame(R"({"type":"submit","submitter":7})");
    submit.set("job", dist::to_json(job));
    ASSERT_TRUE(client.send(submit));
    const std::optional<io::JsonValue> reply = client.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->at("type").as_string(), "job_failed");
  }

  // The daemon is alive: a healthy worker finishes the job, exactly.
  harness.add_worker({});
  submitter.join();
  EXPECT_EQ(document, dist::single_document(job));
  const dist::ServiceStats stats = harness.service().stats();
  EXPECT_GE(stats.workers_lost, 1u);
  EXPECT_GE(stats.shard_requeues, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
}

TEST(Service, ShardDoneWithoutItsItemsDropsTheWorker) {
  dist::Service::Options options;
  options.points_per_shard = 2;
  ServiceHarness harness(options, /*workers=*/0);
  JobSpec job = small_sweep_job();
  job.grid.geometries.resize(2);
  job.grid.backgrounds.resize(1);
  ASSERT_EQ(job.size(), 4u);
  std::atomic<bool> finished{false};
  std::string document;
  std::thread submitter([&] {
    try {
      document = dist::submit_job(harness.address(), job, 5000).document;
    } catch (const Error&) {
      // Left empty: the comparison below reports it.
    }
    finished = true;
  });

  // A worker that leases a shard and claims it done without streaming a
  // single item: the daemon must treat that as malformed, drop the worker
  // and requeue the shard, not wait for items that never come.
  io::LineChannel peer(io::connect_socket(harness.address(), 5000));
  ASSERT_TRUE(peer.send(frame(R"({"type":"hello","role":"worker"})")));
  ASSERT_TRUE(peer.send(frame(R"({"type":"lease"})")));
  const std::optional<io::JsonValue> shard = peer.receive();
  ASSERT_TRUE(shard.has_value());
  ASSERT_EQ(shard->at("type").as_string(), "shard");
  io::JsonValue done = frame(R"({"type":"shard_done"})");
  done.set("fingerprint", shard->at("fingerprint"));
  done.set("shard", shard->at("shard"));
  ASSERT_TRUE(peer.send(done));

  harness.add_worker({});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!finished && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(finished) << "the job never completed: "
                        << harness.service().stats().points_executed
                        << " of 4 points executed";
  if (!finished) harness.service().request_stop();
  submitter.join();
  EXPECT_EQ(document, dist::single_document(job));
  EXPECT_FALSE(peer.receive().has_value());  // the peer was dropped
  const dist::ServiceStats stats = harness.service().stats();
  EXPECT_GE(stats.workers_lost, 1u);
  EXPECT_GE(stats.shard_requeues, 1u);
  EXPECT_EQ(stats.points_executed, job.size());
}

TEST(Service, OversizeFrameDropsThePeerAndTheDaemonServesOn) {
  dist::Service::Options options;
  ServiceHarness harness(options, /*workers=*/1);
  {
    // One byte past the cap and no newline: the daemon must hang up
    // instead of buffering on.
    io::Socket raw = io::connect_socket(harness.address(), 5000);
    const std::string blob(io::LineChannel::kMaxFrameBytes + 1, 'x');
    std::size_t sent = 0;
    while (sent < blob.size()) {
      const ssize_t n = ::send(raw.fd(), blob.data() + sent,
                               blob.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    EXPECT_EQ(sent, blob.size());
    io::LineChannel channel(std::move(raw));
    EXPECT_FALSE(channel.receive().has_value());
  }
  const JobSpec job = small_sweep_job();
  EXPECT_EQ(dist::submit_job(harness.address(), job, 5000).document,
            dist::single_document(job));
}

TEST(Service, SpillCheckpointResumesAKilledJob) {
  TempDir dir("checkpoint");
  const std::string spill = dir.str() + "/spill.jsonl";
  const JobSpec job = small_sweep_job();  // 12 points
  constexpr std::size_t kDelivered = 5;
  {
    // The only worker dies mid-shard after kDelivered items; the daemon is
    // then stopped with the job unfinished.
    dist::Service::Options options;
    options.points_per_shard = 2;
    options.cache.spill_path = spill;
    dist::ServiceWorker::Options dying;
    dying.die_after_points = kDelivered;
    ServiceHarness harness(options, /*workers=*/1, dying);
    std::thread submitter([&] {
      EXPECT_THROW(dist::submit_job(harness.address(), job, 5000), Error);
    });
    for (int waited_ms = 0; harness.service().stats().workers_lost == 0;
         ++waited_ms) {
      ASSERT_LT(waited_ms, 10000) << "the worker never died";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(harness.service().stats().points_executed, kDelivered);
    harness.service().request_stop();
    submitter.join();
  }
  // A new daemon on the same spill computes only the undelivered items.
  dist::Service::Options options;
  options.cache.spill_path = spill;
  ServiceHarness harness(options, /*workers=*/1);
  const dist::SubmitResult result =
      dist::submit_job(harness.address(), job, 5000);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_EQ(result.cached_points, kDelivered);
  EXPECT_EQ(result.document, dist::single_document(job));
  EXPECT_EQ(harness.service().stats().points_executed,
            job.size() - kDelivered);
}

}  // namespace
