// The sweep service: a long-running daemon with dynamic shard
// stealing and a fingerprint-keyed result cache — the one distributed
// execution path.  `sramlp_dist run` is this service started for one job
// on a private socket; a long-lived daemon (`serve`) keeps answering jobs.
//
//   * keep-alive socket protocol — jobs arrive as JSON over a Unix/TCP
//     socket (io::LineChannel frames the exact wire format) and each
//     work item's result line goes back to the submitter LIVE as workers
//     finish it;
//   * dynamic shard stealing — each job is cut into StealQueue shards
//     (dist::lease_units: small runs of a sweep, the one item of a
//     search, one plan_batches batch per shard of a fault campaign) that
//     idle workers pull; a deliberately slow worker just steals fewer shards (see
//     tests/test_service_soak.cpp for the one-shard-per-worker
//     comparison).  A worker that dies mid-shard, or sends a malformed
//     message (including a shard_done before all of that shard's items),
//     is dropped and its leases requeued; partially streamed items are
//     idempotent because results are deterministic and carry their flat
//     indices;
//   * result cache — completed jobs are cached as their exact merged
//     document bytes keyed by JobSpec::fingerprint() (memory LRU +
//     on-disk JSONL spill, ResultCache), so a resubmitted job is a
//     lookup, not a run, and byte-identical to the fresh run.  Individual
//     work items are cached under their own PointKeys the moment they are
//     delivered, so a NEW job overlapping an old one only computes the
//     indices never seen before — and a daemon killed mid-job and
//     restarted on the same spill file recomputes only what was never
//     delivered (the checkpoint).
//
// Results are opaque here: the service forwards, caches and merges each
// item's data document through dist/job.h and never decodes it.
//
// Observability: every service event is counted once, in ServiceStats (and
// the cache's own ResultCache::Stats); the `stats` reply and the `metrics`
// scrape both read those, and the scrape computes its gauges from the live
// queues at request time.  Lease latency (lease received -> shard or stop
// granted) and shard execution (grant -> accepted shard_done) are timed by
// the daemon, since nothing scrapes a worker process.
//
// Topology: one Service process; any number of ServiceWorker processes or
// threads connect and steal (`sramlp_dist serve` and `run` spawn N worker
// subprocesses of their own binary; workers on other hosts join with
// `sramlp_dist work --connect tcp:host:port`).  Submitters connect, send
// one job, and read the stream.  Identical jobs submitted while one is in
// flight attach to it (deduplicated, replayed from the start) rather than
// recomputing.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/job.h"
#include "dist/result_cache.h"
#include "dist/steal_queue.h"
#include "io/framing.h"
#include "obs/metrics.h"

namespace sramlp::dist {

struct ServiceStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_deduplicated = 0;  ///< attached to an in-flight twin
  std::uint64_t job_cache_hits = 0;     ///< whole job answered from cache
  std::uint64_t point_cache_hits = 0;   ///< individual points answered
  std::uint64_t points_executed = 0;    ///< results received from workers
  std::uint64_t shards_executed = 0;
  std::uint64_t shards_leased = 0;      ///< shards granted to workers
  std::uint64_t shards_abandoned = 0;   ///< requeued from vanished workers
  std::uint64_t shard_requeues = 0;     ///< abandoned/failed shards requeued
  std::uint64_t workers_connected = 0;
  std::uint64_t workers_lost = 0;       ///< connections dropped with leases
  ResultCache::Stats cache;
};

/// One ServiceStats counter: its wire name, the help text of its scrape
/// family (sramlp_<name>_total) and its member.
struct ServiceCounter {
  const char* name;
  const char* help;
  std::uint64_t ServiceStats::*member;
};

/// Every ServiceStats counter in wire order — what the `stats` reply, its
/// decoder, the CLI views and the `metrics` scrape all iterate.
inline constexpr ServiceCounter kServiceCounters[] = {
    {"jobs_submitted", "Jobs received by the sweep service",
     &ServiceStats::jobs_submitted},
    {"jobs_completed", "Jobs finished with a merged document",
     &ServiceStats::jobs_completed},
    {"jobs_failed", "Jobs failed after exhausting shard retries",
     &ServiceStats::jobs_failed},
    {"jobs_deduplicated",
     "Submissions attached to an identical in-flight job",
     &ServiceStats::jobs_deduplicated},
    {"job_cache_hits", "Submissions answered whole from the result cache",
     &ServiceStats::job_cache_hits},
    {"point_cache_hits", "Work items answered from the per-point cache",
     &ServiceStats::point_cache_hits},
    {"points_executed", "Work-item results received from workers",
     &ServiceStats::points_executed},
    {"shards_executed", "Shards completed by workers",
     &ServiceStats::shards_executed},
    {"shards_leased", "Shards stolen (leased) by workers",
     &ServiceStats::shards_leased},
    {"shards_abandoned",
     "Leased shards requeued because their worker vanished",
     &ServiceStats::shards_abandoned},
    {"shard_requeues", "Shards requeued after a failure or lost worker",
     &ServiceStats::shard_requeues},
    {"workers_connected", "Worker connections accepted",
     &ServiceStats::workers_connected},
    {"workers_lost", "Worker connections dropped while holding leases",
     &ServiceStats::workers_lost},
};

class Service {
 public:
  struct Options {
    /// Listen address: "unix:/path" or "tcp:port" / "tcp:host:port"
    /// ("tcp:0" picks an ephemeral port — read it back from address()).
    std::string listen = "tcp:0";
    /// Steal-unit size for job kinds without a cost-aware cut (sweeps and
    /// a campaign's fallback faults): flat indices per shard.  Small
    /// shards are what lets idle workers steal around a slow one.  A
    /// campaign's batched faults ignore it: each plan_batches batch is one
    /// shard (dist::lease_units).  A search job is one item, so one shard.
    std::size_t points_per_shard = 4;
    /// Result cache tiers (capacity + optional spill file).
    ResultCache::Options cache;
    /// Also cache individual work items, so new jobs that overlap old ones
    /// skip the overlap and a restarted daemon resumes a killed job.
    bool point_cache = true;
  };

  explicit Service(const Options& options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Bind, listen and start accepting.  Throws on a bad address.
  void start();

  /// The resolved listen address (ephemeral TCP ports resolved).
  std::string address() const;

  /// Block until the service is asked to stop (shutdown message or
  /// request_stop()), then tear everything down.  Call from the thread
  /// that owns the service (the daemon's main thread).
  void wait();

  /// Ask the service to stop: wakes wait(), unblocks every connection.
  /// Safe from any thread, including connection handlers.
  void request_stop();

  ServiceStats stats() const;

 private:
  struct ActiveJob;
  struct Connection;

  void accept_loop();
  void handle_connection(std::shared_ptr<Connection> conn);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     const io::JsonValue& message);
  void handle_worker(const std::shared_ptr<Connection>& conn);
  /// Receive and act on one worker message; false when the worker is done
  /// (connection closed or told to stop).  Throws sramlp::Error on a
  /// malformed message.
  bool serve_worker_message(const std::shared_ptr<Connection>& conn,
                            std::uint64_t worker_id);
  /// The `metrics` reply: this service's counters and live gauges, read
  /// under mutex_, its timings_ (timings, per-submitter counters), then
  /// obs::Registry::global().
  io::JsonValue metrics_reply() const;
  void deliver_result(const io::JsonValue& message);
  /// Count a completion and build its job_complete message (mutex_ held).
  /// @p shards is the executed job's queue; null for a whole-job cache hit.
  io::JsonValue complete_locked(std::uint64_t fingerprint,
                                const std::string& submitter,
                                std::size_t cached_points,
                                const StealQueue* shards,
                                std::string document);
  void finalize_job_locked(const std::shared_ptr<ActiveJob>& job);
  void fail_job_locked(const std::shared_ptr<ActiveJob>& job,
                       const std::string& error);
  /// The one exit of an active job (mutex_ held): send @p terminal
  /// (job_complete or job_failed) to its listeners, retire it, log, and
  /// wake everyone waiting on it.
  void close_job_locked(const std::shared_ptr<ActiveJob>& job,
                        const io::JsonValue& terminal);

  Options options_;
  ResultCache cache_;
  /// The daemon's own timings and per-submitter counters, measured at
  /// its protocol events: one registry per instance, so services sharing
  /// a process never read each other's.  The two histograms live in it.
  obs::Registry timings_;
  obs::Histogram& lease_latency_;
  obs::Histogram& shard_execution_;

  io::Socket listener_;
  std::string address_;
  std::thread accept_thread_;

  /// Lock order (TSan-verified by tests/test_steal_queue_stress.cpp):
  /// Service::mutex_ may be held while calling into cache_ (ResultCache::
  /// mutex_) or a job's StealQueue (StealQueue::mutex_); neither of those
  /// classes ever calls back into the Service, so the hierarchy is
  /// acyclic — never take mutex_ from code reachable under theirs.
  /// io::LineChannel::send_mutex_ (per-socket write framing) is a leaf
  /// below all three.
  mutable std::mutex mutex_;
  std::condition_variable state_cv_;  ///< work arrived / job done / stopping
  bool started_ = false;
  bool stopping_ = false;
  std::uint64_t next_worker_id_ = 1;
  std::uint64_t next_conn_id_ = 1;  ///< correlation id for log lines
  std::vector<std::shared_ptr<Connection>> connections_;
  std::map<std::uint64_t, std::shared_ptr<ActiveJob>> active_jobs_;
  std::vector<std::uint64_t> job_order_;  ///< submission order (FIFO leases)
  ServiceStats stats_;
};

/// Worker half of the steal protocol: connect, steal shards, compute them
/// with dist::execute (the single-process entry points), stream results.
/// Run it on a thread (tests, benches) or in a process (`sramlp_dist work`).
class ServiceWorker {
 public:
  struct Options {
    /// Threads for one shard's own points; service scale comes from
    /// worker count, so the default is serial.
    unsigned threads = 1;
    /// Artificial per-point delay — models a slow host (benches, the
    /// steal-vs-static soak comparison).
    std::uint64_t slow_point_us = 0;
    /// Soak-test kill switch: after streaming this many points the worker
    /// drops its connection mid-shard (no shard_done), as if killed.
    std::size_t die_after_points = static_cast<std::size_t>(-1);
  };

  ServiceWorker() = default;
  explicit ServiceWorker(const Options& options) : options_(options) {}

  /// Serve until the service says stop, the connection drops, or the kill
  /// switch fires.  Returns the number of points computed.
  std::size_t run(const std::string& address, int connect_timeout_ms = 5000);

 private:
  Options options_;
};

/// One submitted job's outcome, client side.
struct SubmitResult {
  bool cache_hit = false;        ///< whole job answered from the cache
  std::size_t total_points = 0;
  std::size_t cached_points = 0; ///< answered by the per-point cache
  std::size_t streamed_lines = 0;
  double cache_hit_rate = 0.0;   ///< service-wide, as of this job
  /// The merged document — byte-identical to `sramlp_dist single` on the
  /// same job, whether computed, point-cached or replayed whole.
  std::string document;
};

/// Submit @p job and stream until completion.  @p on_line (optional) sees
/// every live result line.  @p submitter (optional) labels the service's
/// per-submitter fairness counters; empty reads as "anonymous".  Throws
/// sramlp::Error on connection failure or a job_failed reply.
SubmitResult submit_job(
    const std::string& address, const JobSpec& job,
    int connect_timeout_ms = 5000,
    const std::function<void(const io::JsonValue&)>& on_line = {},
    const std::string& submitter = {});

/// Fetch a running service's statistics.
ServiceStats query_stats(const std::string& address,
                         int connect_timeout_ms = 5000);

/// One scrape of a running service's obs::Registry, both renderings.
struct MetricsSnapshot {
  std::string prometheus;  ///< Prometheus text exposition
  io::JsonValue json;      ///< the same content as one JSON document
};

/// Fetch a running service's metrics (the `metrics` protocol request).
MetricsSnapshot query_metrics(const std::string& address,
                              int connect_timeout_ms = 5000);

/// Ask a running service to shut down (waits for the acknowledgement).
void request_shutdown(const std::string& address,
                      int connect_timeout_ms = 5000);

}  // namespace sramlp::dist
