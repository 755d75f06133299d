#include "dist/service.h"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "obs/clock.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace sramlp::dist {

namespace {

/// The latency ladder shared by every duration histogram here: 100 us
/// (about one lease round trip; an analytic point computes in ~8 us)
/// through ~26 s in 4x steps.
const std::vector<double>& latency_bounds() {
  static const std::vector<double> bounds =
      obs::Histogram::exponential_bounds(1e-4, 4.0, 10);
  return bounds;
}

/// Re-runs granted to a failed shard before its job is failed.
constexpr unsigned kShardRetries = 1;


/// Per-submitter fairness instruments: one labelled counter family per
/// lifecycle stage, so `metrics` / Prometheus scrapes show who is
/// queueing, leasing and completing work.  They live in the service's own
/// registry (services sharing a process count apart); labelled instances
/// are register-or-fetch, so these helpers are cheap after the first call
/// per submitter.
obs::Counter& submitter_queued(obs::Registry& registry,
                               const std::string& submitter) {
  return registry.counter("sramlp_submitter_jobs_queued_total",
                          "Jobs submitted to the service, by submitter",
                          {{"submitter", submitter}});
}

obs::Counter& submitter_leased(obs::Registry& registry,
                               const std::string& submitter) {
  return registry.counter(
      "sramlp_submitter_shards_leased_total",
      "Shards leased to workers, by the owning job's submitter",
      {{"submitter", submitter}});
}

obs::Counter& submitter_completed(obs::Registry& registry,
                                  const std::string& submitter) {
  return registry.counter(
      "sramlp_submitter_jobs_completed_total",
      "Jobs finished with a merged document, by submitter",
      {{"submitter", submitter}});
}

io::JsonValue make_message(const char* type) {
  io::JsonValue v = io::JsonValue::object();
  v.set("type", io::JsonValue::string(type));
  return v;
}

io::JsonValue error_message(const char* type, const std::string& error) {
  io::JsonValue v = make_message(type);
  v.set("error", io::JsonValue::string(error));
  return v;
}

/// The streamed result line of item @p index of @p job (fingerprint
/// @p fingerprint): what workers send and the service forwards verbatim.
io::JsonValue item_line(const JobSpec& job, std::uint64_t fingerprint,
                        std::size_t index, io::JsonValue data) {
  io::JsonValue line = make_message(item_type(job));
  line.set("fingerprint", io::JsonValue::integer(fingerprint));
  line.set("index", io::JsonValue::integer(index));
  line.set("data", std::move(data));
  return line;
}

io::JsonValue to_json(const ResultCache::Stats& stats) {
  io::JsonValue v = io::JsonValue::object();
  for (const CacheCounter& counter : kCacheCounters)
    v.set(counter.name, io::JsonValue::integer(stats.*counter.member));
  v.set("entries", io::JsonValue::integer(stats.entries));
  v.set("hit_rate", io::JsonValue::number(stats.hit_rate()));
  return v;
}

ResultCache::Stats cache_stats_from_json(const io::JsonValue& json) {
  ResultCache::Stats stats;
  for (const CacheCounter& counter : kCacheCounters)
    stats.*counter.member = json.at(counter.name).as_uint();
  stats.entries = json.at("entries").as_size();
  return stats;
}

io::JsonValue to_json(const ServiceStats& stats) {
  io::JsonValue v = io::JsonValue::object();
  for (const ServiceCounter& counter : kServiceCounters)
    v.set(counter.name, io::JsonValue::integer(stats.*counter.member));
  v.set("cache", to_json(stats.cache));
  return v;
}

ServiceStats service_stats_from_json(const io::JsonValue& json) {
  ServiceStats stats;
  for (const ServiceCounter& counter : kServiceCounters)
    stats.*counter.member = json.at(counter.name).as_uint();
  stats.cache = cache_stats_from_json(json.at("cache"));
  return stats;
}

io::JsonValue accepted_message(std::uint64_t fingerprint, std::size_t points,
                               std::size_t cached_points, bool cache_hit) {
  io::JsonValue v = make_message("job_accepted");
  v.set("fingerprint", io::JsonValue::integer(fingerprint));
  v.set("points", io::JsonValue::integer(points));
  v.set("cached_points", io::JsonValue::integer(cached_points));
  v.set("cache_hit", io::JsonValue::boolean(cache_hit));
  return v;
}

}  // namespace

// --- Service internals -------------------------------------------------------

/// One job mid-execution: its steal queue, the result slots filling in,
/// and the client channels listening to the live stream.
struct Service::ActiveJob {
  std::uint64_t fingerprint = 0;
  JobSpec job;
  io::JsonValue job_json;  ///< serialized once, attached to first leases
  std::unique_ptr<StealQueue> queue;  ///< indirect: StealQueue owns a mutex
  std::size_t total = 0;
  std::size_t cached_points = 0;
  /// Each item's data document, null until delivered or point-cached.
  /// Also what a duplicate submitter attaching mid-flight is replayed.
  std::vector<io::JsonValue> items;
  std::size_t filled_count = 0;
  /// PointKeys of every item, computed once at submit for the prefill and
  /// reused at delivery (empty when the point cache is off).
  std::vector<std::uint64_t> point_keys;
  std::vector<std::shared_ptr<io::LineChannel>> listeners;
  /// Who submitted this job ("anonymous" when the submit message carried
  /// no submitter) — the label on the per-submitter fairness counters.
  std::string submitter;
  bool finished = false;
  /// obs::monotonic_micros() at submit, and at each shard's latest grant
  /// (the submit stamp until first leased): the job and shard spans and
  /// sramlp_shard_execution_seconds.  Never read by the result path.
  std::uint64_t submitted_us = 0;
  std::vector<std::uint64_t> shard_granted_us;  ///< by shard id

  /// Send job_accepted and every item filled so far to @p channel — what
  /// a new submitter sees first, whether it opened the job or attached to
  /// it in flight (Service::mutex_ held).
  void replay(io::LineChannel& channel) const {
    channel.send(accepted_message(fingerprint, total, cached_points, false));
    for (std::size_t i = 0; i < total; ++i)
      if (!items[i].is_null())
        channel.send(item_line(job, fingerprint, i, items[i]));
  }
};

struct Service::Connection {
  std::uint64_t id = 0;  ///< correlation id attached to log lines
  std::shared_ptr<io::LineChannel> channel;
  std::thread thread;
  bool done = false;
};

Service::Service(const Options& options)
    : options_(options),
      cache_(options.cache),
      lease_latency_(timings_.histogram(
          "sramlp_lease_latency_seconds",
          "Lease request received to shard (or stop) granted; includes "
          "idle waits, excludes network transit",
          latency_bounds())),
      shard_execution_(timings_.histogram(
          "sramlp_shard_execution_seconds",
          "Shard granted to its shard_done accepted", latency_bounds())) {}

Service::~Service() {
  request_stop();
  if (started_) wait();
}

void Service::start() {
  SRAMLP_REQUIRE(!started_, "service already started");
  listener_ = io::listen_socket(options_.listen);
  address_ = io::local_address(listener_);
  started_ = true;
  accept_thread_ = std::thread(&Service::accept_loop, this);
}

std::string Service::address() const {
  SRAMLP_REQUIRE(started_, "service not started");
  return address_;
}

void Service::request_stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return;
  stopping_ = true;
  listener_.shutdown();
  for (const auto& conn : connections_)
    if (conn->channel) conn->channel->shutdown();
  state_cv_.notify_all();
}

void Service::wait() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    state_cv_.wait(lock, [&] { return stopping_; });
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop has ended, so the connection set is final.
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections.swap(connections_);
  }
  for (const auto& conn : connections)
    if (conn->thread.joinable()) conn->thread.join();
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats stats = stats_;
  stats.cache = cache_.stats();
  return stats;
}

void Service::accept_loop() {
  for (;;) {
    io::Socket sock;
    try {
      sock = io::accept_connection(listener_);
    } catch (const std::exception& e) {
      // Without the catch this exception would terminate() the process
      // from a detached-looking thread with no word of why.
      obs::log_error("service", "accept failed; accept loop exiting",
                     {obs::kv("error", e.what())});
      request_stop();
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    // Reap connections whose handler has already returned, so a
    // long-lived daemon does not accumulate dead threads.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    if (!sock.valid() || stopping_) break;
    auto conn = std::make_shared<Connection>();
    conn->id = next_conn_id_++;
    conn->channel = std::make_shared<io::LineChannel>(std::move(sock));
    connections_.push_back(conn);
    obs::log_debug("service", "connection accepted",
                   {obs::kv("conn", conn->id)});
    conn->thread = std::thread(&Service::handle_connection, this, conn);
  }
}

void Service::handle_connection(std::shared_ptr<Connection> conn) {
  for (;;) {
    const std::optional<io::JsonValue> message = conn->channel->receive();
    if (!message) break;
    std::string type;
    try {
      type = message->at("type").as_string();
    } catch (const Error& e) {
      obs::log_warn("service", "message without a type",
                    {obs::kv("conn", conn->id), obs::kv("error", e.what())});
      conn->channel->send(error_message("error", "message without a type"));
      continue;
    }
    if (type == "hello") {
      // Only workers announce themselves; clients just send requests.
      std::string role;
      try {
        role = message->at("role").as_string();
      } catch (const Error&) {
        // No role member at all — fall through to the unknown-role reply.
        obs::log_debug("service", "hello without a role",
                       {obs::kv("conn", conn->id)});
      }
      if (role == "worker") {
        handle_worker(conn);
        break;
      }
      obs::log_warn("service", "unknown hello role",
                    {obs::kv("conn", conn->id), obs::kv("role", role)});
      conn->channel->send(error_message("error", "unknown hello role"));
    } else if (type == "submit") {
      handle_submit(conn, *message);
    } else if (type == "stats") {
      io::JsonValue reply = make_message("stats");
      reply.set("stats", to_json(stats()));
      conn->channel->send(reply);
    } else if (type == "metrics") {
      conn->channel->send(metrics_reply());
    } else if (type == "shutdown") {
      obs::log_info("service", "shutdown requested",
                    {obs::kv("conn", conn->id)});
      conn->channel->send(make_message("bye"));
      request_stop();
      break;
    } else {
      obs::log_warn("service", "unknown message type",
                    {obs::kv("conn", conn->id), obs::kv("msg_type", type)});
      conn->channel->send(
          error_message("error", "unknown message type '" + type + "'"));
    }
  }
  // Hang up now rather than when the connection is reaped, so a peer the
  // service dropped (malformed or oversize frames) sees end-of-stream.
  conn->channel->shutdown();
  obs::log_debug("service", "connection closed", {obs::kv("conn", conn->id)});
  std::lock_guard<std::mutex> lock(mutex_);
  conn->done = true;
}

void Service::handle_submit(const std::shared_ptr<Connection>& conn,
                            const io::JsonValue& message) {
  JobSpec job;
  std::string submitter = "anonymous";
  try {
    job = job_from_json(message.at("job"));
    if (message.has("submitter") &&
        !message.at("submitter").as_string().empty())
      submitter = message.at("submitter").as_string();
  } catch (const std::exception& e) {
    obs::log_warn("service", "submit rejected: bad job document",
                  {obs::kv("conn", conn->id), obs::kv("error", e.what())});
    conn->channel->send(error_message("job_failed", e.what()));
    return;
  }
  const std::uint64_t fingerprint = job.fingerprint();
  const std::size_t total = job.size();
  obs::log_info("service", "job submitted",
                {obs::kv("conn", conn->id), obs::kv_hex("job", fingerprint),
                 obs::kv("points", total),
                 obs::kv("submitter", submitter)});

  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.jobs_submitted;
  submitter_queued(timings_, submitter).inc();

  // --- whole-job cache hit: replay the exact bytes, execute nothing ------
  if (std::optional<std::string> document = cache_.get(fingerprint)) {
    ++stats_.job_cache_hits;
    obs::log_debug("service", "job answered from cache",
                   {obs::kv("conn", conn->id),
                    obs::kv_hex("job", fingerprint)});
    const io::JsonValue complete = complete_locked(
        fingerprint, submitter, total, nullptr, std::move(*document));
    lock.unlock();
    conn->channel->send(accepted_message(fingerprint, total, total, true));
    conn->channel->send(complete);
    return;
  }

  // --- in-flight twin: attach to it instead of recomputing ---------------
  if (const auto it = active_jobs_.find(fingerprint);
      it != active_jobs_.end()) {
    const std::shared_ptr<ActiveJob> active = it->second;
    ++stats_.jobs_deduplicated;
    obs::log_debug("service", "submit attached to in-flight twin",
                   {obs::kv("conn", conn->id),
                    obs::kv_hex("job", fingerprint)});
    // Register, then replay, under ONE lock hold: no live line can slip
    // between the replayed prefix and the forwarded suffix.
    active->listeners.push_back(conn->channel);
    active->replay(*conn->channel);
    state_cv_.wait(lock, [&] { return active->finished || stopping_; });
    return;
  }

  // --- new job ------------------------------------------------------------
  auto active = std::make_shared<ActiveJob>();
  active->submitted_us = obs::monotonic_micros();
  active->fingerprint = fingerprint;
  active->job = std::move(job);
  active->job_json = dist::to_json(active->job);
  active->total = total;
  active->submitter = submitter;
  active->items.resize(total);

  // Per-point cache: indices the service has answered before (under any
  // job) are filled from the cache; only the rest go onto the steal queue.
  if (options_.point_cache) {
    PointKeys keys(active->job);
    active->point_keys.reserve(total);
    for (std::size_t i = 0; i < total; ++i)
      active->point_keys.push_back(keys.key(i));
  }
  std::vector<std::size_t> uncached;
  uncached.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    std::optional<std::string> payload;
    if (options_.point_cache) payload = cache_.get(active->point_keys[i]);
    if (!payload) {
      uncached.push_back(i);
      continue;
    }
    try {
      active->items[i] = from_cache(active->job, i, *payload);
    } catch (const Error& e) {
      obs::log_warn("service", "unreadable point-cache entry; recomputing",
                    {obs::kv_hex("job", fingerprint), obs::kv("index", i),
                     obs::kv("error", e.what())});
      uncached.push_back(i);
      continue;
    }
    ++active->filled_count;
    ++active->cached_points;
    ++stats_.point_cache_hits;
  }

  LeaseCut cut;
  active->queue = std::make_unique<StealQueue>(lease_units(
      active->job, uncached, options_.points_per_shard, &cut));
  const std::size_t units = active->queue->stats().shard_count;
  active->shard_granted_us.assign(units, active->submitted_us);
  active->listeners.push_back(conn->channel);
  active_jobs_[fingerprint] = active;
  job_order_.push_back(fingerprint);
  if (cut.planned)
    obs::log_info("service", "job enqueued",
                  {obs::kv("conn", conn->id), obs::kv_hex("job", fingerprint),
                   obs::kv("points", total),
                   obs::kv("cached_points", active->cached_points),
                   obs::kv("units", units), obs::kv("batches", cut.batches),
                   obs::kv("fallback", cut.fallback)});
  else
    obs::log_info("service", "job enqueued",
                  {obs::kv("conn", conn->id), obs::kv_hex("job", fingerprint),
                   obs::kv("points", total),
                   obs::kv("cached_points", active->cached_points),
                   obs::kv("units", units)});

  active->replay(*conn->channel);
  if (active->filled_count == active->total) {
    finalize_job_locked(active);
    return;
  }
  state_cv_.notify_all();  // wake workers parked on empty lease queues
  state_cv_.wait(lock, [&] { return active->finished || stopping_; });
}

void Service::handle_worker(const std::shared_ptr<Connection>& conn) {
  std::uint64_t worker_id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    worker_id = next_worker_id_++;
    ++stats_.workers_connected;
  }
  obs::log_info("service", "worker connected",
                {obs::kv("conn", conn->id), obs::kv("worker", worker_id)});
  // Any malformed message drops the worker: the loop ends and its leases
  // are requeued below, exactly as for a lost connection.
  try {
    while (serve_worker_message(conn, worker_id)) {
    }
  } catch (const Error& e) {
    obs::log_warn("service", "malformed worker message; dropping worker",
                  {obs::kv("conn", conn->id), obs::kv("worker", worker_id),
                   obs::kv("error", e.what())});
  }
  // Connection gone: whatever this worker still leased goes back on the
  // queues for someone else to steal.
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t requeued = 0;
  for (const auto& [fp, job] : active_jobs_)
    requeued += job->queue->abandon(worker_id);
  if (requeued > 0) {
    ++stats_.workers_lost;
    stats_.shards_abandoned += requeued;
    stats_.shard_requeues += requeued;
    obs::log_warn("service", "worker lost with leased shards; requeued",
                  {obs::kv("conn", conn->id), obs::kv("worker", worker_id),
                   obs::kv("requeued", requeued)});
    state_cv_.notify_all();
  } else {
    obs::log_debug("service", "worker disconnected",
                   {obs::kv("conn", conn->id), obs::kv("worker", worker_id)});
  }
}

bool Service::serve_worker_message(const std::shared_ptr<Connection>& conn,
                                   std::uint64_t worker_id) {
  const std::optional<io::JsonValue> message = conn->channel->receive();
  if (!message) return false;
  const std::string& type = message->at("type").as_string();
  if (type == "lease") {
    const std::uint64_t received_us = obs::monotonic_micros();
    // Fingerprints of jobs this worker already holds by value, so the job
    // document travels at most once per (worker, job).
    std::vector<std::uint64_t> known;
    if (message->has("known")) {
      const io::JsonValue& list = message->at("known");
      for (std::size_t i = 0; i < list.size(); ++i)
        known.push_back(list.at(i).as_uint());
    }
    io::JsonValue response;
    std::uint64_t granted_us = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        if (stopping_) {
          response = make_message("stop");
          granted_us = obs::monotonic_micros();
          break;
        }
        for (const std::uint64_t fp : job_order_) {
          const std::shared_ptr<ActiveJob>& job = active_jobs_.at(fp);
          const std::optional<StealShard> shard = job->queue->lease(worker_id);
          if (!shard) continue;
          ++stats_.shards_leased;
          response = make_message("shard");
          response.set("fingerprint", io::JsonValue::integer(fp));
          response.set("shard", io::JsonValue::integer(shard->id));
          io::JsonValue indices = io::JsonValue::array();
          for (const std::size_t index : shard->indices)
            indices.push_back(io::JsonValue::integer(index));
          response.set("indices", std::move(indices));
          if (std::find(known.begin(), known.end(), fp) == known.end())
            response.set("job", job->job_json);
          granted_us = obs::monotonic_micros();
          job->shard_granted_us[shard->id] = granted_us;
          submitter_leased(timings_, job->submitter).inc();
          break;
        }
        if (!response.is_null()) break;
        state_cv_.wait(lock);  // idle: block until work or shutdown
      }
    }
    lease_latency_.observe_micros(granted_us - received_us);
    return conn->channel->send(response) &&
           response.at("type").as_string() != "stop";
  }
  if (is_item_type(type)) {
    deliver_result(*message);
    return true;
  }
  if (type == "shard_done") {
    const std::uint64_t fingerprint = message->at("fingerprint").as_uint();
    const std::size_t shard_id = message->at("shard").as_size();
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = active_jobs_.find(fingerprint);
    if (it == active_jobs_.end()) return true;  // stale: job already closed
    const std::shared_ptr<ActiveJob> job = it->second;
    // A worker streams every item of a shard before its shard_done, and
    // this connection's messages are handled in order — so a completion
    // with an unfilled index claims items that never arrived.  Accepting
    // it would leave the job waiting forever for those items.
    for (const std::size_t index : job->queue->indices(shard_id))
      if (job->items[index].is_null())
        throw Error("shard_done for shard " + std::to_string(shard_id) +
                    " before its item " + std::to_string(index));
    job->queue->complete(shard_id);
    ++stats_.shards_executed;
    const std::uint64_t done_us = obs::monotonic_micros();
    const std::uint64_t granted_us = job->shard_granted_us[shard_id];
    shard_execution_.observe_micros(done_us - granted_us);
    obs::record_span("shard", "service", granted_us, done_us,
                     {{"job", job->fingerprint},
                      {"shard", shard_id},
                      {"worker", worker_id}});
    if (job->queue->done() && job->filled_count == job->total)
      finalize_job_locked(job);
    return true;
  }
  if (type == "shard_failed") {
    const std::uint64_t fingerprint = message->at("fingerprint").as_uint();
    const std::size_t shard_id = message->at("shard").as_size();
    const std::string error = message->has("error")
                                  ? message->at("error").as_string()
                                  : std::string("shard failed");
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = active_jobs_.find(fingerprint);
    if (it == active_jobs_.end()) return true;
    const std::shared_ptr<ActiveJob> job = it->second;
    const bool requeued = job->queue->fail(shard_id, kShardRetries);
    obs::log_warn("service", "worker reported shard failure",
                  {obs::kv("conn", conn->id), obs::kv("worker", worker_id),
                   obs::kv_hex("job", job->fingerprint),
                   obs::kv("shard", shard_id), obs::kv("error", error),
                   obs::kv("requeued", requeued)});
    if (requeued) {
      ++stats_.shard_requeues;
      state_cv_.notify_all();
    } else {
      fail_job_locked(job, error);
    }
    return true;
  }
  throw Error("unknown worker message type '" + type + "'");
}

void Service::deliver_result(const io::JsonValue& message) {
  const std::uint64_t fingerprint = message.at("fingerprint").as_uint();
  const std::size_t index = message.at("index").as_size();
  const io::JsonValue& data = message.at("data");
  SRAMLP_REQUIRE(data.kind() == io::JsonValue::Kind::kObject,
                 "worker result data is not a JSON object");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = active_jobs_.find(fingerprint);
  if (it == active_jobs_.end()) return;  // stale: job already closed
  ActiveJob& job = *it->second;
  SRAMLP_REQUIRE(index < job.total, "worker result index out of range");
  if (!job.items[index].is_null()) return;  // requeue-race duplicate
  // Cached on delivery, not at finalize: a daemon killed mid-job and
  // restarted on the same spill file resumes from here.
  if (options_.point_cache)
    cache_.put(job.point_keys[index], cache_payload(job.job, data));
  job.items[index] = data;
  ++job.filled_count;
  ++stats_.points_executed;
  for (const auto& listener : job.listeners) listener->send(message);
}

io::JsonValue Service::metrics_reply() const {
  // This service's counters and gauges become families of a scrape-time
  // registry, all read under one lock hold; then come its own registry
  // (the two timings, the per-submitter counters) and the global
  // registry: what other layers count (framing).
  obs::Registry scrape;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const ServiceCounter& counter : kServiceCounters)
      scrape.counter(std::string("sramlp_") + counter.name + "_total",
                     counter.help)
          .inc(stats_.*counter.member);
    const ResultCache::Stats cache = cache_.stats();
    for (const CacheCounter& counter : kCacheCounters)
      scrape.counter(std::string("sramlp_cache_") + counter.name + "_total",
                     counter.help)
          .inc(cache.*counter.member);
    std::size_t pending = 0;
    for (const auto& [fp, job] : active_jobs_)
      pending += job->queue->stats().pending;
    scrape.gauge("sramlp_jobs_in_flight", "Jobs currently executing")
        .set(static_cast<std::int64_t>(active_jobs_.size()));
    scrape.gauge("sramlp_connections_active", "Open service connections")
        .set(std::count_if(connections_.begin(), connections_.end(),
                           [](const auto& conn) { return !conn->done; }));
    scrape.gauge("sramlp_queue_depth",
                 "Pending (unleased) shards across all active jobs")
        .set(static_cast<std::int64_t>(pending));
  }
  const obs::Registry& global = obs::Registry::global();
  io::JsonValue metrics = scrape.to_json();
  for (const obs::Registry* registry : {&timings_, &global}) {
    const io::JsonValue families = registry->to_json();
    for (const auto& [name, family] : families.members())
      metrics.set(name, family);
  }
  io::JsonValue reply = make_message("metrics");
  reply.set("prometheus",
            io::JsonValue::string(scrape.prometheus_text() +
                                  timings_.prometheus_text() +
                                  global.prometheus_text()));
  reply.set("metrics", std::move(metrics));
  return reply;
}

io::JsonValue Service::complete_locked(std::uint64_t fingerprint,
                                       const std::string& submitter,
                                       std::size_t cached_points,
                                       const StealQueue* shards,
                                       std::string document) {
  ++stats_.jobs_completed;
  submitter_completed(timings_, submitter).inc();
  io::JsonValue complete = make_message("job_complete");
  complete.set("fingerprint", io::JsonValue::integer(fingerprint));
  complete.set("cache_hit", io::JsonValue::boolean(shards == nullptr));
  complete.set("cached_points", io::JsonValue::integer(cached_points));
  if (shards != nullptr) {
    const StealQueue::Stats queue = shards->stats();
    complete.set("shards_executed", io::JsonValue::integer(queue.completed));
    complete.set("shard_requeues", io::JsonValue::integer(queue.requeues));
  }
  complete.set("document", io::JsonValue::string(std::move(document)));
  complete.set("cache_hit_rate",
               io::JsonValue::number(cache_.stats().hit_rate()));
  return complete;
}

void Service::finalize_job_locked(const std::shared_ptr<ActiveJob>& job) {
  obs::SpanGuard finalize_span("finalize", "service");
  finalize_span.arg("job", job->fingerprint);
  std::string document;
  try {
    document = merge(job->job, std::move(job->items));
  } catch (const Error& e) {
    fail_job_locked(job, std::string("merge failed: ") + e.what());
    return;
  }
  cache_.put(job->fingerprint, document);
  close_job_locked(job, complete_locked(job->fingerprint, job->submitter,
                                        job->cached_points, job->queue.get(),
                                        std::move(document)));
  obs::record_span("job", "service", job->submitted_us,
                   obs::monotonic_micros(),
                   {{"job", job->fingerprint},
                    {"points", job->total},
                    {"cached_points", job->cached_points}});
}

void Service::fail_job_locked(const std::shared_ptr<ActiveJob>& job,
                              const std::string& error) {
  ++stats_.jobs_failed;
  io::JsonValue failed = error_message("job_failed", error);
  failed.set("fingerprint", io::JsonValue::integer(job->fingerprint));
  close_job_locked(job, failed);
}

void Service::close_job_locked(const std::shared_ptr<ActiveJob>& job,
                               const io::JsonValue& terminal) {
  for (const auto& listener : job->listeners) listener->send(terminal);
  job->finished = true;
  active_jobs_.erase(job->fingerprint);
  job_order_.erase(
      std::find(job_order_.begin(), job_order_.end(), job->fingerprint));
  if (terminal.has("error")) {
    obs::log_error("service", "job failed",
                   {obs::kv_hex("job", job->fingerprint),
                    obs::kv("error", terminal.at("error").as_string())});
  } else {
    const StealQueue::Stats queue = job->queue->stats();
    obs::log_info("service", "job complete",
                  {obs::kv_hex("job", job->fingerprint),
                   obs::kv("points", job->total),
                   obs::kv("cached_points", job->cached_points),
                   obs::kv("shards", queue.completed),
                   obs::kv("requeues", queue.requeues)});
  }
  state_cv_.notify_all();
}

// --- ServiceWorker -----------------------------------------------------------

std::size_t ServiceWorker::run(const std::string& address,
                               int connect_timeout_ms) {
  io::LineChannel channel(io::connect_socket(address, connect_timeout_ms));
  io::JsonValue hello = make_message("hello");
  hello.set("role", io::JsonValue::string("worker"));
  if (!channel.send(hello)) return 0;
  obs::log_debug("worker", "connected to service",
                 {obs::kv("address", address)});

  std::map<std::uint64_t, JobSpec> jobs;  ///< jobs held by value, by print
  std::size_t computed = 0;
  for (;;) {
    io::JsonValue lease = make_message("lease");
    io::JsonValue known = io::JsonValue::array();
    for (const auto& [fp, unused] : jobs)
      known.push_back(io::JsonValue::integer(fp));
    lease.set("known", std::move(known));
    // The lease round-trip (request to grant) includes any idle wait on
    // the service's queues — the "time to obtain work" a worker sees.
    std::optional<io::JsonValue> response;
    {
      obs::SpanGuard lease_span("lease", "worker");
      if (!channel.send(lease)) return computed;
      response = channel.receive();
    }
    if (!response) return computed;
    std::string type;
    try {
      type = response->at("type").as_string();
    } catch (const Error& e) {
      obs::log_warn("worker", "malformed service response; leaving",
                    {obs::kv("error", e.what())});
      return computed;
    }
    if (type != "shard") return computed;  // "stop" or anything unexpected

    const std::uint64_t fingerprint = response->at("fingerprint").as_uint();
    const std::size_t shard_id = response->at("shard").as_size();
    std::vector<std::size_t> indices;
    const io::JsonValue& index_list = response->at("indices");
    indices.reserve(index_list.size());
    for (std::size_t i = 0; i < index_list.size(); ++i)
      indices.push_back(index_list.at(i).as_size());
    if (response->has("job")) {
      if (jobs.size() > 32) jobs.clear();  // bound the by-value cache
      jobs.insert_or_assign(fingerprint,
                            job_from_json(response->at("job")));
    }
    // Hand the shard back for another worker (or a bounded retry).
    const auto report_failure = [&](const std::string& error) {
      io::JsonValue failed = error_message("shard_failed", error);
      failed.set("fingerprint", io::JsonValue::integer(fingerprint));
      failed.set("shard", io::JsonValue::integer(shard_id));
      return channel.send(failed);
    };
    const auto job_it = jobs.find(fingerprint);
    if (job_it == jobs.end()) {
      obs::log_warn("worker", "leased a job this worker does not hold",
                    {obs::kv_hex("job", fingerprint),
                     obs::kv("shard", shard_id)});
      if (!report_failure("worker does not hold this job")) return computed;
      continue;
    }
    const JobSpec& job = job_it->second;

    obs::SpanGuard execute_span("execute", "worker");
    execute_span.arg("job", fingerprint);
    execute_span.arg("shard", shard_id);
    execute_span.arg("points", indices.size());
    try {
      // The exact single-process arithmetic on the stolen subset —
      // identical bits whichever worker steals which indices.
      const bool streamed = execute(
          job, indices, options_.threads,
          [&](std::size_t index, io::JsonValue data) {
            if (options_.slow_point_us > 0)
              ::usleep(static_cast<useconds_t>(options_.slow_point_us));
            if (computed >= options_.die_after_points)
              return false;  // simulated kill: vanish mid-shard
            if (!channel.send(
                    item_line(job, fingerprint, index, std::move(data))))
              return false;
            ++computed;
            return true;
          });
      if (!streamed) return computed;
    } catch (const std::exception& e) {
      obs::log_warn("worker", "shard computation failed",
                    {obs::kv_hex("job", fingerprint),
                     obs::kv("shard", shard_id), obs::kv("error", e.what())});
      if (!report_failure(e.what())) return computed;
      continue;
    }
    io::JsonValue done = make_message("shard_done");
    done.set("fingerprint", io::JsonValue::integer(fingerprint));
    done.set("shard", io::JsonValue::integer(shard_id));
    if (!channel.send(done)) return computed;
  }
}

// --- clients -----------------------------------------------------------------

SubmitResult submit_job(
    const std::string& address, const JobSpec& job, int connect_timeout_ms,
    const std::function<void(const io::JsonValue&)>& on_line,
    const std::string& submitter) {
  job.validate();
  io::LineChannel channel(io::connect_socket(address, connect_timeout_ms));
  io::JsonValue submit = make_message("submit");
  submit.set("job", dist::to_json(job));
  if (!submitter.empty())
    submit.set("submitter", io::JsonValue::string(submitter));
  SRAMLP_REQUIRE(channel.send(submit), "service connection lost on submit");

  SubmitResult result;
  for (;;) {
    const std::optional<io::JsonValue> message = channel.receive();
    SRAMLP_REQUIRE(message.has_value(),
                   "service connection lost while streaming results");
    const std::string type = message->at("type").as_string();
    if (type == "job_accepted") {
      result.total_points = message->at("points").as_size();
      result.cached_points = message->at("cached_points").as_size();
    } else if (is_item_type(type)) {
      ++result.streamed_lines;
      if (on_line) on_line(*message);
    } else if (type == "job_complete") {
      result.cache_hit = message->at("cache_hit").as_bool();
      if (message->has("cached_points"))
        result.cached_points = message->at("cached_points").as_size();
      result.cache_hit_rate = message->at("cache_hit_rate").as_double();
      result.document = message->at("document").as_string();
      return result;
    } else if (type == "job_failed") {
      throw Error("service rejected the job: " +
                  message->at("error").as_string());
    }
  }
}

ServiceStats query_stats(const std::string& address, int connect_timeout_ms) {
  io::LineChannel channel(io::connect_socket(address, connect_timeout_ms));
  SRAMLP_REQUIRE(channel.send(make_message("stats")),
                 "service connection lost on stats request");
  const std::optional<io::JsonValue> reply = channel.receive();
  SRAMLP_REQUIRE(reply.has_value() &&
                     reply->at("type").as_string() == "stats",
                 "service returned no stats");
  return service_stats_from_json(reply->at("stats"));
}

MetricsSnapshot query_metrics(const std::string& address,
                              int connect_timeout_ms) {
  io::LineChannel channel(io::connect_socket(address, connect_timeout_ms));
  SRAMLP_REQUIRE(channel.send(make_message("metrics")),
                 "service connection lost on metrics request");
  const std::optional<io::JsonValue> reply = channel.receive();
  SRAMLP_REQUIRE(reply.has_value() &&
                     reply->at("type").as_string() == "metrics",
                 "service returned no metrics");
  MetricsSnapshot snapshot;
  snapshot.prometheus = reply->at("prometheus").as_string();
  snapshot.json = reply->at("metrics");
  return snapshot;
}

void request_shutdown(const std::string& address, int connect_timeout_ms) {
  io::LineChannel channel(io::connect_socket(address, connect_timeout_ms));
  SRAMLP_REQUIRE(channel.send(make_message("shutdown")),
                 "service connection lost on shutdown request");
  channel.receive();  // the "bye" acknowledgement (or EOF — both fine)
}

}  // namespace sramlp::dist
