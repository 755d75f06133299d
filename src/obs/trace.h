// Span tracing: reconstruct a whole steal-interleaved job visually.
//
// Logs say what happened, metrics say how often; neither shows WHY a
// 40-point job took 246 ms — for that you need the timeline: which worker
// held which shard when, how long each lease round-trip took, where the
// finalize sat behind a cache spill.  The tracer records begin/end spans
// (job -> shard -> lease -> execute -> finalize, service-side and
// worker-side) into a fixed-capacity ring buffer and dumps them as Chrome
// trace-event JSON — load the file at ui.perfetto.dev (or
// chrome://tracing) and the interleaving is a picture.
//
// Disabled is the default and costs one relaxed atomic load per span site
// (no clock reads, no allocation).  Enabled, each completed span takes a
// mutex for the ring append — span rate is per shard/lease, not per
// simulated cycle, so contention is negligible.  The ring overwrites the
// oldest spans when full: a long soak keeps the most recent window, which
// is the one you want when something just went wrong.
//
// Determinism: spans carry obs::monotonic_micros() timestamps and flow
// only into trace dumps — never into result documents.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sramlp::obs {

class Tracer {
 public:
  /// One completed span (Chrome "X" phase: start + duration).
  struct Span {
    std::string name;                ///< e.g. "shard", "lease", "execute"
    std::string category;            ///< "service" or "worker"
    std::uint64_t ts_us = 0;         ///< monotonic start, microseconds
    std::uint64_t dur_us = 0;
    std::uint32_t tid = 0;           ///< stable per-thread ordinal
    /// Numeric correlation args (job fingerprint, shard id, points, ...).
    std::vector<std::pair<std::string, std::uint64_t>> args;
  };

  /// The process-wide tracer all span sites record into.
  static Tracer& global();

  /// Start recording into a ring of @p capacity spans (replaces any
  /// previous ring and its contents).
  void enable(std::size_t capacity = 1 << 16);
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void record(Span span);

  /// Spans currently held (<= capacity) and total ever recorded.
  std::size_t size() const;
  std::uint64_t recorded() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}), oldest span first.
  /// Loadable in Perfetto / chrome://tracing.
  std::string dump_chrome_json() const;
  /// dump_chrome_json() to @p path (throws sramlp::Error on I/O failure).
  void write_chrome_json(const std::string& path) const;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> ring_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;        ///< ring slot the next span lands in
  std::uint64_t recorded_ = 0;  ///< total spans ever recorded
};

/// A stable small ordinal for the calling thread (trace "tid" field).
std::uint32_t trace_thread_id();

/// Record a span stamped at @p start_us and @p end_us (both
/// obs::monotonic_micros()) — for spans that open and close in different
/// scopes, where no SpanGuard can sit (the service's job and shard spans).
/// No-op while the tracer is disabled.
void record_span(
    const char* name, const char* category, std::uint64_t start_us,
    std::uint64_t end_us,
    std::initializer_list<std::pair<const char*, std::uint64_t>> args);

/// RAII span: stamps the start on construction, records on destruction.
/// When the tracer is disabled at construction the guard is inert (no
/// clock read, no allocation).
class SpanGuard {
 public:
  SpanGuard(const char* name, const char* category);
  ~SpanGuard();

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Attach a numeric correlation arg (no-op when inert).
  void arg(const char* key, std::uint64_t value);
  bool active() const { return active_; }

 private:
  bool active_ = false;
  Tracer::Span span_;
};

}  // namespace sramlp::obs
