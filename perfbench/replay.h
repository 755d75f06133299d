// The traced run's per-layer breakdown.
//
// The daemon's own spans (--trace-out) cover the service layers: job,
// shard, lease, execute, finalize.  The compute layers carry no telemetry,
// so the benchmark records its own spans around calls into each layer's
// public functions: a client span around every dist::submit_job, then an
// in-process replay of a prefix of the run's executed items, one span per
// call.  Spans stay in memory (SpanLog) and are written once, as Chrome
// trace-event JSON, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/job.h"
#include "dist/service.h"
#include "io/json.h"
#include "workloads.h"

namespace perfbench {

/// Nanoseconds on the steady clock — the clock obs::monotonic_micros()
/// reads, so the daemon's spans and ours share one time axis.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// In-memory span log.  Spans nest: a span opened while another is open
/// records it as its parent.  Spans of one job carry its fingerprint.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t job = 0;       ///< job fingerprint (0 = none)
    std::size_t parent = kNone;  ///< index of the enclosing span
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// RAII span: opened on construction, closed on destruction.
  class Guard {
   public:
    Guard(SpanLog& log, const char* name, std::uint64_t job);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// One job the timed window executed, as the client saw it.
struct ExecutedJob {
  const sramlp::dist::JobSpec* spec = nullptr;
  std::uint64_t fingerprint = 0;
  bool cache_hit = false;
  /// Flat indices the workers computed, in steal-queue order (the service
  /// queues uncached indices ascending; cached ones never reach a worker).
  std::vector<std::size_t> computed;
};

/// Counts gathered by the replay beside its spans.
struct ReplayCounts {
  std::uint64_t sim_cycles = 0;            ///< over the sram.run spans
  std::uint64_t shard_faults = 0;          ///< faults in replayed shards
  std::uint64_t shard_session_pairs = 0;   ///< plan_batches per shard
  std::uint64_t job_faults = 0;            ///< faults in replayed jobs
  std::uint64_t job_session_pairs = 0;     ///< plan over the whole job
};

/// Replay a prefix of @p jobs in-process, one span per layer call (see
/// README.md for the span names and the prefix lengths).
ReplayCounts replay(const std::vector<ExecutedJob>& jobs, Workload workload,
                    SpanLog& log);

/// A daemon span read back from a --trace-out file.
struct DaemonSpan {
  std::string name;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t job = 0;
};

/// Read a Chrome trace file written by the daemon; appends its raw events
/// to @p events (for the merged span file) and returns the spans.
std::vector<DaemonSpan> read_daemon_trace(const std::string& path,
                                          sramlp::io::JsonValue& events,
                                          std::uint64_t pid);

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  const SpanLog* log = nullptr;
  ReplayCounts counts;
  std::vector<DaemonSpan> daemon;
  sramlp::dist::ServiceStats before;  ///< stats at window start
  sramlp::dist::ServiceStats after;   ///< stats at window end
  std::uint64_t jobs = 0;             ///< jobs submitted in the window
  std::uint64_t items = 0;            ///< items submitted in the window
  std::uint64_t whole_hit_items = 0;  ///< items of whole-job cache hits
  double document_bytes = 0.0;        ///< mean merged document size
};

/// The per-layer metrics as {name: {value, unit, samples}}, plus a
/// per-span-name summary (count, total and self time) under "spans".
sramlp::io::JsonValue layer_metrics(const LayerInputs& in);

/// The merged span file: our spans (pid 0) plus @p daemon_events.
void write_span_file(const std::string& path, const SpanLog& log,
                     sramlp::io::JsonValue daemon_events);

}  // namespace perfbench
