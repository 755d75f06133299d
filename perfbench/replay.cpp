#include "replay.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "core/fault_campaign.h"
#include "core/session.h"
#include "core/sweep.h"
#include "engine/analytic_backend.h"
#include "engine/command_stream.h"
#include "faults/batch.h"
#include "io/serialize.h"
#include "march/address_order.h"
#include "search/evaluator.h"
#include "search/search.h"
#include "search/serialize.h"
#include "util/error.h"

namespace perfbench {

namespace core = sramlp::core;
namespace dist = sramlp::dist;
namespace io = sramlp::io;

using Guard = SpanLog::Guard;

SpanLog::Guard::Guard(SpanLog& log, const char* name, std::uint64_t job)
    : log_(log), index_(log.spans_.size()) {
  Span span;
  span.name = name;
  span.job = job;
  span.parent = log.open_.empty() ? kNone : log.open_.back();
  log.spans_.push_back(std::move(span));
  log.open_.push_back(index_);
  log.spans_[index_].start_ns = now_ns();  // bookkeeping stays outside
}

SpanLog::Guard::~Guard() {
  const std::uint64_t end = now_ns();
  Span& span = log_.spans_[index_];
  span.dur_ns = end - span.start_ns;
  log_.open_.pop_back();
}

namespace {

/// The daemon's steal-queue cut of a job's uncached indices: contiguous
/// runs of points_per_shard (default options; the shard cap never binds
/// at these job sizes).
std::vector<std::vector<std::size_t>> leased_shards(
    const std::vector<std::size_t>& computed) {
  const std::size_t per_shard = dist::Service::Options().points_per_shard;
  std::vector<std::vector<std::size_t>> shards;
  for (std::size_t start = 0; start < computed.size(); start += per_shard)
    shards.emplace_back(
        computed.begin() + static_cast<std::ptrdiff_t>(start),
        computed.begin() + static_cast<std::ptrdiff_t>(
                               std::min(start + per_shard, computed.size())));
  return shards;
}

/// The wire round trip of one result: serialize, then parse it back.
template <typename Result, typename Parse>
void replay_io(SpanLog& log, std::uint64_t job, const Result& result,
               Parse parse) {
  std::string text;
  {
    Guard span(log, "io.to_json", job);
    text = io::to_json(result).dump();
  }
  Guard span(log, "io.parse", job);
  parse(io::JsonValue::parse(text));
}

void replay_sweep(const ExecutedJob& job, SpanLog& log) {
  const core::SweepGrid& grid = job.spec->grid;
  const core::SweepRunner runner(
      core::SweepRunner::Options{1, core::BackendChoice::kAuto});
  for (const std::vector<std::size_t>& shard : leased_shards(job.computed)) {
    std::vector<core::SweepPointResult> points;
    {
      Guard span(log, "core.shard_compute", job.fingerprint);
      points = runner.run_indices(grid, shard);
    }
    for (std::size_t k = 0; k < shard.size(); ++k) {
      // compare_modes_analytic, one layer call at a time.
      const core::SessionConfig config = grid.config_at(shard[k]);
      const sramlp::march::MarchTest& test =
          grid.algorithms[points[k].algorithm];
      std::optional<sramlp::march::AddressOrder> order;
      {
        Guard span(log, "march.order_build", job.fingerprint);
        order.emplace(sramlp::march::AddressOrder::word_line_after_word_line(
            config.geometry.rows, config.geometry.col_groups()));
      }
      sramlp::engine::AnalyticBackend backend(config.tech, config.geometry);
      for (const bool low_power : {false, true}) {
        sramlp::engine::StreamOptions options;
        options.low_power = low_power;
        options.row_transition_restore = config.row_transition_restore;
        options.invert_background = config.invert_background;
        options.background = config.background;
        options.trace = config.trace;
        std::optional<sramlp::engine::CommandStream> stream;
        {
          Guard span(log, "engine.stream_build", job.fingerprint);
          stream.emplace(test, *order, options);
        }
        std::uint64_t cycles = 0;
        {
          Guard span(log, "engine.analytic_run", job.fingerprint);
          cycles = backend.run(*stream).cycles;
        }
        SRAMLP_REQUIRE(cycles == stream->total_cycles(),
                       "analytic replay disagrees with the stream length");
      }
      replay_io(log, job.fingerprint, points[k], [](const io::JsonValue& v) {
        return io::sweep_point_from_json(v);
      });
    }
  }
}

/// One untraced cycle-accurate session, with the order and stream builds
/// it implies.  @p model may be null (fault-free).
void replay_session(const core::SessionConfig& config,
                    const sramlp::march::MarchTest& test,
                    sramlp::sram::CellFaultModel* model, std::uint64_t job,
                    SpanLog& log, ReplayCounts& counts) {
  {
    Guard span(log, "march.order_build", job);
    (void)sramlp::march::AddressOrder::word_line_after_word_line(
        config.geometry.rows, config.geometry.col_groups());
  }
  core::TestSession session(config);
  session.attach_fault_model(model);
  {
    Guard span(log, "engine.stream_build", job);
    (void)session.make_stream(test);
  }
  Guard span(log, "sram.run", job);
  counts.sim_cycles += session.run(test).cycles;
}

void replay_campaign(const ExecutedJob& job, SpanLog& log,
                     ReplayCounts& counts) {
  const dist::JobSpec& spec = *job.spec;
  core::CampaignRunner::Options options;  // the service worker's settings
  options.threads = 1;
  options.batched = true;
  // CampaignRunner::run over the whole library would run this plan.
  counts.job_faults += spec.faults.size();
  counts.job_session_pairs +=
      sramlp::faults::plan_batches(spec.faults).session_pairs();
  for (const std::vector<std::size_t>& shard : leased_shards(job.computed)) {
    std::vector<sramlp::faults::FaultSpec> subset;
    for (const std::size_t i : shard) subset.push_back(spec.faults[i]);
    sramlp::faults::BatchPlan plan;
    {
      Guard span(log, "faults.plan_batches", job.fingerprint);
      plan = sramlp::faults::plan_batches(subset);
    }
    counts.shard_faults += subset.size();
    counts.shard_session_pairs += plan.session_pairs();
    std::vector<core::CampaignEntry> entries;
    {
      Guard span(log, "core.shard_compute", job.fingerprint);
      entries = core::CampaignRunner(options).run_subset(
          spec.config, *spec.test, spec.faults, shard);
    }
    for (const sramlp::sram::Mode mode :
         {sramlp::sram::Mode::kFunctional, sramlp::sram::Mode::kLowPowerTest}) {
      core::SessionConfig config = spec.config;
      config.mode = mode;
      for (const std::vector<std::size_t>& batch : plan.batches) {
        std::vector<sramlp::faults::FaultSpec> members;
        for (const std::size_t m : batch) members.push_back(subset[m]);
        sramlp::faults::BatchFaultSet model(std::move(members));
        replay_session(config, *spec.test, &model, job.fingerprint, log,
                       counts);
      }
      for (const std::size_t f : plan.fallback) {
        sramlp::faults::FaultSet model({subset[f]});
        replay_session(config, *spec.test, &model, job.fingerprint, log,
                       counts);
      }
    }
    for (const core::CampaignEntry& entry : entries)
      replay_io(log, job.fingerprint, entry, [](const io::JsonValue& v) {
        return io::campaign_entry_from_json(v);
      });
  }
}

/// The first leased shard's restarts, plus a traced and an untraced
/// cycle-accurate re-run of every schedule on their fronts.
void replay_search(const ExecutedJob& job, SpanLog& log,
                   ReplayCounts& counts) {
  const sramlp::search::SearchSpec& spec = *job.spec->search;
  const std::vector<std::vector<std::size_t>> shards =
      leased_shards(job.computed);
  if (shards.empty()) return;
  std::vector<sramlp::search::RestartResult> results;
  {
    Guard shard_span(log, "core.shard_compute", job.fingerprint);
    for (const std::size_t restart : shards.front()) {
      Guard span(log, "search.restart", job.fingerprint);
      results.push_back(sramlp::search::run_restart(spec, restart));
    }
  }
  core::SessionConfig traced = spec.config;
  sramlp::power::TraceConfig trace;
  trace.window_cycles = spec.window_cycles;
  traced.trace = trace;
  for (const sramlp::search::RestartResult& result : results) {
    {
      Guard span(log, "search.evaluator_build", job.fingerprint);
      sramlp::search::ScheduleEvaluator evaluator(spec.config, *spec.base,
                                                  spec.window_cycles);
    }
    for (const sramlp::search::ScheduleResult& point : result.front) {
      {
        Guard span(log, "search.verify", job.fingerprint);
        core::TestSession session(traced);
        (void)session.run(point.schedule);
      }
      replay_session(spec.config, point.schedule, nullptr, job.fingerprint,
                     log, counts);
    }
    replay_io(log, job.fingerprint, result, [](const io::JsonValue& v) {
      return io::restart_result_from_json(v);
    });
  }
}

/// Length of the union of [start, end) intervals.
std::uint64_t union_length(std::vector<std::pair<std::uint64_t,
                                                 std::uint64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0, covered_to = 0;
  for (const auto& [start, end] : intervals) {
    const std::uint64_t from = std::max(start, covered_to);
    if (end > from) total += end - from;
    covered_to = std::max(covered_to, end);
  }
  return total;
}

struct NameStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t child_ns = 0;
};

}  // namespace

ReplayCounts replay(const std::vector<ExecutedJob>& jobs, Workload workload,
                    SpanLog& log) {
  // Prefixes sized to replay in a few seconds: 100 sweep jobs, one
  // campaign block, 4 search jobs (their first shard each).
  const std::size_t prefix = workload == Workload::kSweepAnalytic    ? 100
                             : workload == Workload::kCampaignFaults ? 9
                                                                     : 4;
  ReplayCounts counts;
  for (std::size_t j = 0; j < jobs.size() && j < prefix; ++j) {
    const ExecutedJob& job = jobs[j];
    Guard job_span(log, "replay.job", job.fingerprint);
    {
      // The service keys the job, then (on a job-cache miss) every item.
      Guard span(log, "dist.fingerprint", job.fingerprint);
      (void)job.spec->fingerprint();
      if (!job.cache_hit)
        for (std::size_t i = 0; i < job.spec->size(); ++i)
          (void)dist::point_fingerprint(*job.spec, i);
    }
    if (job.cache_hit) continue;
    switch (workload) {
      case Workload::kSweepAnalytic: replay_sweep(job, log); break;
      case Workload::kCampaignFaults: replay_campaign(job, log, counts); break;
      case Workload::kScheduleSearch: replay_search(job, log, counts); break;
    }
  }
  return counts;
}

std::vector<DaemonSpan> read_daemon_trace(const std::string& path,
                                          io::JsonValue& events,
                                          std::uint64_t pid) {
  std::ifstream in(path);
  SRAMLP_REQUIRE(in.good(), "missing daemon trace file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const io::JsonValue doc = io::JsonValue::parse(text.str());
  const io::JsonValue& list = doc.at("traceEvents");
  std::vector<DaemonSpan> spans;
  for (std::size_t i = 0; i < list.size(); ++i) {
    io::JsonValue event = list.at(i);
    DaemonSpan span;
    span.name = event.at("name").as_string();
    span.start_us = event.at("ts").as_uint();
    span.dur_us = event.at("dur").as_uint();
    const io::JsonValue& args = event.get("args");
    if (!args.is_null() && args.has("job")) span.job = args.at("job").as_uint();
    spans.push_back(std::move(span));
    event.set("pid", io::JsonValue::integer(pid));
    events.push_back(std::move(event));
  }
  return spans;
}

io::JsonValue layer_metrics(const LayerInputs& in) {
  const std::vector<SpanLog::Span>& spans = in.log->spans();
  std::map<std::string, NameStats> by_name;
  for (const SpanLog::Span& span : spans) {
    NameStats& stats = by_name[span.name];
    ++stats.count;
    stats.total_ns += span.dur_ns;
    if (span.parent != SpanLog::kNone)
      by_name[spans[span.parent].name].child_ns += span.dur_ns;
  }
  const auto count = [&](const char* name) -> std::uint64_t {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.count;
  };
  const auto total_ns = [&](const char* name) -> double {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  const auto mean_ns = [&](const char* name) {
    return count(name) == 0 ? 0.0
                            : total_ns(name) / static_cast<double>(count(name));
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  io::JsonValue metrics = io::JsonValue::object();
  const auto put = [&](const char* name, double value, const char* unit,
                       std::uint64_t samples) {
    io::JsonValue m = io::JsonValue::object();
    m.set("value", io::JsonValue::number(value));
    m.set("unit", io::JsonValue::string(unit));
    m.set("samples", io::JsonValue::integer(samples));
    metrics.set(name, std::move(m));
  };
  const auto put_mean = [&](const char* metric, const char* span,
                            double scale, const char* unit) {
    put(metric, mean_ns(span) * scale, unit, count(span));
  };

  put_mean("march.order_build_us", "march.order_build", 1e-3, "us");
  put_mean("engine.stream_build_us", "engine.stream_build", 1e-3, "us");
  put_mean("engine.analytic_run_us", "engine.analytic_run", 1e-3, "us");
  put_mean("sram.run_ms", "sram.run", 1e-6, "ms");
  put("sram.ns_per_sim_cycle",
      ratio(total_ns("sram.run"), static_cast<double>(in.counts.sim_cycles)),
      "ns", count("sram.run"));
  put("sram.sim_cycles", static_cast<double>(in.counts.sim_cycles), "count",
      count("sram.run"));
  put("power.trace_ratio",
      ratio(total_ns("search.verify"), total_ns("sram.run")), "ratio",
      count("search.verify"));
  put_mean("faults.plan_batches_us", "faults.plan_batches", 1e-3, "us");
  put("faults.faults_per_session_pair",
      ratio(static_cast<double>(in.counts.shard_faults),
            static_cast<double>(in.counts.shard_session_pairs)),
      "faults/pair", count("faults.plan_batches"));
  put("faults.faults_per_session_pair_whole",
      ratio(static_cast<double>(in.counts.job_faults),
            static_cast<double>(in.counts.job_session_pairs)),
      "faults/pair", in.counts.job_session_pairs > 0 ? count("replay.job") : 0);
  put_mean("core.shard_compute_ms", "core.shard_compute", 1e-6, "ms");
  put_mean("search.evaluator_build_ms", "search.evaluator_build", 1e-6, "ms");
  put_mean("search.restart_ms", "search.restart", 1e-6, "ms");
  put_mean("search.verify_ms", "search.verify", 1e-6, "ms");
  put("search.verify_share",
      ratio(total_ns("search.verify"), total_ns("search.restart")), "ratio",
      count("search.verify"));
  put_mean("io.to_json_us", "io.to_json", 1e-3, "us");
  put_mean("io.parse_us", "io.parse", 1e-3, "us");
  put("io.document_bytes", in.document_bytes, "bytes", in.jobs);
  put_mean("dist.fingerprint_us", "dist.fingerprint", 1e-3, "us");
  put_mean("dist.submit_ms", "client.submit", 1e-6, "ms");

  // Service self time: each submit minus the workers' execute spans of
  // that job inside it.  Lease wait: each worker lease, from when its job
  // was submitted (a lease parked before the submit was waiting for work
  // that did not exist yet) to the grant.
  // Submits are sequential (closed loop), so they are sorted by start.
  std::vector<const SpanLog::Span*> submits;
  for (const SpanLog::Span& span : spans)
    if (span.name == "client.submit") submits.push_back(&span);
  std::map<std::uint64_t,
           std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      executes_by_job;
  for (const DaemonSpan& d : in.daemon)
    if (d.name == "execute")
      executes_by_job[d.job].emplace_back(d.start_us, d.start_us + d.dur_us);
  double self_ns = 0.0;
  for (const SpanLog::Span* submit : submits) {
    const std::uint64_t start = submit->start_ns / 1000;
    const std::uint64_t end = (submit->start_ns + submit->dur_ns) / 1000;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> inside;
    for (const auto& [from, to] : executes_by_job[submit->job])
      if (std::min(to, end) > std::max(from, start))
        inside.emplace_back(std::max(from, start), std::min(to, end));
    self_ns += static_cast<double>(submit->dur_ns) -
               1e3 * static_cast<double>(union_length(std::move(inside)));
  }
  put("dist.service_self_ms",
      ratio(self_ns * 1e-6, static_cast<double>(submits.size())), "ms",
      submits.size());
  double lease_us = 0.0;
  std::uint64_t leases = 0;
  for (const DaemonSpan& d : in.daemon) {
    if (d.name != "lease") continue;
    const std::uint64_t granted = d.start_us + d.dur_us;
    // The last submit that started before the grant.
    const auto it = std::upper_bound(
        submits.begin(), submits.end(), granted,
        [](std::uint64_t t, const SpanLog::Span* s) {
          return t < s->start_ns / 1000;
        });
    if (it == submits.begin()) continue;
    const SpanLog::Span* submit = *std::prev(it);
    if (granted > (submit->start_ns + submit->dur_ns) / 1000)
      continue;  // granted between jobs: the final "stop" lease
    lease_us += static_cast<double>(
        granted - std::max(d.start_us, submit->start_ns / 1000));
    ++leases;
  }
  put("dist.lease_ms", ratio(lease_us * 1e-3, static_cast<double>(leases)),
      "ms", leases);
  put("dist.cache_hit_ratio",
      ratio(static_cast<double>(in.after.point_cache_hits -
                                in.before.point_cache_hits +
                                in.whole_hit_items),
            static_cast<double>(in.items)),
      "ratio", in.jobs);
  put("dist.shards_per_job",
      ratio(static_cast<double>(in.after.shards_executed -
                                in.before.shards_executed),
            static_cast<double>(in.jobs)),
      "count", in.jobs);
  put("dist.requeues",
      static_cast<double>(in.after.shard_requeues - in.before.shard_requeues),
      "count", in.jobs);

  io::JsonValue summary = io::JsonValue::object();
  for (const auto& [name, stats] : by_name) {
    io::JsonValue row = io::JsonValue::object();
    row.set("count", io::JsonValue::integer(stats.count));
    row.set("total_ms",
            io::JsonValue::number(static_cast<double>(stats.total_ns) * 1e-6));
    row.set("self_ms", io::JsonValue::number(
                           static_cast<double>(stats.total_ns - stats.child_ns) *
                           1e-6));
    summary.set(name, std::move(row));
  }
  io::JsonValue out = io::JsonValue::object();
  out.set("metrics", std::move(metrics));
  out.set("spans", std::move(summary));
  return out;
}

void write_span_file(const std::string& path, const SpanLog& log,
                     io::JsonValue daemon_events) {
  io::JsonValue events = io::JsonValue::array();
  for (const SpanLog::Span& span : log.spans()) {
    io::JsonValue event = io::JsonValue::object();
    event.set("name", io::JsonValue::string(span.name));
    event.set("cat", io::JsonValue::string("perfbench"));
    event.set("ph", io::JsonValue::string("X"));
    event.set("ts", io::JsonValue::number(static_cast<double>(span.start_ns) *
                                          1e-3));
    event.set("dur",
              io::JsonValue::number(static_cast<double>(span.dur_ns) * 1e-3));
    event.set("pid", io::JsonValue::integer(0));
    event.set("tid", io::JsonValue::integer(0));
    if (span.job != 0) {
      io::JsonValue args = io::JsonValue::object();
      args.set("job", io::JsonValue::integer(span.job));
      event.set("args", std::move(args));
    }
    events.push_back(std::move(event));
  }
  for (std::size_t i = 0; i < daemon_events.size(); ++i)
    events.push_back(daemon_events.at(i));
  io::JsonValue doc = io::JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", io::JsonValue::string("ms"));
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  out << doc.dump();
  SRAMLP_REQUIRE(out.good(), "cannot write span file " + path);
}

}  // namespace perfbench
