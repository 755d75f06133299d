// sramlp_dist — the distributed sweep/campaign/search CLI.
//
// Every distributed run goes through the sweep service (dist/service.h):
// workers steal small shards of a job over a socket and stream results
// back; the merged document is byte-identical to `single` whatever the
// worker split.
//
//   example-job [--campaign|--search] [--trace]
//                                        emit a small demo job spec (stdout)
//   single --job J --out M               single-process reference run (CI
//                                        diffs every distributed path
//                                        against it, byte for byte)
//   run    --job J --workers N --out M   one job on an ephemeral local
//          [--threads T]                 service: a private Unix socket and
//                                        N `work` subprocesses of this
//                                        binary, shut down when done
//   serve  --listen A --workers N        long-running daemon: accepts jobs
//                                        over a Unix/TCP socket, caches
//                                        results by fingerprint; with
//                                        --spill F a restarted daemon
//                                        resumes a killed job from the
//                                        items already delivered
//   work   --connect A                   one steal-protocol worker (extra
//                                        capacity, local or on another host
//                                        via --connect tcp:host:port)
//   submit --connect A --job J --out M   submit a job, stream the results,
//                                        write the merged document
//   stats  --connect A                   service counters as JSON, or
//          [--format prom]               Prometheus text exposition, or
//          [--watch [--interval MS]]     a live dashboard with rates
//   shutdown --connect A                 stop the daemon
//
// Observability (every subcommand): --log-level trace|debug|info|warn|
// error|off, --log-format human|jsonl, --log-file PATH (default stderr;
// SRAMLP_LOG sets the level too).  `serve`/`work` accept --trace-out F
// to dump a Chrome trace-event JSON of job/shard/lease/execute spans.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "dist/job.h"
#include "dist/service.h"
#include "io/serialize.h"
#include "march/algorithms.h"
#include "obs/clock.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "search/search.h"
#include "util/error.h"

namespace {

using namespace sramlp;
using cli::Args;
using cli::read_file;
using cli::write_file;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <subcommand> [options]\n"
      "\n"
      "  example-job [--campaign|--search] [--trace]      demo job spec -> stdout\n"
      "  single --job J --out M\n"
      "  run    --job J --workers N --out M [--threads N]\n"
      "  serve  [--listen unix:/path|tcp:port] [--workers N] [--threads N]\n"
      "         [--points-per-shard P] [--cache-capacity C] [--spill F]\n"
      "         [--no-point-cache] [--slow-us U] [--trace-out F]\n"
      "  work   --connect A [--threads N] [--slow-us U]\n"
      "         [--trace-out F]\n"
      "  submit --connect A --job J [--out M] [--expect-cache-hit]\n"
      "         [--submitter NAME]\n"
      "  stats  --connect A [--format json|prom]\n"
      "         [--watch [--interval MS] [--count N]]\n"
      "  shutdown --connect A\n"
      "\n"
      "  every subcommand: [--log-level trace|debug|info|warn|error|off]\n"
      "                    [--log-format human|jsonl] [--log-file PATH]\n"
      "                    [--log-max-bytes N]  (rotate PATH -> PATH.1 at N)\n",
      argv0);
  std::exit(2);
}

dist::JobSpec load_job(const std::string& path) {
  return dist::job_from_json(io::JsonValue::parse(read_file(path)));
}

/// Absolute path of this binary, for spawning `work` subprocesses.
std::string self_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

int cmd_example_job(Args& args) {
  const bool campaign = args.flag("--campaign");
  const bool search_job = args.flag("--search");
  // --trace: time-resolved power accounting on every run of the sweep
  // job; the distributed merge stays byte-identical to `single` (CI
  // diffs it).  Campaign reports reduce to per-fault verdicts, which carry no
  // trace — combining the flags would buy the traced-run cost for no
  // output, so it is an error rather than a silent no-op.
  const bool trace = args.flag("--trace");
  args.reject_leftovers();
  if (campaign && search_job)
    throw Error("--campaign and --search are mutually exclusive");
  if ((campaign || search_job) && trace)
    throw Error("--trace applies to sweep jobs only: campaign entries "
                "reduce to per-fault verdicts and would pay the traced-run "
                "cost without reporting a trace; search winners are traced "
                "internally by their cycle-accurate verification");
  dist::JobSpec job;
  if (search_job) {
    // A small peak-constrained schedule search: March C-'s 4 element
    // orders at a budget the base schedule misses, so every order places
    // idle; the front reports up to 4 verified points.
    job.kind = dist::JobSpec::Kind::kSearch;
    search::SearchSpec spec;
    spec.config.geometry = {16, 32, 1};
    spec.base = march::algorithms::march_c_minus();
    spec.window_cycles = 4 * spec.config.geometry.words();
    spec.seed = 7;
    spec.idle_quantum = 512;
    spec.max_idle_quanta = 8;
    spec.max_front = 4;
    const search::ScheduleEvaluator evaluator(spec.config, *spec.base,
                                              spec.window_cycles);
    spec.peak_budget_w =
        0.95 * evaluator
                   .score_one(search::identity_candidate(evaluator.elements()))
                   .peak_power_w;
    job.search = std::move(spec);
  } else if (campaign) {
    job.kind = dist::JobSpec::Kind::kCampaign;
    job.config.geometry = {16, 32, 1};
    job.test = march::algorithms::march_c_minus();
    job.faults = faults::standard_fault_library(job.config.geometry, 7, 2);
  } else {
    job.kind = dist::JobSpec::Kind::kSweep;
    job.grid.geometries = {{16, 32, 1}, {8, 64, 1}, {32, 16, 1}, {24, 48, 2}};
    job.grid.backgrounds = {sram::DataBackground::solid0(),
                            sram::DataBackground::checkerboard()};
    job.grid.algorithms = {march::algorithms::mats_plus(),
                           march::algorithms::march_c_minus()};
    if (trace)
      job.grid.base.trace =
          power::TraceConfig{.window_cycles = 32, .keep_windows = true};
  }
  std::fputs((dist::to_json(job).dump(2) + "\n").c_str(), stdout);
  return 0;
}

/// Start @p workers `work` subprocesses of this binary on @p address — the
/// local capacity of both `serve` and `run`.  @p extra_args go on every
/// worker's command line; with @p trace_out, worker w dumps its spans to
/// @p trace_out + ".worker-w" (each process has its own tracer ring).
std::vector<pid_t> spawn_workers(const std::string& self,
                                 const std::string& address,
                                 std::size_t workers,
                                 const std::vector<std::string>& extra_args,
                                 const std::optional<std::string>& trace_out) {
  std::vector<pid_t> children;
  for (std::size_t w = 0; w < workers; ++w) {
    std::vector<std::string> command = {self, "work", "--connect", address};
    command.insert(command.end(), extra_args.begin(), extra_args.end());
    if (trace_out) {
      command.push_back("--trace-out");
      command.push_back(*trace_out + ".worker-" + std::to_string(w));
    }
    // argv is built before fork: the service's threads are already
    // running, so the child does nothing but exec.
    std::vector<char*> argv;
    argv.reserve(command.size() + 1);
    for (std::string& arg : command) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t pid = fork();
    SRAMLP_REQUIRE(pid >= 0, "fork failed");
    if (pid == 0) {
      execv(argv[0], argv.data());
      _exit(127);
    }
    children.push_back(pid);
  }
  return children;
}

void reap(const std::vector<pid_t>& children) {
  for (const pid_t pid : children) {
    int status = 0;
    waitpid(pid, &status, 0);
  }
}

int cmd_run(Args& args, const char* argv0) {
  const dist::JobSpec job = load_job(args.require("--job"));
  const std::size_t workers = args.number("--workers", 2);
  const std::size_t threads = args.number("--threads", 1);
  const std::string out_path = args.require("--out");
  args.reject_leftovers();
  if (workers == 0) throw Error("run needs at least one worker");

  // An ephemeral service for this one job, on a private Unix socket.
  const std::filesystem::path socket_path =
      std::filesystem::temp_directory_path() /
      ("sramlp_dist_run." + std::to_string(::getpid()) + ".sock");
  dist::Service::Options options;
  options.listen = "unix:" + socket_path.string();
  // Small jobs (a few search items) still reach every worker.
  options.points_per_shard = std::clamp<std::size_t>(
      (job.size() + workers - 1) / workers, 1, options.points_per_shard);
  dist::Service service(options);
  service.start();
  const std::vector<pid_t> children =
      spawn_workers(self_path(argv0), service.address(), workers,
                    {"--threads", std::to_string(threads)}, std::nullopt);
  // Workers exit when the service stops; if they all exit first (crashed),
  // stopping the service fails the submit instead of waiting forever.
  std::thread monitor([&] {
    reap(children);
    service.request_stop();
  });
  std::optional<dist::SubmitResult> result;
  std::string error;
  try {
    result = dist::submit_job(service.address(), job);
  } catch (const std::exception& e) {
    error = e.what();
  }
  service.request_stop();
  monitor.join();
  service.wait();
  std::filesystem::remove(socket_path);
  if (!result) throw Error(error);
  write_file(out_path, result->document);
  std::printf("%zu work items over %zu workers -> %s\n", job.size(), workers,
              out_path.c_str());
  return 0;
}

int cmd_single(Args& args) {
  const dist::JobSpec job = load_job(args.require("--job"));
  const std::string out_path = args.require("--out");
  args.reject_leftovers();
  write_file(out_path, dist::single_document(job));
  std::printf("single-process reference -> %s\n", out_path.c_str());
  return 0;
}

int cmd_serve(Args& args, const char* argv0) {
  dist::Service::Options options;
  if (auto listen = args.value("--listen")) options.listen = *listen;
  options.points_per_shard =
      args.number("--points-per-shard", options.points_per_shard);
  options.cache.capacity =
      args.number("--cache-capacity", options.cache.capacity);
  if (auto spill = args.value("--spill")) options.cache.spill_path = *spill;
  if (args.flag("--no-point-cache")) options.point_cache = false;
  const std::size_t workers = args.number("--workers", 2);
  const std::size_t threads = args.number("--threads", 1);
  const std::size_t slow_us = args.number("--slow-us", 0);
  const std::optional<std::string> trace_out = args.value("--trace-out");
  args.reject_leftovers();
  if (trace_out) obs::Tracer::global().enable();

  dist::Service service(options);
  service.start();
  const std::string address = service.address();
  std::printf("sweep service listening on %s (%zu local workers)\n",
              address.c_str(), workers);
  std::fflush(stdout);

  // Local capacity: N `work` subprocesses of this very binary on the
  // resolved address.  Remote hosts add more with `sramlp_dist work`.
  std::vector<std::string> worker_args = {"--threads",
                                          std::to_string(threads)};
  if (slow_us > 0) {
    worker_args.push_back("--slow-us");
    worker_args.push_back(std::to_string(slow_us));
  }
  const std::vector<pid_t> children =
      spawn_workers(self_path(argv0), address, workers, worker_args,
                    trace_out);

  service.wait();  // until a `shutdown` request arrives
  reap(children);
  if (trace_out) {
    obs::Tracer::global().write_chrome_json(*trace_out);
    std::printf("trace written to %s (load in Perfetto or chrome://tracing)\n",
                trace_out->c_str());
  }
  const dist::ServiceStats stats = service.stats();
  std::printf("service stopped: %llu jobs (%llu cache hits, %llu points "
              "from cache), %llu points executed, %llu shards "
              "(%llu requeued), cache hit rate %.3f\n",
              static_cast<unsigned long long>(stats.jobs_submitted),
              static_cast<unsigned long long>(stats.job_cache_hits),
              static_cast<unsigned long long>(stats.point_cache_hits),
              static_cast<unsigned long long>(stats.points_executed),
              static_cast<unsigned long long>(stats.shards_executed),
              static_cast<unsigned long long>(stats.shard_requeues),
              stats.cache.hit_rate());
  return 0;
}

int cmd_work(Args& args) {
  const std::string address = args.require("--connect");
  dist::ServiceWorker::Options options;
  options.threads =
      static_cast<unsigned>(args.number("--threads", options.threads));
  options.slow_point_us = args.number("--slow-us", 0);
  const std::optional<std::string> trace_out = args.value("--trace-out");
  args.reject_leftovers();
  if (trace_out) obs::Tracer::global().enable();
  const std::size_t points = dist::ServiceWorker(options).run(address);
  if (trace_out) obs::Tracer::global().write_chrome_json(*trace_out);
  std::printf("worker done: %zu points computed\n", points);
  return 0;
}

int cmd_submit(Args& args) {
  const std::string address = args.require("--connect");
  const dist::JobSpec job = load_job(args.require("--job"));
  const std::optional<std::string> out_path = args.value("--out");
  // CI hook: fail loudly when a resubmission that must be answered from
  // the cache was computed instead.
  const bool expect_cache_hit = args.flag("--expect-cache-hit");
  // Label for the service's per-submitter fairness counters
  // (sramlp_submitter_*_total{submitter="..."}); empty reads as
  // "anonymous" on the service side.
  const std::string submitter = args.value("--submitter").value_or("");
  args.reject_leftovers();
  const dist::SubmitResult result =
      dist::submit_job(address, job, 5000, {}, submitter);
  if (out_path) write_file(*out_path, result.document);
  std::printf("job done: %zu points (%zu from cache, %zu streamed), "
              "whole-job cache %s, service hit rate %.3f%s%s\n",
              result.total_points, result.cached_points,
              result.streamed_lines, result.cache_hit ? "HIT" : "miss",
              result.cache_hit_rate, out_path ? " -> " : "",
              out_path ? out_path->c_str() : "");
  if (expect_cache_hit && !result.cache_hit)
    throw Error("expected a whole-job cache hit; the job was computed");
  return 0;
}

void print_stats_json(const dist::ServiceStats& stats) {
  io::JsonValue doc = io::JsonValue::object();
  for (const dist::ServiceCounter& counter : dist::kServiceCounters)
    doc.set(counter.name, io::JsonValue::integer(stats.*counter.member));
  doc.set("cache_entries", io::JsonValue::integer(stats.cache.entries));
  doc.set("cache_hit_rate", io::JsonValue::number(stats.cache.hit_rate()));
  std::fputs((doc.dump(2) + "\n").c_str(), stdout);
}

/// The --watch dashboard: totals plus client-side deltas and per-second
/// rates between consecutive samples (the service only ships totals, so
/// the derivative is computed here).  All display-only; rates use the
/// monotonic clock through the obs seam.
void watch_stats(const std::string& address, std::size_t interval_ms,
                 std::size_t count) {
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  std::optional<dist::ServiceStats> prev;
  std::uint64_t prev_us = 0;
  for (std::size_t sample = 0; count == 0 || sample < count; ++sample) {
    const dist::ServiceStats stats = dist::query_stats(address);
    const std::uint64_t now_us = obs::monotonic_micros();
    if (tty)
      std::fputs("\033[H\033[2J", stdout);  // home + clear: redraw in place
    else if (sample > 0)
      std::fputs("---\n", stdout);
    const double dt = prev ? static_cast<double>(now_us - prev_us) * 1e-6
                           : 0.0;
    std::printf("%s  sample %zu  interval %zums\n", address.c_str(),
                sample + 1, interval_ms);
    std::printf("  %-20s %12s %10s %12s\n", "counter", "total", "delta",
                "rate");
    for (const dist::ServiceCounter& counter : dist::kServiceCounters) {
      const char* name = counter.name;
      const std::uint64_t value = stats.*counter.member;
      if (prev && dt > 0.0) {
        const std::uint64_t before = (*prev).*counter.member;
        const std::uint64_t delta = value >= before ? value - before : 0;
        std::printf("  %-20s %12llu %10llu %10.1f/s\n", name,
                    static_cast<unsigned long long>(value),
                    static_cast<unsigned long long>(delta),
                    static_cast<double>(delta) / dt);
      } else {
        std::printf("  %-20s %12llu %10s %12s\n", name,
                    static_cast<unsigned long long>(value), "-", "-");
      }
    }
    std::printf("  %-20s %12zu\n", "cache_entries", stats.cache.entries);
    std::printf("  %-20s %12.3f\n", "cache_hit_rate", stats.cache.hit_rate());
    std::fflush(stdout);
    prev = stats;
    prev_us = now_us;
    if (count != 0 && sample + 1 >= count) break;
    ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
  }
}

int cmd_stats(Args& args) {
  const std::string address = args.require("--connect");
  std::string format = "json";
  if (const auto f = args.value("--format")) format = *f;
  const bool watch = args.flag("--watch");
  const std::size_t interval_ms = args.number("--interval", 1000);
  const std::size_t count = args.number("--count", 0);  // 0 = forever
  args.reject_leftovers();
  if (format == "prom") {
    if (watch)
      throw Error("--watch is a dashboard over the json view; scrape "
                  "--format prom with your collector instead");
    std::fputs(dist::query_metrics(address).prometheus.c_str(), stdout);
    return 0;
  }
  if (format != "json")
    throw Error("--format must be json or prom, got '" + format + "'");
  if (watch) {
    watch_stats(address, interval_ms == 0 ? 1000 : interval_ms, count);
    return 0;
  }
  print_stats_json(dist::query_stats(address));
  return 0;
}

int cmd_shutdown(Args& args) {
  const std::string address = args.require("--connect");
  args.reject_leftovers();
  dist::request_shutdown(address);
  std::printf("service shut down\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string subcommand = argv[1];
  Args args(argc, argv, 2);
  try {
    cli::apply_logging_flags(args);
    if (subcommand == "example-job") return cmd_example_job(args);
    if (subcommand == "single") return cmd_single(args);
    if (subcommand == "run") return cmd_run(args, argv[0]);
    if (subcommand == "serve") return cmd_serve(args, argv[0]);
    if (subcommand == "work") return cmd_work(args);
    if (subcommand == "submit") return cmd_submit(args);
    if (subcommand == "stats") return cmd_stats(args);
    if (subcommand == "shutdown") return cmd_shutdown(args);
    usage(argv[0]);
  } catch (const std::exception& e) {
    // Through the logger, so failures land in the same (possibly JSONL)
    // stream as everything else; the default sink is still stderr.  The
    // "sramlp_dist <cmd> failed" message is a greppable contract
    // (test_dist_cli asserts it).
    obs::log_error("cli", "sramlp_dist " + subcommand + " failed",
                   {obs::kv("error", e.what())});
    return 1;
  }
}
