// perfbench_loadgen — the benchmark's load generator.
//
//   perfbench_loadgen run --workload W --seed S --seconds T --dist BIN
//                         --dir D [--setups K] [--trace] [--accuracy]
//
// starts a fresh `BIN serve --workers 3` daemon (default options, no
// spill file: every cache starts empty), times the set-up K times (the
// last daemon serves the window), then drives it in a closed loop — one
// submitter, one connection at a time, the next job sent only after the
// previous job's document arrived — for T seconds, rounded up to whole
// stratified blocks (workloads.h).  It writes D/run.json (per-job records,
// set-up times, peak RSS, accuracy figures, per-layer metrics) plus every
// distinct job and its document under D/jobs and D/docs for the
// `sramlp_dist single` oracle that run.py applies.
//
//   perfbench_loadgen check --workload W --seed S --jobs N
//
// runs the first N jobs of a stream single-process and reports any that
// fail (a search job with no verified schedule under its budget) — the
// check behind the claim that no generated job fails.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/paper_reference.h"
#include "core/session.h"
#include "dist/job.h"
#include "dist/service.h"
#include "engine/parallel.h"
#include "io/serialize.h"
#include "march/algorithms.h"
#include "replay.h"
#include "search/search.h"
#include "search/serialize.h"
#include "util/error.h"
#include "workloads.h"

namespace {

namespace core = sramlp::core;
namespace dist = sramlp::dist;
namespace io = sramlp::io;
using perfbench::GeneratedJob;
using perfbench::now_ns;
using perfbench::Workload;
using sramlp::Error;

constexpr std::uint64_t kWorkers = 3;

// --- the daemon ---------------------------------------------------------------

/// One `sramlp_dist serve` process: spawned on construction, shut down
/// (and waited for, with its workers) by stop() or the destructor.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& log_path,
         const std::string& trace_out) {
    int fds[2];
    SRAMLP_REQUIRE(::pipe2(fds, O_CLOEXEC) == 0, "pipe failed");
    std::vector<std::string> args = {binary, "serve", "--workers",
                                     std::to_string(kWorkers)};
    if (!trace_out.empty()) {
      args.push_back("--trace-out");
      args.push_back(trace_out);
    }
    pid_ = ::fork();
    SRAMLP_REQUIRE(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      // stdout -> our pipe (the listen line), stderr -> the log file.
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                             0644);
      if (log < 0 || ::dup2(fds[1], STDOUT_FILENO) < 0 ||
          ::dup2(log, STDERR_FILENO) < 0)
        ::_exit(127);
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    // "sweep service listening on tcp:127.0.0.1:PORT (3 local workers)"
    const std::string prefix = "sweep service listening on ";
    std::string line;
    while (line.empty() || line.back() != '\n') {
      char c = 0;
      if (!read_with_deadline(&c, 10000)) {
        kill_now();
        throw Error("daemon did not report its listen address");
      }
      line.push_back(c);
    }
    SRAMLP_REQUIRE(line.rfind(prefix, 0) == 0,
                   "unexpected daemon banner: " + line);
    address_ = line.substr(prefix.size(),
                           line.find(' ', prefix.size()) - prefix.size());
  }

  ~Daemon() {
    try {
      stop();
    } catch (const std::exception&) {
      kill_now();
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& address() const { return address_; }

  void wait_for_workers() const {
    const std::uint64_t deadline = now_ns() + 10'000'000'000ull;
    while (dist::query_stats(address_).workers_connected < kWorkers) {
      SRAMLP_REQUIRE(now_ns() < deadline, "daemon workers did not connect");
      ::usleep(500);
    }
  }

  /// Summed VmHWM (peak resident set) of the daemon and its workers.
  std::uint64_t peak_rss_kb() const {
    std::vector<long> pids = {pid_};
    std::ifstream children("/proc/" + std::to_string(pid_) + "/task/" +
                           std::to_string(pid_) + "/children");
    for (long child = 0; children >> child;) pids.push_back(child);
    SRAMLP_REQUIRE(pids.size() == 1 + kWorkers,
                   "expected the daemon and its worker processes");
    std::uint64_t total = 0;
    for (const long pid : pids) {
      std::ifstream status("/proc/" + std::to_string(pid) + "/status");
      std::string key;
      std::uint64_t kb = 0;
      while (status >> key)
        if (key == "VmHWM:" && status >> kb) break;
      SRAMLP_REQUIRE(kb > 0, "no VmHWM for pid " + std::to_string(pid));
      total += kb;
    }
    return total;
  }

  /// Shut down, drain the shared stdout pipe until the daemon and all its
  /// workers have closed it, then reap the daemon.
  void stop() {
    if (pid_ < 0) return;
    dist::request_shutdown(address_);
    char c = 0;
    while (read_with_deadline(&c, 30000)) {
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    ::close(out_fd_);
    SRAMLP_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                   "daemon exited abnormally");
  }

 private:
  /// One byte of the daemon's stdout; false at EOF or after @p timeout_ms.
  bool read_with_deadline(char* c, int timeout_ms) const {
    pollfd pfd{out_fd_, POLLIN, 0};
    for (;;) {
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      const ssize_t n = ::read(out_fd_, c, 1);
      if (n < 0 && errno == EINTR) continue;
      return n == 1;
    }
  }

  void kill_now() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);  // its workers exit when their sockets close
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    ::close(out_fd_);
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string address_;
};

// --- accuracy -----------------------------------------------------------------

/// Best verified schedule meeting @p budget on @p front, as cycles over
/// the base test's cycles.
std::optional<double> best_cycles_ratio(
    const std::vector<sramlp::search::ScheduleResult>& front, double budget,
    std::uint64_t base_cycles) {
  std::optional<std::uint64_t> best;
  for (const sramlp::search::ScheduleResult& point : front)
    if (point.verified && point.peak_power_w <= budget &&
        (!best || point.cycles < *best))
      best = point.cycles;
  if (!best) return std::nullopt;
  return static_cast<double>(*best) / static_cast<double>(base_cycles);
}

std::optional<double> document_cycles_ratio(const std::string& document,
                                            const GeneratedJob& job) {
  const io::JsonValue points = io::JsonValue::parse(document).at("front");
  std::vector<sramlp::search::ScheduleResult> front;
  for (std::size_t i = 0; i < points.size(); ++i)
    front.push_back(io::schedule_result_from_json(points.at(i)));
  return best_cycles_ratio(front, job.spec.search->peak_budget_w,
                           job.base_cycles);
}

/// Max |cycle-accurate PRR - published PRR| over Table 1 at 512x512, in
/// percentage points.
double prr_error_points() {
  const std::vector<sramlp::march::MarchTest> tests =
      sramlp::march::algorithms::table1();
  std::vector<double> error(tests.size());
  core::SessionConfig config;
  config.geometry = sramlp::sram::Geometry::paper_512x512();
  sramlp::engine::parallel_for(tests.size(), kWorkers, [&](std::size_t i) {
    SRAMLP_REQUIRE(tests[i].name() == core::kTable1[i].algorithm,
                   "Table 1 row order changed");
    const core::PrrComparison cmp =
        core::TestSession::compare_modes(config, tests[i]);
    error[i] = 100.0 * std::abs(cmp.prr - core::kTable1[i].prr);
  });
  return *std::max_element(error.begin(), error.end());
}

/// schedule_cycles_ratio for workloads that submit no search jobs: the
/// mean over two fixed reference searches (128², budget 0.95x).
double reference_cycles_ratio() {
  double sum = 0.0;
  const std::vector<sramlp::march::MarchTest> bases = {
      sramlp::march::algorithms::march_c_minus(),
      sramlp::march::algorithms::march_sr()};
  for (const sramlp::march::MarchTest& base : bases) {
    std::uint64_t base_cycles = 0;
    const dist::JobSpec job =
        perfbench::search_job(base, {128, 128, 1}, 0.95, 1, &base_cycles);
    const std::optional<double> ratio = best_cycles_ratio(
        sramlp::search::run_search(*job.search, kWorkers).front,
        job.search->peak_budget_w, base_cycles);
    SRAMLP_REQUIRE(ratio.has_value(),
                   "reference search found no schedule under its budget");
    sum += *ratio;
  }
  return sum / static_cast<double>(bases.size());
}

// --- the run ------------------------------------------------------------------

struct RunOptions {
  Workload workload = Workload::kSweepAnalytic;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string dist;
  std::string dir;
  std::size_t setups = 15;
  bool trace = false;
  bool accuracy = false;
};

/// Items a job counts for items_per_s: grid points, faults, or one whole
/// search job (not its restarts, so the count survives a change to the
/// search's work unit).
std::size_t items_of(const GeneratedJob& job) {
  return job.spec.kind == dist::JobSpec::Kind::kSearch ? 1 : job.spec.size();
}

/// The flat item index a streamed result line carries.
std::size_t line_index(const io::JsonValue& line) {
  return line.has("index") ? line.at("index").as_size()
                           : line.at("data").at("index").as_size();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  out << text;
  SRAMLP_REQUIRE(out.good(), "cannot write " + path);
}

struct JobRecord {
  std::size_t distinct = 0;  ///< index into the distinct jobs/documents
  std::uint64_t fingerprint = 0;
  std::uint64_t start_ns = 0;  ///< submit, relative to the window start
  std::uint64_t latency_ns = 0;
  bool cache_hit = false;
  std::size_t cached_points = 0;
  std::size_t bytes = 0;
  std::string error;  ///< empty = the job succeeded
  std::optional<double> cycles_ratio;
  std::vector<std::size_t> computed;  ///< traced runs only
};

int cmd_run(const RunOptions& opt) {
  std::filesystem::create_directories(opt.dir + "/jobs");
  std::filesystem::create_directories(opt.dir + "/docs");
  perfbench::JobStream stream(opt.workload, opt.seed);
  const std::string trace_file = opt.dir + "/daemon-trace.json";

  // Set-up: spawn -> workers connected -> warm-up job answered, K times.
  std::vector<double> setup_s;
  std::optional<Daemon> daemon;
  for (std::size_t k = 0; k < opt.setups; ++k) {
    daemon.reset();
    const std::uint64_t start = now_ns();
    daemon.emplace(opt.dist, opt.dir + "/daemon.log",
                   opt.trace ? trace_file : std::string());
    daemon->wait_for_workers();
    dist::submit_job(daemon->address(),
                     perfbench::warmup_job(opt.workload));
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  const std::string address = daemon->address();

  // The timed window, closed loop.
  const std::size_t block = stream.block_size();
  std::vector<GeneratedJob> jobs;
  std::vector<JobRecord> records;
  std::map<std::uint64_t, std::size_t> distinct_of;  // fingerprint -> id
  std::vector<std::size_t> distinct_job;             // id -> jobs index
  std::vector<std::string> documents;                // id -> document
  perfbench::SpanLog log;
  const dist::ServiceStats before = dist::query_stats(address);
  const std::uint64_t start = now_ns();
  const auto limit = start + static_cast<std::uint64_t>(opt.seconds * 1e9);
  const std::uint64_t hard_limit = limit + 60'000'000'000ull;
  std::uint64_t last_end = start;
  for (;;) {
    const std::uint64_t now = now_ns();
    if ((now >= limit && records.size() % block == 0) || now >= hard_limit)
      break;
    jobs.push_back(stream.next());
    const GeneratedJob& job = jobs.back();
    JobRecord rec;
    rec.fingerprint = job.spec.fingerprint();
    std::vector<std::size_t> seen;
    std::function<void(const io::JsonValue&)> on_line;
    if (opt.trace)
      on_line = [&](const io::JsonValue& line) {
        seen.push_back(line_index(line));
      };
    dist::SubmitResult result;
    const std::uint64_t t0 = now_ns();
    try {
      std::optional<perfbench::SpanLog::Guard> span;
      if (opt.trace) span.emplace(log, "client.submit", rec.fingerprint);
      result = dist::submit_job(address, job.spec, 5000, on_line);
    } catch (const std::exception& e) {
      rec.error = e.what();
    }
    last_end = now_ns();
    rec.start_ns = t0 - start;
    rec.latency_ns = last_end - t0;
    rec.cache_hit = result.cache_hit;
    rec.cached_points = result.cached_points;
    rec.bytes = result.document.size();
    if (rec.error.empty() && !rec.cache_hit && rec.cached_points <= seen.size()) {
      // The service replays cached points first, then streams the rest.
      rec.computed.assign(seen.begin() + static_cast<std::ptrdiff_t>(
                                             rec.cached_points),
                          seen.end());
      std::sort(rec.computed.begin(), rec.computed.end());
    }
    const auto [it, fresh] =
        distinct_of.emplace(rec.fingerprint, documents.size());
    rec.distinct = it->second;
    if (fresh) {
      distinct_job.push_back(jobs.size() - 1);
      documents.push_back(std::move(result.document));
    } else if (rec.error.empty() && result.document != documents[it->second]) {
      rec.error = "resubmitted job's document differs from its first answer";
    }
    records.push_back(std::move(rec));
  }
  const double window_s = static_cast<double>(last_end - start) * 1e-9;
  const bool whole_blocks = records.size() % block == 0;
  const dist::ServiceStats after = dist::query_stats(address);
  const std::uint64_t rss_kb = daemon->peak_rss_kb();
  daemon->stop();

  // Search jobs must return a verified schedule under their budget.
  for (std::size_t j = 0; j < records.size(); ++j) {
    JobRecord& rec = records[j];
    if (opt.workload != Workload::kScheduleSearch || !rec.error.empty())
      continue;
    rec.cycles_ratio = document_cycles_ratio(documents[rec.distinct], jobs[j]);
    if (!rec.cycles_ratio)
      rec.error = "no verified schedule meets the budget";
  }

  io::JsonValue out = io::JsonValue::object();
  out.set("workload", io::JsonValue::string(perfbench::to_name(opt.workload)));
  out.set("seed", io::JsonValue::integer(opt.seed));
  io::JsonValue setups = io::JsonValue::array();
  for (const double s : setup_s) setups.push_back(io::JsonValue::number(s));
  out.set("setup_s", std::move(setups));
  out.set("window_s", io::JsonValue::number(window_s));
  out.set("block_size", io::JsonValue::integer(block));
  out.set("whole_blocks", io::JsonValue::boolean(whole_blocks));
  out.set("peak_rss_kb", io::JsonValue::integer(rss_kb));
  io::JsonValue job_list = io::JsonValue::array();
  std::uint64_t items = 0, whole_hit_items = 0;
  double bytes = 0.0;
  for (std::size_t j = 0; j < records.size(); ++j) {
    const JobRecord& rec = records[j];
    const GeneratedJob& job = jobs[j];
    io::JsonValue r = io::JsonValue::object();
    r.set("id", io::JsonValue::integer(rec.distinct));
    r.set("label", io::JsonValue::string(job.label));
    r.set("reuse", io::JsonValue::string(perfbench::to_name(job.reuse)));
    r.set("items", io::JsonValue::integer(items_of(job)));
    r.set("start_ms",
          io::JsonValue::number(static_cast<double>(rec.start_ns) * 1e-6));
    r.set("latency_ms",
          io::JsonValue::number(static_cast<double>(rec.latency_ns) * 1e-6));
    r.set("cache_hit", io::JsonValue::boolean(rec.cache_hit));
    r.set("cached_points", io::JsonValue::integer(rec.cached_points));
    r.set("bytes", io::JsonValue::integer(rec.bytes));
    io::JsonValue geometries = io::JsonValue::array();
    const auto add_geometry = [&](const sramlp::sram::Geometry& g) {
      geometries.push_back(io::JsonValue::string(
          std::to_string(g.rows) + "x" + std::to_string(g.cols) + "x" +
          std::to_string(g.word_width)));
    };
    if (job.spec.kind == dist::JobSpec::Kind::kSweep)
      for (const auto& g : job.spec.grid.geometries) add_geometry(g);
    else if (job.spec.kind == dist::JobSpec::Kind::kCampaign)
      add_geometry(job.spec.config.geometry);
    else
      add_geometry(job.spec.search->config.geometry);
    r.set("geometries", std::move(geometries));
    if (rec.cycles_ratio)
      r.set("cycles_ratio", io::JsonValue::number(*rec.cycles_ratio));
    if (!rec.error.empty()) r.set("error", io::JsonValue::string(rec.error));
    job_list.push_back(std::move(r));
    items += items_of(job);
    if (rec.cache_hit) whole_hit_items += items_of(job);
    bytes += static_cast<double>(rec.bytes);
  }
  out.set("jobs", std::move(job_list));

  for (std::size_t id = 0; id < documents.size(); ++id) {
    const std::string name = "/" + std::to_string(id) + ".json";
    write_text(opt.dir + "/jobs" + name,
               dist::to_json(jobs[distinct_job[id]].spec).dump());
    write_text(opt.dir + "/docs" + name, documents[id]);
  }

  if (opt.accuracy) {
    out.set("prr_error_pts", io::JsonValue::number(prr_error_points()));
    if (opt.workload != Workload::kScheduleSearch)
      out.set("reference_cycles_ratio",
              io::JsonValue::number(reference_cycles_ratio()));
  }

  if (opt.trace) {
    io::JsonValue daemon_events = io::JsonValue::array();
    perfbench::LayerInputs in;
    in.log = &log;
    in.daemon = perfbench::read_daemon_trace(trace_file, daemon_events, 1);
    for (std::uint64_t w = 0; w < kWorkers; ++w) {
      std::vector<perfbench::DaemonSpan> spans = perfbench::read_daemon_trace(
          trace_file + ".worker-" + std::to_string(w), daemon_events, 2 + w);
      in.daemon.insert(in.daemon.end(), spans.begin(), spans.end());
    }
    std::vector<perfbench::ExecutedJob> executed;
    for (std::size_t j = 0; j < records.size(); ++j)
      executed.push_back({&jobs[j].spec, records[j].fingerprint,
                          records[j].cache_hit, records[j].computed});
    in.counts = perfbench::replay(executed, opt.workload, log);
    in.before = before;
    in.after = after;
    in.jobs = records.size();
    in.items = items;
    in.whole_hit_items = whole_hit_items;
    in.document_bytes =
        records.empty() ? 0.0 : bytes / static_cast<double>(records.size());
    io::JsonValue layers = perfbench::layer_metrics(in);
    out.set("per_layer", layers.at("metrics"));
    out.set("spans", layers.at("spans"));
    const std::string span_file = opt.dir + "/spans.json";
    perfbench::write_span_file(span_file, log, std::move(daemon_events));
    out.set("span_file", io::JsonValue::string(span_file));
  }

  write_text(opt.dir + "/run.json", out.dump(1));
  return 0;
}

int cmd_check(Workload workload, std::uint64_t seed, std::size_t count) {
  perfbench::JobStream stream(workload, seed);
  std::size_t failed = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const GeneratedJob job = stream.next();
    std::string outcome = "ok";
    if (job.spec.kind == dist::JobSpec::Kind::kSearch) {
      const std::optional<double> ratio = best_cycles_ratio(
          sramlp::search::run_search(*job.spec.search, kWorkers).front,
          job.spec.search->peak_budget_w, job.base_cycles);
      outcome = "budget " + std::to_string(job.budget_scale) + ": ";
      if (ratio) {
        outcome += "ratio " + std::to_string(*ratio);
      } else {
        outcome += "FAILED: no verified schedule meets the budget";
        ++failed;
      }
    } else {
      job.spec.validate();
    }
    std::printf("%4zu %-28s %-8s %zu items  %s\n", j, job.label.c_str(),
                perfbench::to_name(job.reuse).c_str(), job.spec.size(),
                outcome.c_str());
    std::fflush(stdout);
  }
  std::printf("%zu of %zu jobs failed\n", failed, count);
  return failed == 0 ? 0 : 1;
}

std::string value_of(std::vector<std::string>& args, const std::string& name,
                     const std::string& fallback = {}) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i)
    if (args[i] == name) {
      std::string value = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return value;
    }
  SRAMLP_REQUIRE(!fallback.empty(), "missing required option " + name);
  return fallback;
}

bool flag(std::vector<std::string>& args, const std::string& name) {
  const auto it = std::find(args.begin(), args.end(), name);
  if (it == args.end()) return false;
  args.erase(it);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    SRAMLP_REQUIRE(argc >= 2, "usage: perfbench_loadgen run|check [options]");
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    const Workload workload =
        perfbench::workload_from_name(value_of(args, "--workload"));
    const std::uint64_t seed = std::stoull(value_of(args, "--seed"));
    int rc = 0;
    if (command == "run") {
      RunOptions opt;
      opt.workload = workload;
      opt.seed = seed;
      opt.seconds = std::stod(value_of(args, "--seconds"));
      opt.dist = value_of(args, "--dist");
      opt.dir = value_of(args, "--dir");
      opt.setups = std::stoul(value_of(args, "--setups", "15"));
      opt.trace = flag(args, "--trace");
      opt.accuracy = flag(args, "--accuracy");
      SRAMLP_REQUIRE(args.empty(), "unrecognized argument " +
                                       (args.empty() ? "" : args.front()));
      SRAMLP_REQUIRE(opt.setups >= 1, "--setups must be at least 1");
      rc = cmd_run(opt);
    } else if (command == "check") {
      const std::size_t count = std::stoul(value_of(args, "--jobs"));
      SRAMLP_REQUIRE(args.empty(), "unrecognized argument " +
                                       (args.empty() ? "" : args.front()));
      rc = cmd_check(workload, seed, count);
    } else {
      throw Error("unknown command '" + command + "' (run | check)");
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", e.what());
    return 1;
  }
}
