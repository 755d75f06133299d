// tools/sramlp_dist CLI error paths, driven through the real binary: every
// operator mistake must exit with a clear one-line diagnostic (exit code
// 1), never a crash, a stack trace or a silent success.  A real `serve`
// daemon with worker subprocesses checks what its metrics scrape sees.  The binary path
// arrives from CMake as SRAMLP_DIST_BIN; when the tools are not built the
// suite skips.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

#ifndef SRAMLP_DIST_BIN
#define SRAMLP_DIST_BIN ""
#endif

/// Fresh per-fixture scratch directory under the system temp dir.
class DistCli : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(SRAMLP_DIST_BIN).empty())
      GTEST_SKIP() << "sramlp_dist binary not built";
    dir_ = fs::temp_directory_path() /
           ("sramlp_dist_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  struct CliResult {
    int exit_code = -1;      ///< -1 when the process did not exit normally
    std::string output;      ///< stdout + stderr
  };

  /// Run `sramlp_dist <args>`, capturing combined output.
  CliResult run_cli(const std::string& args) const {
    const fs::path capture = dir_ / "cli_capture.txt";
    const std::string command = std::string(SRAMLP_DIST_BIN) + " " + args +
                                " >" + capture.string() + " 2>&1";
    const int status = std::system(command.c_str());
    CliResult result;
    if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
    std::ifstream in(capture);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    result.output = buffer.str();
    return result;
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  void write_file(const std::string& name, const std::string& content) const {
    std::ofstream out(dir_ / name);
    out << content;
  }

  std::string read_file(const std::string& name) const {
    std::ifstream in(dir_ / name);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  /// Emit the demo sweep job spec to @p name inside the scratch dir.
  void emit_example_job(const std::string& name,
                        const std::string& flags = "") const {
    const CliResult job = run_cli("example-job " + flags);
    ASSERT_EQ(job.exit_code, 0) << job.output;
    write_file(name, job.output);
  }

  fs::path dir_;
};

TEST_F(DistCli, MalformedJobJsonFailsWithParseDiagnostic) {
  write_file("bad.json", "{ \"kind\": \"sweep\", ");
  const CliResult r = run_cli("run --job " + path("bad.json") +
                              " --workers 2 --out " + path("out.json"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("sramlp_dist run failed"), std::string::npos)
      << r.output;
  // The diagnostic names the JSON problem, not just "failed".
  EXPECT_NE(r.output.find("JSON"), std::string::npos) << r.output;
  EXPECT_FALSE(fs::exists(dir_ / "out.json"));
}

TEST_F(DistCli, UnreadableJobFileFailsCleanly) {
  const CliResult r = run_cli("single --job " + path("nonexistent.json") +
                              " --out " + path("out.json"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

TEST_F(DistCli, RunMatchesSingleByteForByte) {
  for (const std::string kind : {"campaign", "search"}) {
    emit_example_job(kind + ".json", "--" + kind);
    const CliResult run =
        run_cli("run --job " + path(kind + ".json") + " --workers 4 --out " +
                path(kind + "_run.json"));
    ASSERT_EQ(run.exit_code, 0) << run.output;
    const CliResult single = run_cli("single --job " + path(kind + ".json") +
                                     " --out " + path(kind + "_single.json"));
    ASSERT_EQ(single.exit_code, 0) << single.output;
    EXPECT_FALSE(read_file(kind + "_run.json").empty()) << kind;
    EXPECT_EQ(read_file(kind + "_run.json"), read_file(kind + "_single.json"))
        << kind;
  }
}

TEST_F(DistCli, MissingRequiredOptionIsNamed) {
  const CliResult r = run_cli("run --workers 2 --out " + path("out.json"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("missing required option --job"),
            std::string::npos)
      << r.output;
}

TEST_F(DistCli, OutOfRangeCountIsNamed) {
  // Past 2^64: std::stoull's out_of_range must not escape unnamed.
  const CliResult r = run_cli("serve --listen unix:" + path("s.sock") +
                              " --workers 99999999999999999999999");
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("option --workers needs a non-negative integer"),
            std::string::npos)
      << r.output;
}

TEST_F(DistCli, RemovedSubcommandsPrintUsage) {
  // No shard-file subcommands: each prints usage and exits 2.
  emit_example_job("job.json");
  for (const std::string subcommand : {"plan", "worker", "merge"}) {
    const CliResult r = run_cli(subcommand + " --job " + path("job.json"));
    EXPECT_EQ(r.exit_code, 2) << subcommand << ": " << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  }
}

TEST_F(DistCli, RunRejectsRemovedFlags) {
  emit_example_job("job.json");
  const CliResult r =
      run_cli("run --job " + path("job.json") + " --workers 2 --shards 3 " +
              "--out " + path("out.json"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unrecognized argument '--shards'"),
            std::string::npos)
      << r.output;
}

TEST_F(DistCli, UnknownArgumentIsRejected) {
  emit_example_job("job.json");
  const CliResult r = run_cli("single --job " + path("job.json") + " --out " +
                              path("out.json") + " --frobnicate");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unrecognized argument '--frobnicate'"),
            std::string::npos)
      << r.output;
}

TEST_F(DistCli, ExampleJobTraceFlagEmitsTraceConfig) {
  const CliResult r = run_cli("example-job --trace");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"trace\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"window_cycles\""), std::string::npos)
      << r.output;
}

/// The whole line of @p text that starts with @p prefix, minus the
/// prefix, as a number (fails the test when there is none).
std::uint64_t number_after(const std::string& text,
                           const std::string& prefix) {
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind(prefix, 0) == 0)
      return std::stoull(line.substr(prefix.size()));
  ADD_FAILURE() << "no line starting with '" << prefix << "' in:\n" << text;
  return 0;
}

TEST_F(DistCli, DaemonScrapeTimesEveryLeaseAndShard) {
  // The real daemon with worker subprocesses: the lease and shard timings
  // must be measured where the scrape can see them, not in the workers.
  emit_example_job("search.json", "--search");
  const std::string address = "unix:" + path("daemon.sock");
  const std::string log = path("serve.log");
  const pid_t daemon = ::fork();
  ASSERT_GE(daemon, 0);
  if (daemon == 0) {
    std::FILE* out = std::freopen(log.c_str(), "w", stdout);
    if (out != nullptr) ::dup2(::fileno(out), STDERR_FILENO);
    ::execl(SRAMLP_DIST_BIN, SRAMLP_DIST_BIN, "serve", "--listen",
            address.c_str(), "--workers", "2", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  // Reaps the daemon however the test ends; kills it if still serving.
  struct Reaper {
    pid_t pid;
    int status = -1;
    ~Reaper() {
      if (status != -1) return;
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  } reaper{daemon};

  const std::string job = " --connect " + address + " --job " +
                          path("search.json") + " --out ";
  const CliResult cold = run_cli("submit" + job + path("cold.json"));
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  const CliResult hot =
      run_cli("submit" + job + path("hot.json") + " --expect-cache-hit");
  ASSERT_EQ(hot.exit_code, 0) << hot.output;
  const CliResult prom =
      run_cli("stats --connect " + address + " --format prom");
  ASSERT_EQ(prom.exit_code, 0) << prom.output;
  const CliResult stats = run_cli("stats --connect " + address);
  ASSERT_EQ(stats.exit_code, 0) << stats.output;
  const CliResult bye = run_cli("shutdown --connect " + address);
  EXPECT_EQ(bye.exit_code, 0) << bye.output;
  ASSERT_EQ(::waitpid(daemon, &reaper.status, 0), daemon);
  EXPECT_TRUE(WIFEXITED(reaper.status) && WEXITSTATUS(reaper.status) == 0);
  // Served cold and from the cache, the document is single's.
  const CliResult single = run_cli("single --job " + path("search.json") +
                                   " --out " + path("single.json"));
  ASSERT_EQ(single.exit_code, 0) << single.output;
  EXPECT_FALSE(read_file("single.json").empty());
  EXPECT_EQ(read_file("cold.json"), read_file("single.json"));
  EXPECT_EQ(read_file("hot.json"), read_file("single.json"));

  const std::uint64_t shards =
      number_after(stats.output, "  \"shards_executed\": ");
  EXPECT_GE(shards, 1u) << stats.output;
  EXPECT_GE(number_after(prom.output, "sramlp_lease_latency_seconds_count "),
            1u);
  EXPECT_EQ(number_after(prom.output, "sramlp_shard_execution_seconds_count "),
            shards);
  EXPECT_EQ(number_after(prom.output, "sramlp_job_cache_hits_total "), 1u);
}

TEST_F(DistCli, ExampleJobRejectsCampaignTraceCombination) {
  // Campaign entries carry no trace: silently paying the traced-run cost
  // would be a trap, so the flag combination is an explicit error.
  const CliResult r = run_cli("example-job --campaign --trace");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("--trace applies to sweep jobs only"),
            std::string::npos)
      << r.output;
}

}  // namespace
