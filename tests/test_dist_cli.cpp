// tools/sramlp_dist CLI error paths, driven through the real binary: every
// operator mistake must exit with a clear one-line diagnostic (exit code
// 1), never a crash, a stack trace or a silent success.  The binary path
// arrives from CMake as SRAMLP_DIST_BIN; when the tools are not built the
// suite skips.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

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
  emit_example_job("campaign.json", "--campaign");
  const CliResult run = run_cli("run --job " + path("campaign.json") +
                                " --workers 2 --out " + path("run.json"));
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const CliResult single = run_cli("single --job " + path("campaign.json") +
                                   " --out " + path("single.json"));
  ASSERT_EQ(single.exit_code, 0) << single.output;
  const auto read = [&](const std::string& name) {
    std::ifstream in(dir_ / name);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  EXPECT_FALSE(read("run.json").empty());
  EXPECT_EQ(read("run.json"), read("single.json"));
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
