// Fault campaigns: inject faults on fresh arrays, run a March test, record
// whether each was detected — in functional mode, in low-power test mode,
// and optionally across address orders (DOF-1 verification).
//
// Two execution shapes produce the same report:
//
//   * per-fault (default) — one independent session pair per fault,
//     embarrassingly parallel over engine::parallel_for;
//   * batched (Options::batched) — faults::plan_batches partitions the
//     library into victim-disjoint batches, each wrapped in a
//     faults::BatchFaultSet and run as ONE session pair; detections are
//     attributed back per fault through the array's on_read_mismatch
//     channel.  Faults the partitioner cannot prove independent (an
//     aggressor cell that is another fault's victim) run per-fault, as
//     does everything when the Fig. 7 restore is disabled (faulty swaps
//     break independence).  Verdicts and per-entry mismatch counts are
//     regression-tested bit-identical to the per-fault path; only the
//     session count (and wall time) changes.
//
// Either shape simulates each session on its row cone: with the restore
// on, only the rows holding a victim or an aggressor plus the rows of the
// order's first and last address run; with it off, every row does.  The
// soundness argument sits on campaign_row_mask in fault_campaign.cpp, and
// the cone oracle in tests/test_campaign_batch.cpp pins every entry to
// the whole-array TestSession::run.
//
// Entry i always describes faults[i] and every work item is independent
// and deterministic, so the report is identical whatever the worker
// count — threads = 1 IS the serial reference path.
#pragma once

#include <string>
#include <vector>

#include "core/session.h"
#include "faults/models.h"

namespace sramlp::core {

/// Per-fault campaign outcome.
struct CampaignEntry {
  faults::FaultSpec spec;
  bool detected_functional = false;
  bool detected_low_power = false;
  std::uint64_t mismatches_functional = 0;
  std::uint64_t mismatches_low_power = 0;
};

/// Aggregate campaign outcome.
struct CampaignReport {
  std::string algorithm;
  std::vector<CampaignEntry> entries;
  /// Execution-shape accounting: functional+low-power session pairs run
  /// (per-fault: one per entry) and how many of them were multi-fault
  /// batches.
  std::size_t session_pairs = 0;
  std::size_t batch_sessions = 0;
  /// Row-cone accounting, summed over every session run (two per session
  /// pair): rows the cycle-accurate engine simulated, and rows of the
  /// array.  Not serialized.
  std::size_t rows_simulated = 0;
  std::size_t array_rows = 0;

  std::size_t detected_functional() const;
  std::size_t detected_low_power() const;
  double coverage_functional() const;
  double coverage_low_power() const;
  /// True when every fault's detection verdict agrees across the modes —
  /// the paper's correctness requirement for the low-power test mode.
  bool modes_agree() const;
};

/// Thread-pool executor for Table-1-scale fault campaigns.
class CampaignRunner {
 public:
  struct Options {
    /// Worker threads; 0 = one per hardware thread, 1 = serial.
    unsigned threads = 0;
    /// Run victim-disjoint faults many-per-session (see file comment).
    /// Verdicts are identical to the per-fault path; sessions drop by the
    /// batching factor.
    bool batched = false;
  };

  CampaignRunner() = default;
  explicit CampaignRunner(const Options& options) : options_(options) {}

  /// Run @p test against each fault of @p faults on fresh arrays built
  /// from @p config (mode field ignored; both modes are run).  entries[i]
  /// describes faults[i] whichever execution shape ran it.
  CampaignReport run(const SessionConfig& config, const march::MarchTest& test,
                     const std::vector<faults::FaultSpec>& faults) const;

  /// Run an arbitrary subset of @p faults by index; the returned entries
  /// parallel @p indices.  Each fault runs on its own fresh session pair
  /// (or batch), so entry verdicts and mismatch counts are identical to
  /// the slots a whole-library run() produces — a partition of the index
  /// space evaluated shard by shard (the dist/ worker's entry point)
  /// reassembles bit-identical to one run() call.
  std::vector<CampaignEntry> run_subset(
      const SessionConfig& config, const march::MarchTest& test,
      const std::vector<faults::FaultSpec>& faults,
      const std::vector<std::size_t>& indices) const;

 private:
  Options options_;
};

/// Convenience wrapper: run the campaign on all hardware threads.
CampaignReport run_fault_campaign(const SessionConfig& config,
                                  const march::MarchTest& test,
                                  const std::vector<faults::FaultSpec>& faults);

/// Detection verdict for a single fault under a single configuration.
bool detects_fault(const SessionConfig& config, const march::MarchTest& test,
                   const faults::FaultSpec& fault);

}  // namespace sramlp::core
