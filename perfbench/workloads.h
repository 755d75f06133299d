// Seeded job streams for the three benchmark workloads.
//
// Every job the daemon sees comes from a JobStream: the same (workload,
// seed) pair yields the same jobs in the same order.  The streams:
//
//   sweep_analytic   fault-free sweep grids (Fig. 7 restore on, so every
//                    point routes to the analytic backend) over 64²–1024²,
//                    non-square and word-width 4/8 arrays; a quarter of the
//                    jobs resubmit the previous job whole, a quarter overlap
//                    it by half their points, the rest are fresh;
//   campaign_faults  fault campaigns on 128²–256² arrays with March C-,
//                    March SS and MATS+, each over a seeded subset of
//                    faults::standard_fault_library that covers every kind;
//   schedule_search  peak-constrained schedule searches of March C-, SS, SR
//                    and G at 128²–512², budget 0.90–0.99x the base peak.
//
// Campaign and search jobs cost 10–100x more at their largest geometry
// than at their smallest, so those streams are stratified: each block of
// block_size() jobs holds every (geometry, test) stratum once, in a seeded
// order.  A run that measures whole blocks sees the same mix whatever the
// seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "dist/job.h"
#include "util/rng.h"

namespace perfbench {

enum class Workload { kSweepAnalytic, kCampaignFaults, kScheduleSearch };

/// Parse "sweep_analytic" | "campaign_faults" | "schedule_search".
Workload workload_from_name(const std::string& name);
std::string to_name(Workload workload);

/// How a generated job relates to the jobs before it.
enum class Reuse {
  kFresh,     ///< nothing shared with earlier jobs
  kResubmit,  ///< the previous job, whole (sweep_analytic only)
  kOverlap,   ///< shares half its points with the previous job
};

std::string to_name(Reuse reuse);

struct GeneratedJob {
  sramlp::dist::JobSpec spec;
  Reuse reuse = Reuse::kFresh;
  std::string label;  ///< stratum / shape summary for the mix report
  /// schedule_search only: the budget as a share of the base schedule's
  /// peak, and the base schedule's cycle count (the ratio's denominator).
  double budget_scale = 0.0;
  std::uint64_t base_cycles = 0;
};

class JobStream {
 public:
  JobStream(Workload workload, std::uint64_t seed);

  GeneratedJob next();

  /// Jobs per stratified block; 1 for the unstratified sweep stream.
  std::size_t block_size() const;

 private:
  GeneratedJob next_sweep();
  GeneratedJob next_campaign();
  GeneratedJob next_search();
  /// Stratum of the next campaign/search job (refills the shuffled block).
  std::size_t next_stratum(std::size_t strata);

  Workload workload_;
  sramlp::util::Rng rng_;
  std::vector<std::size_t> block_;  ///< remaining strata of this block
  bool have_previous_ = false;
  sramlp::dist::JobSpec previous_;  ///< sweep reuse source
};

/// A small job of the workload's kind whose inputs no stream produces
/// (16x32 array): the set-up phase's warm-up round trip.
sramlp::dist::JobSpec warmup_job(Workload workload);

/// The budget-feasibility tuning shared by generated search jobs and the
/// reference searches: peak window 8 x words, idle quantum words / 2, at
/// most 256 quanta, 24 restarts verifying one winner each, other search
/// knobs at their defaults.
sramlp::dist::JobSpec search_job(const sramlp::march::MarchTest& base,
                                 const sramlp::sram::Geometry& geometry,
                                 double budget_scale, std::uint64_t seed,
                                 std::uint64_t* base_cycles);

}  // namespace perfbench
