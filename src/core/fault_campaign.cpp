// Fault campaigns execute every session — per-fault pairs, batched pairs
// and detects_fault — through run_faulty_session below: one TestSession
// with the fault model attached, on the cycle-accurate engine (the only
// backend that models faults).
#include "core/fault_campaign.h"

#include "engine/parallel.h"
#include "faults/batch.h"
#include "util/error.h"

namespace sramlp::core {

std::size_t CampaignReport::detected_functional() const {
  std::size_t n = 0;
  for (const auto& e : entries)
    if (e.detected_functional) ++n;
  return n;
}

std::size_t CampaignReport::detected_low_power() const {
  std::size_t n = 0;
  for (const auto& e : entries)
    if (e.detected_low_power) ++n;
  return n;
}

double CampaignReport::coverage_functional() const {
  return entries.empty() ? 0.0
                         : static_cast<double>(detected_functional()) /
                               static_cast<double>(entries.size());
}

double CampaignReport::coverage_low_power() const {
  return entries.empty() ? 0.0
                         : static_cast<double>(detected_low_power()) /
                               static_cast<double>(entries.size());
}

bool CampaignReport::modes_agree() const {
  for (const auto& e : entries)
    if (e.detected_functional != e.detected_low_power) return false;
  return true;
}

namespace {

/// One run of @p test in config.mode with @p faults attached to a fresh
/// array.
SessionResult run_faulty_session(const SessionConfig& config,
                                 const march::MarchTest& test,
                                 sram::CellFaultModel* faults) {
  TestSession session(config);
  session.attach_fault_model(faults);
  return session.run(test);
}

}  // namespace

bool detects_fault(const SessionConfig& config, const march::MarchTest& test,
                   const faults::FaultSpec& fault) {
  faults::FaultSet set({fault});
  return run_faulty_session(config, test, &set).detected();
}

CampaignReport CampaignRunner::run(
    const SessionConfig& config, const march::MarchTest& test,
    const std::vector<faults::FaultSpec>& faults) const {
  CampaignReport report;
  report.algorithm = test.name();
  report.entries.resize(faults.size());

  // One fresh session pair per fault; entry i == faults[i] regardless of
  // which worker executes it.  A fresh fault model per mode run:
  // accumulated fault state (RES stress, dynamic-fault history) must not
  // leak between verdicts.
  const auto run_single = [&](std::size_t i) {
    CampaignEntry entry;
    entry.spec = faults[i];
    for (const sram::Mode mode :
         {sram::Mode::kFunctional, sram::Mode::kLowPowerTest}) {
      SessionConfig cfg = config;
      cfg.mode = mode;
      faults::FaultSet set({faults[i]});
      const SessionResult result = run_faulty_session(cfg, test, &set);
      if (mode == sram::Mode::kFunctional) {
        entry.detected_functional = result.detected();
        entry.mismatches_functional = result.mismatches;
      } else {
        entry.detected_low_power = result.detected();
        entry.mismatches_low_power = result.mismatches;
      }
    }
    report.entries[i] = entry;
  };

  // Batching requires the Fig. 7 restore: with it disabled, faulty swaps
  // copy whole rows of per-fault-dependent data around and member
  // independence is gone.
  faults::BatchPlan plan;
  if (options_.batched && config.row_transition_restore) {
    plan = faults::plan_batches(faults);
  } else {
    plan.fallback.resize(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) plan.fallback[i] = i;
  }

  // One multi-fault session pair per batch.  Detections are attributed per
  // member through the on_read_mismatch channel, so entry verdicts and
  // mismatch counts come out exactly as the per-fault path computes them.
  const auto run_batch = [&](const std::vector<std::size_t>& members) {
    std::vector<faults::FaultSpec> specs;
    specs.reserve(members.size());
    for (const std::size_t m : members) specs.push_back(faults[m]);
    for (const sram::Mode mode :
         {sram::Mode::kFunctional, sram::Mode::kLowPowerTest}) {
      SessionConfig cfg = config;
      cfg.mode = mode;
      faults::BatchFaultSet set(specs);  // fresh model per mode run
      run_faulty_session(cfg, test, &set);
      // A mismatch no member owns means the batch-independence invariant
      // broke (a partitioning bug): fail loudly instead of silently
      // reporting wrong verdicts.
      SRAMLP_REQUIRE(set.unattributed() == 0,
                     "batched campaign saw mismatches at cells no batch "
                     "member owns");
      for (std::size_t j = 0; j < members.size(); ++j) {
        CampaignEntry& entry = report.entries[members[j]];
        entry.spec = faults[members[j]];
        const std::uint64_t mismatches = set.mismatches_of(j);
        if (mode == sram::Mode::kFunctional) {
          entry.detected_functional = mismatches > 0;
          entry.mismatches_functional = mismatches;
        } else {
          entry.detected_low_power = mismatches > 0;
          entry.mismatches_low_power = mismatches;
        }
      }
    }
  };

  // Work items: batches first, then the per-fault fallbacks.  Every fault
  // index belongs to exactly one item, so entries never race.
  const std::size_t items = plan.batches.size() + plan.fallback.size();
  engine::parallel_for(items, options_.threads, [&](std::size_t i) {
    if (i < plan.batches.size())
      run_batch(plan.batches[i]);
    else
      run_single(plan.fallback[i - plan.batches.size()]);
  });
  report.session_pairs = items;
  report.batch_sessions = plan.batches.size();
  return report;
}

std::vector<CampaignEntry> CampaignRunner::run_subset(
    const SessionConfig& config, const march::MarchTest& test,
    const std::vector<faults::FaultSpec>& faults,
    const std::vector<std::size_t>& indices) const {
  std::vector<faults::FaultSpec> subset;
  subset.reserve(indices.size());
  for (const std::size_t i : indices) {
    SRAMLP_REQUIRE(i < faults.size(), "campaign subset index out of range");
    subset.push_back(faults[i]);
  }
  // Per-entry results are execution-shape independent (the batcher's
  // regression-tested contract), so running the subset as its own
  // campaign yields exactly the entries run() computes for these slots.
  CampaignReport report = run(config, test, subset);
  return std::move(report.entries);
}

CampaignReport run_fault_campaign(
    const SessionConfig& config, const march::MarchTest& test,
    const std::vector<faults::FaultSpec>& faults) {
  return CampaignRunner().run(config, test, faults);
}

}  // namespace sramlp::core
