// Fault campaigns execute every session — per-fault pairs, batched pairs
// and detects_fault — through run_faulty_session below: one TestSession
// with the fault model attached, on the cycle-accurate engine (the only
// backend that models faults), restricted to the session's row cone
// (campaign_row_mask).
#include "core/fault_campaign.h"

#include <algorithm>
#include <utility>

#include "engine/cycle_accurate_backend.h"
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

/// The row cone of a campaign session: one flag per array row, set for the
/// rows whose runs can change a verdict or a mismatch count of @p faults
/// walked in @p order.  The backend skips every other row's runs.
///
/// With the Fig. 7 restore on, the cone is the rows of the model's
/// declared cells (victims and coupling aggressors) plus the rows of the
/// order's first and last address.  A campaign reads only mismatches, and
/// the cone is sound because nothing outside it can reach one:
///  * A row without a declared cell holds no fault and is written only by
///    its own runs (coupling, RES and retention strikes land on victims),
///    so it never mismatches, and no fault samples it (CFst reads its
///    aggressor, which is declared).
///  * Bit lines carry nothing across rows.  A run ends with the restore
///    whenever the next address in test order is on another row or the
///    next element is a pause, so every bit line is pre-charged before the
///    next row opens and before every idle block.  The only runs that end
///    without it continue on the same row in the next element, and an
///    element starts and ends on the order's first or last address, so
///    those are edge-row runs, which are in the cone.  Functional mode
///    pre-charges every bit line each cycle, and orders other than
///    word-line-after-word-line only run in functional mode (§4 fallback).
///  * Pause blocks always execute, so data-retention faults see every
///    idle cycle.
///  * dRDF<w;r> reads one bit of global history: whether the previous
///    operation wrote the same cell.  Inside a run the cone executes the
///    whole array's operations in the same order.  At the start of a run
///    the previous operation is the last one of the previous executed run,
///    at another address, unless both sit on one address at an element
///    boundary: the order's first or last address.  Keeping both edge rows
///    keeps those write-then-read pairs exactly where the whole array has
///    them.  MATS+ on a 128x128 array detects dRDF at (127,127) through
///    its ⇑(r0,w1);⇓(r1,w0) boundary and nowhere else; a cone without row
///    127 moves that boundary to the last cone row's last cell and reports
///    a dRDF at (64,127) the whole array never sees.
///
/// With the restore off, faulty swaps copy whole rows of data at row
/// entry, so any row can corrupt any other: the cone is every row.
std::vector<bool> campaign_row_mask(const SessionConfig& config,
                                    const march::AddressOrder& order,
                                    const sram::CellFaultModel& faults) {
  if (!config.row_transition_restore)
    return std::vector<bool>(config.geometry.rows, true);
  std::vector<bool> mask(config.geometry.rows, false);
  for (const sram::CellCoord& cell : faults.declared_cells())
    mask[cell.row] = true;
  mask[order.at(0, march::Direction::kUp).row] = true;
  mask[order.at(order.size() - 1, march::Direction::kUp).row] = true;
  return mask;
}

/// A campaign session's result and the rows its cone simulated.
struct ConeSession {
  SessionResult result;
  std::size_t rows = 0;
};

/// One run of @p test in config.mode with @p faults attached to a fresh
/// array, on the session's row cone.
ConeSession run_faulty_session(const SessionConfig& config,
                               const march::MarchTest& test,
                               sram::CellFaultModel& faults) {
  TestSession session(config);
  session.attach_fault_model(&faults);
  std::vector<bool> mask = campaign_row_mask(config, session.order(), faults);
  const auto rows =
      static_cast<std::size_t>(std::count(mask.begin(), mask.end(), true));
  engine::CycleAccurateBackend backend(session.array(), std::move(mask));
  return {session.run(test, backend), rows};
}

}  // namespace

bool detects_fault(const SessionConfig& config, const march::MarchTest& test,
                   const faults::FaultSpec& fault) {
  faults::FaultSet set({fault});
  return run_faulty_session(config, test, set).result.detected();
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
    std::size_t rows = 0;
    CampaignEntry entry;
    entry.spec = faults[i];
    for (const sram::Mode mode :
         {sram::Mode::kFunctional, sram::Mode::kLowPowerTest}) {
      SessionConfig cfg = config;
      cfg.mode = mode;
      faults::FaultSet set({faults[i]});
      const ConeSession session = run_faulty_session(cfg, test, set);
      const SessionResult& result = session.result;
      rows += session.rows;
      if (mode == sram::Mode::kFunctional) {
        entry.detected_functional = result.detected();
        entry.mismatches_functional = result.mismatches;
      } else {
        entry.detected_low_power = result.detected();
        entry.mismatches_low_power = result.mismatches;
      }
    }
    report.entries[i] = entry;
    return rows;
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
    std::size_t rows = 0;
    for (const sram::Mode mode :
         {sram::Mode::kFunctional, sram::Mode::kLowPowerTest}) {
      SessionConfig cfg = config;
      cfg.mode = mode;
      faults::BatchFaultSet set(specs);  // fresh model per mode run
      rows += run_faulty_session(cfg, test, set).rows;
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
    return rows;
  };

  // Work items: batches first, then the per-fault fallbacks.  Every fault
  // index belongs to exactly one item, so entries never race.
  const std::size_t items = plan.batches.size() + plan.fallback.size();
  std::vector<std::size_t> item_rows(items, 0);
  engine::parallel_for(items, options_.threads, [&](std::size_t i) {
    item_rows[i] = i < plan.batches.size()
                       ? run_batch(plan.batches[i])
                       : run_single(plan.fallback[i - plan.batches.size()]);
  });
  report.session_pairs = items;
  report.batch_sessions = plan.batches.size();
  for (const std::size_t rows : item_rows) report.rows_simulated += rows;
  report.array_rows = 2 * items * config.geometry.rows;
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
