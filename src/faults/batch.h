// Word-parallel multi-fault campaign batching.
//
// A single-fault campaign pays one functional + one low-power March session
// per fault.  Most library faults never interact: their behaviour is
// confined to their own victim cell, so many of them can ride in ONE
// session pair as long as nothing couples them.  This header owns the two
// pieces that make that safe:
//
//   * plan_batches — partitions a fault list into batches whose members are
//     provably independent, plus a per-fault fallback list for everything
//     that is not.  The rules (conservative by design):
//       - victim cells within a batch are pairwise disjoint: every fault's
//         observable misbehaviour stays on its own cell;
//       - dynamic dRDF<w;r> faults batch too, but only with each other:
//         their sensitisation consumes the global write-then-read history,
//         which is keyed purely on operation coordinates (write_result
//         records the cell; read_result and on_idle clear the pair), and
//         victim-disjoint co-members only ever alter operation values on
//         their own cells — including coupling strikes, which land through
//         force() and never touch write_result — so the history sequence
//         every member sees is exactly the per-fault one.  Segregating
//         them keeps the every-row hook cost (relevant_rows == nullopt)
//         off the word-parallel batches;
//       - a coupling fault whose aggressor CELL is any other fault's victim
//         cell falls back: that other fault could corrupt the value CFst
//         samples or create/suppress the transitions CFin/CFid trigger on.
//         Cell granularity is exact — a victim that merely shares the
//         aggressor's row touches a different cell and stays independent
//         (hook delivery is row-granular via relevant_rows, but the rows a
//         batch claims are the union over members, so widening a batch
//         never hides a row);
//     Batching additionally requires the Fig. 7 row-transition restore:
//     with it disabled, faulty swaps copy whole rows of (per-fault
//     different) data around and independence is gone — callers must run
//     per-fault instead (CampaignRunner enforces this).
//
//   * BatchFaultSet — the FaultSet of one batch, keeping per-fault
//     identity: it listens on the on_read_mismatch attribution channel,
//     mapping each mismatched cell back to the batch member owning it.  After a run, mismatches_of(i) is exactly the
//     mismatch count the per-fault path would have measured for member i
//     (regression-tested bit-identical).
#pragma once

#include <cstdint>
#include <vector>

#include "faults/models.h"

namespace sramlp::faults {

/// Outcome of partitioning a fault list for batched execution.  Indices
/// refer to the input list; every input index appears exactly once, either
/// in one batch or in the fallback list.
struct BatchPlan {
  /// Victim-disjoint batches; each runs as one multi-fault session pair.
  std::vector<std::vector<std::size_t>> batches;
  /// Faults that must run through the single-fault path.
  std::vector<std::size_t> fallback;

  /// Session pairs a campaign will run under this plan.
  std::size_t session_pairs() const { return batches.size() + fallback.size(); }
};

/// Partition @p specs under the independence rules above (greedy,
/// first-fit, deterministic).
BatchPlan plan_batches(const std::vector<FaultSpec>& specs);

/// Multi-fault set: one victim-disjoint batch behind the single
/// sram::CellFaultModel interface, with per-fault detection attribution.
class BatchFaultSet final : public FaultSet {
 public:
  /// @p specs must have pairwise distinct victim cells (plan_batches
  /// guarantees this; enforced here).
  explicit BatchFaultSet(std::vector<FaultSpec> specs);

  std::size_t size() const { return victims_.size(); }

  /// Read-cycle mismatches attributed to batch member @p i so far — the
  /// number the per-fault path's SessionResult::mismatches would show.
  std::uint64_t mismatches_of(std::size_t i) const { return counts_.at(i); }

  /// Mismatches at cells no member owns.  Always zero when the batch
  /// invariants hold; a nonzero value means members interacted (a
  /// partitioning bug), which the parity tests assert against.
  std::uint64_t unattributed() const { return unattributed_; }

  /// Clear attribution counters and the set's dynamic state.
  void reset_state();

  void on_read_mismatch(sram::CellCoord cell) override;

 private:
  std::vector<sram::CellCoord> victims_;   ///< victims_[i] = member i's cell
  std::vector<std::uint64_t> counts_;      ///< parallel to victims_
  std::uint64_t unattributed_ = 0;
};

}  // namespace sramlp::faults
