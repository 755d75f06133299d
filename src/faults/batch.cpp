#include "faults/batch.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace sramlp::faults {

namespace {

/// True when the model's dynamic sensitisation consumes the global
/// write-then-read operation history (FaultSet::relevant_rows returns
/// nullopt, hooking every row).  That history is keyed purely on operation
/// COORDINATES — write_result records the cell, read_result/on_idle clear
/// the pair — and other batch members only ever change operation VALUES on
/// their own (disjoint) victim cells, never the operation sequence, so
/// such faults batch safely.  They get batches of their own only so the
/// every-row hooking cost stays off the word-parallel batches.
bool needs_global_history(FaultKind kind) {
  return kind == FaultKind::kDynamicReadDestructive;
}

}  // namespace

BatchPlan plan_batches(const std::vector<FaultSpec>& specs) {
  BatchPlan plan;

  // Per-batch victim-cell bookkeeping for the greedy first-fit pass, plus
  // each batch's history class (see needs_global_history).
  std::vector<std::vector<sram::CellCoord>> batch_victims;
  std::vector<bool> batch_global;

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const FaultSpec& f = specs[i];
    if (is_coupling(f.kind)) {
      // Cell-level aggressor analysis: the only way another fault can
      // perturb this coupling fault is by disturbing its aggressor CELL —
      // corrupting the value CFst samples, or creating/suppressing the
      // write transitions CFin/CFid trigger on (including through a forced
      // strike, which lands on the other fault's victim cell).  A fault
      // whose victim merely shares the aggressor's ROW touches a different
      // cell and stays independent, so it no longer forces a fallback —
      // the rule that used to send most coupling faults per-fault, since
      // column-neighbour aggressors share their victim's row by
      // construction.  (Hook delivery is unaffected: the batch's
      // relevant_rows is the union over members, so widening a batch never
      // hides a row.)
      bool collides = false;
      for (std::size_t j = 0; j < specs.size(); ++j) {
        if (j != i && specs[j].victim == f.aggressor) {
          collides = true;
          break;
        }
      }
      if (collides) {
        plan.fallback.push_back(i);
        continue;
      }
    }
    // First batch of the fault's history class whose victims miss this
    // fault's victim cell.
    const bool global = needs_global_history(f.kind);
    bool placed = false;
    for (std::size_t b = 0; b < plan.batches.size() && !placed; ++b) {
      if (batch_global[b] != global) continue;
      const auto& victims = batch_victims[b];
      if (std::find(victims.begin(), victims.end(), f.victim) ==
          victims.end()) {
        plan.batches[b].push_back(i);
        batch_victims[b].push_back(f.victim);
        placed = true;
      }
    }
    if (!placed) {
      plan.batches.push_back({i});
      batch_victims.push_back({f.victim});
      batch_global.push_back(global);
    }
  }
  return plan;
}

BatchFaultSet::BatchFaultSet(std::vector<FaultSpec> specs)
    : FaultSet(std::move(specs)) {
  victims_.reserve(FaultSet::specs().size());
  for (const FaultSpec& f : FaultSet::specs()) {
    for (const sram::CellCoord& v : victims_)
      SRAMLP_REQUIRE(!(v == f.victim),
                     "batched faults must have pairwise distinct victims");
    victims_.push_back(f.victim);
  }
  counts_.assign(victims_.size(), 0);
}

void BatchFaultSet::reset_state() {
  FaultSet::reset_state();
  counts_.assign(counts_.size(), 0);
  unattributed_ = 0;
}

void BatchFaultSet::on_read_mismatch(sram::CellCoord cell) {
  for (std::size_t i = 0; i < victims_.size(); ++i) {
    if (victims_[i] == cell) {
      ++counts_[i];
      return;
    }
  }
  ++unattributed_;
}

}  // namespace sramlp::faults
