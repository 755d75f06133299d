// The cycle-accurate backend: drives a caller-owned sram::SramArray from a
// CommandStream.  This is the reference executor — full fault support,
// per-source energy metering, and the bit-line decay physics.
//
// Whole-row batches: when the stream can describe the rest of a word line
// as one StreamRun (word-line-after-word-line orders), the backend hands
// the whole row to SramArray::execute_run, which executes it in one tight
// loop — bit-identical results, a fraction of the per-step dispatch cost.
// Any position the stream cannot batch (non-WLAWL orders, pauses) falls
// back to the per-step path transparently: SramArray::cycle() runs the
// same executor on a one-address, one-operation run.
#pragma once

#include "engine/backend.h"

namespace sramlp::engine {

class CycleAccurateBackend final : public ExecutionBackend {
 public:
  /// @param array borrowed; the caller keeps ownership (and can inspect
  ///   cell contents after the run).  Meters are reset when run() starts.
  /// @param batch_runs pull whole-row StreamRuns when available; disable
  ///   to force the per-step path (the batch-assembly parity tests do).
  explicit CycleAccurateBackend(sram::SramArray& array, bool batch_runs = true)
      : array_(&array), batch_runs_(batch_runs) {}

  const char* name() const override { return "cycle-accurate"; }
  bool supports_faults() const override { return true; }

  ExecutionResult run(CommandStream& stream) override;

  sram::SramArray& array() { return *array_; }

 private:
  sram::SramArray* array_;
  bool batch_runs_;
};

}  // namespace sramlp::engine
