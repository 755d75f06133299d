// The cycle-accurate backend: drives a caller-owned sram::SramArray from a
// CommandStream.  This is the reference executor — full fault support,
// per-source energy metering, and the bit-line decay physics.
//
// A session is runs and idle blocks: the stream describes every address
// boundary outside a pause as a StreamRun (the rest of the row on word-
// line-after-word-line orders, one address with the element's whole
// operation list on any other), and the backend hands each to
// SramArray::execute_run, which executes it in one tight loop.  Pause
// elements become SramArray::idle() blocks.
#pragma once

#include "engine/backend.h"

namespace sramlp::engine {

class CycleAccurateBackend final : public ExecutionBackend {
 public:
  /// @param array borrowed; the caller keeps ownership (and can inspect
  ///   cell contents after the run).  Meters are reset when run() starts.
  explicit CycleAccurateBackend(sram::SramArray& array) : array_(&array) {}

  const char* name() const override { return "cycle-accurate"; }
  bool supports_faults() const override { return true; }

  /// Execute @p stream from its position, which must be an address
  /// boundary (a fresh or reset stream is).
  ExecutionResult run(CommandStream& stream) override;

  sram::SramArray& array() { return *array_; }

 private:
  sram::SramArray* array_;
};

}  // namespace sramlp::engine
