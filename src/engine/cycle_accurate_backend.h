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
//
// An optional row mask restricts a session to a cone of rows: runs on a
// row outside it are passed over without executing.  Only fault campaigns
// pass one (core/fault_campaign.cpp builds it and argues when it is sound).
#pragma once

#include <vector>

#include "engine/backend.h"

namespace sramlp::engine {

class CycleAccurateBackend final : public ExecutionBackend {
 public:
  /// @param array borrowed; the caller keeps ownership (and can inspect
  ///   cell contents after the run).  Meters are reset when run() starts.
  /// @param row_mask empty (every row runs) or one flag per array row: a
  ///   StreamRun on a row whose flag is clear is skipped with skip_run and
  ///   never reaches the array.  Pause idle blocks always execute.
  explicit CycleAccurateBackend(sram::SramArray& array,
                                std::vector<bool> row_mask = {});

  const char* name() const override { return "cycle-accurate"; }
  bool supports_faults() const override { return true; }

  /// Execute @p stream from its position, which must be an address
  /// boundary (a fresh or reset stream is).
  ExecutionResult run(CommandStream& stream) override;

  sram::SramArray& array() { return *array_; }

 private:
  sram::SramArray* array_;
  std::vector<bool> row_mask_;
};

}  // namespace sramlp::engine
