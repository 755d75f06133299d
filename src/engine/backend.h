// ExecutionBackend — what executes a CommandStream.
//
// The engine decouples *what the test controller issues* (the stream) from
// *what runs it*.  Two backends ship today:
//
//   * CycleAccurateBackend — the per-cell SramArray simulator; supports
//     fault injection and full per-source energy accounting;
//   * AnalyticBackend — the paper's §5 closed-form model; fault-free only,
//     O(1) per run, for geometry/background/algorithm sweeps.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "engine/command_stream.h"
#include "power/meter.h"
#include "power/trace.h"
#include "sram/array.h"

namespace sramlp::engine {

/// How many mismatch locations a run records before it stops collecting
/// (enough to localise a fault without unbounded growth on gross failures).
inline constexpr std::size_t kMaxFirstDetections = 16;

/// Location of a detected mismatch (the first kMaxFirstDetections are
/// recorded).
struct Detection {
  std::size_t element = 0;
  std::size_t op = 0;
  std::size_t row = 0;
  std::size_t col_group = 0;
  /// Cell column of the first mismatched bit of the read cycle: (row, col)
  /// names the exact cell, which is what multi-fault campaign batching
  /// needs to attribute a detection to one injected fault.
  std::size_t col = 0;
};

/// Everything a backend measures over one stream execution.
struct ExecutionResult {
  std::uint64_t cycles = 0;
  double supply_energy_j = 0.0;
  double energy_per_cycle_j = 0.0;
  power::EnergyMeter meter;  ///< per-source accounting (cycle-accurate only)
  sram::ArrayStats stats;    ///< run counters (cycle-accurate only)
  std::uint64_t mismatches = 0;
  std::vector<Detection> first_detections;
  /// Time-resolved accounting; present iff the stream's options requested
  /// a trace and the backend supports tracing (both shipped backends do:
  /// the cycle-accurate one measures, the analytic one emits its
  /// closed-form per-element expectation).
  std::optional<power::TraceSummary> trace;
  bool detected() const { return mismatches > 0; }
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Human-readable backend identifier (reports, benches).
  virtual const char* name() const = 0;

  /// True when the backend honours an attached fault model.  Callers must
  /// not route faulty runs through backends that would silently ignore the
  /// faults (TestSession enforces this).
  virtual bool supports_faults() const = 0;

  /// Execute @p stream from its current position to exhaustion.
  virtual ExecutionResult run(CommandStream& stream) = 0;
};

}  // namespace sramlp::engine
