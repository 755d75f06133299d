// The cycle-level command vocabulary shared by every execution path.
//
// One CycleCommand is everything the array (or a gate-level controller, or
// an analytic estimator) needs to know about one clock cycle: the address,
// the operation, the scan direction (which neighbour to pre-charge in the
// low-power test mode) and whether this cycle is the one-cycle functional
// restore at a row hand-over (Fig. 7).  The engine::CommandStream resolves
// all of those decisions; backends only consume them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sram/background.h"

namespace sramlp::sram {

/// Operating mode (paper §4).
enum class Mode {
  kFunctional,    ///< all pre-charge circuits always on
  kLowPowerTest,  ///< pre-charge restricted to selected + following column
};

/// Scan direction within a row (which neighbour the controller pre-charges).
enum class Scan { kAscending, kDescending };

/// One clock cycle of work, as issued by the test controller.
struct CycleCommand {
  std::size_t row = 0;
  std::size_t col_group = 0;
  bool is_read = true;
  bool value = false;  ///< logical data bit (write data / read expectation)
  /// Data background mapping logical bits to physical cell values
  /// (physical = value XOR background(row, col)); defaults to solid 0,
  /// under which logical and physical coincide.
  DataBackground background;
  Scan scan = Scan::kAscending;
  /// Force functional pre-charge for this cycle (row-transition restore).
  bool restore_row_transition = false;
};

/// Outcome of one cycle.
struct CycleResult {
  bool read_value = false;   ///< sensed value (reads; last bit for words)
  bool mismatch = false;     ///< any read bit differed from the expectation
  /// Cell column of the first mismatched bit (valid when mismatch is set);
  /// with the row it identifies the mismatching cell for fault attribution.
  std::size_t first_bad_col = 0;
  std::uint32_t faulty_swaps = 0;  ///< cells flipped by bit-line overpowering
};

/// One operation of a run (a March operation reduced to array terms).
struct RunOp {
  bool is_read = true;
  bool value = false;  ///< logical data bit
};

/// A whole-row batch of cycles: every column group of one word line, in
/// scan order, executing the same operation list per address — exactly the
/// cycles a March element spends on one row.  The issuing layer (the
/// engine's CommandStream) still owns all scheduling decisions; a run just
/// hands the array enough structure to execute the row in one tight loop
/// (meter accumulators held in registers, cells touched word-at-a-time)
/// instead of one CycleCommand at a time.  Results are bit-identical to
/// issuing the equivalent CycleCommands.
struct RunCommand {
  std::size_t row = 0;
  std::size_t first_group = 0;   ///< column group of the first address
  std::size_t group_count = 0;   ///< addresses covered (same row)
  bool descending = false;       ///< walk groups downward from first_group
  const RunOp* ops = nullptr;    ///< operations applied at every address
  std::size_t op_count = 0;
  DataBackground background;
  Scan scan = Scan::kAscending;
  /// Issue the one-cycle functional restore (Fig. 7) on the last
  /// operation of the last address of the run.
  bool restore_last = false;
};

/// Everything a run reports back (detections are capped; the engine's
/// backend translates them into its Detection records).
struct RunResult {
  static constexpr std::size_t kDetectionCap = 16;
  std::uint64_t mismatches = 0;        ///< read cycles with any bad bit
  std::uint32_t faulty_swaps = 0;
  std::size_t detection_count = 0;     ///< entries valid in detections[]
  /// Sensed value of the run's last read (last bit for words).
  bool last_read_value = false;
  struct RunDetection {
    std::size_t op = 0;
    std::size_t group = 0;
    /// Cell column of the first mismatched bit of the read cycle; with the
    /// run's row it names the exact cell, so campaign layers can attribute
    /// a detection to the fault owning that cell.
    std::size_t col = 0;
  } detections[kDetectionCap] = {};
};

}  // namespace sramlp::sram
