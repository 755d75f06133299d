// SweepRunner — the batched grid layer over the execution engine.
//
// The paper's headline artefacts (Table 1, Figs. 4-7) and the ROADMAP's
// scale targets are all grids: geometry x background x algorithm, each
// point reduced to a PrrComparison.  SweepRunner owns that shape:
//
//   * it enumerates the grid deterministically (algorithm-fastest order;
//     results[i] always describes grid point i, whatever the thread
//     count — threads = 1 IS the serial reference);
//   * it fans the points over engine::parallel_for, one independent
//     session pair per point;
//   * it routes every point to the cheapest backend that can model it:
//     the closed-form analytic backend when the Fig. 7 restore is
//     enabled, the bitsliced cycle-accurate engine otherwise.  Callers can
//     force either backend (benches print both).
//
// Sweep points are fault-free, so routing is decided per point from the
// configuration alone.  Fault campaigns (CampaignRunner) run their
// sessions on the cycle-accurate engine directly: the analytic backend
// cannot model faults.
#pragma once

#include <cstddef>
#include <vector>

#include "core/session.h"
#include "march/test.h"
#include "sram/background.h"
#include "sram/geometry.h"

namespace sramlp::core {

/// Which executor evaluates a sweep point.
enum class BackendChoice {
  kAuto,           ///< cheapest backend that can model the point
  kAnalytic,       ///< force the §5 closed form (fault-free only)
  kCycleAccurate,  ///< force the bitsliced cycle-accurate engine
};

/// A sweep grid: the cross product of geometries x backgrounds x
/// algorithms, all sharing one technology and schedule configuration.
/// Every point is run in both operating modes and reduced to a PRR.
struct SweepGrid {
  std::vector<sram::Geometry> geometries;
  std::vector<sram::DataBackground> backgrounds = {
      sram::DataBackground::solid0()};
  std::vector<march::MarchTest> algorithms;
  /// Session template: geometry / background / mode fields are overridden
  /// per point, everything else (tech, restore policy, duty, ...) is
  /// shared by the whole grid.
  SessionConfig base;

  /// Number of grid points.
  std::size_t size() const {
    return geometries.size() * backgrounds.size() * algorithms.size();
  }

  /// The session configuration of grid point @p index (mode unset).
  /// Index order: geometry-major, then background, algorithm fastest.
  SessionConfig config_at(std::size_t index) const;

  /// Decompose a flat index into (geometry, background, algorithm).
  void split(std::size_t index, std::size_t* geometry,
             std::size_t* background, std::size_t* algorithm) const;
};

/// One evaluated grid point.
struct SweepPointResult {
  std::size_t index = 0;        ///< flat grid index
  std::size_t geometry = 0;     ///< index into grid.geometries
  std::size_t background = 0;   ///< index into grid.backgrounds
  std::size_t algorithm = 0;    ///< index into grid.algorithms
  BackendChoice backend = BackendChoice::kAnalytic;  ///< executor used
  PrrComparison prr;
};

class SweepRunner {
 public:
  struct Options {
    /// Worker threads; 0 = one per hardware thread, 1 = serial.
    unsigned threads = 0;
    /// Backend policy for every point.
    BackendChoice backend = BackendChoice::kAuto;
  };

  SweepRunner() = default;
  explicit SweepRunner(const Options& options) : options_(options) {}

  /// Evaluate the whole grid; results[i] is grid point i.
  std::vector<SweepPointResult> run(const SweepGrid& grid) const;

  /// Evaluate an arbitrary subset of grid points by flat index; the
  /// returned vector parallels @p indices.  Every point goes through
  /// exactly the arithmetic run() applies to its slot, so a partition of
  /// the index space evaluated shard by shard (the dist/ worker's entry
  /// point) reassembles bit-identical to one run() call.
  std::vector<SweepPointResult> run_indices(
      const SweepGrid& grid, const std::vector<std::size_t>& indices) const;

  /// The routing rule: where kAuto sends a grid point.
  static BackendChoice route(const SessionConfig& config);

 private:
  Options options_;
};

}  // namespace sramlp::core
