#include "core/sweep.h"

#include "engine/parallel.h"
#include "util/error.h"

namespace sramlp::core {

void SweepGrid::split(std::size_t index, std::size_t* geometry,
                      std::size_t* background, std::size_t* algorithm) const {
  SRAMLP_REQUIRE(index < size(), "sweep index out of range");
  const std::size_t per_background = algorithms.size();
  const std::size_t per_geometry = backgrounds.size() * per_background;
  *geometry = index / per_geometry;
  *background = (index % per_geometry) / per_background;
  *algorithm = index % per_background;
}

SessionConfig SweepGrid::config_at(std::size_t index) const {
  std::size_t geometry = 0, background = 0, algorithm = 0;
  split(index, &geometry, &background, &algorithm);
  SessionConfig config = base;
  config.geometry = geometries[geometry];
  config.background = backgrounds[background];
  return config;
}

BackendChoice SweepRunner::route(const SessionConfig& config) {
  // The closed form models the paper's schedule only: a disabled Fig. 7
  // restore changes the energy (and triggers swaps) in ways §5 does not
  // cover.
  return config.row_transition_restore ? BackendChoice::kAnalytic
                                       : BackendChoice::kCycleAccurate;
}

namespace {

/// The single-point arithmetic shared by run() and run_indices(): whoever
/// computes grid point @p index — whatever thread, whatever process —
/// performs exactly these operations.
SweepPointResult evaluate_grid_point(const SweepGrid& grid, std::size_t index,
                                     BackendChoice requested) {
  SweepPointResult point;
  point.index = index;
  grid.split(index, &point.geometry, &point.background, &point.algorithm);
  const SessionConfig config = grid.config_at(index);
  // Resolve the backend once; the recorded choice IS the executed one.
  point.backend = requested == BackendChoice::kAuto
                      ? SweepRunner::route(config)
                      : requested;
  point.prr = point.backend == BackendChoice::kAnalytic
                  ? TestSession::compare_modes_analytic(
                        config, grid.algorithms[point.algorithm])
                  : TestSession::compare_modes(
                        config, grid.algorithms[point.algorithm]);
  return point;
}

}  // namespace

std::vector<SweepPointResult> SweepRunner::run(const SweepGrid& grid) const {
  SRAMLP_REQUIRE(!grid.geometries.empty() && !grid.backgrounds.empty() &&
                     !grid.algorithms.empty(),
                 "sweep grid has an empty axis");
  std::vector<SweepPointResult> results(grid.size());
  engine::parallel_for(grid.size(), options_.threads, [&](std::size_t i) {
    results[i] = evaluate_grid_point(grid, i, options_.backend);
  });
  return results;
}

std::vector<SweepPointResult> SweepRunner::run_indices(
    const SweepGrid& grid, const std::vector<std::size_t>& indices) const {
  SRAMLP_REQUIRE(!grid.geometries.empty() && !grid.backgrounds.empty() &&
                     !grid.algorithms.empty(),
                 "sweep grid has an empty axis");
  std::vector<SweepPointResult> results(indices.size());
  engine::parallel_for(indices.size(), options_.threads, [&](std::size_t i) {
    results[i] = evaluate_grid_point(grid, indices[i], options_.backend);
  });
  return results;
}

}  // namespace sramlp::core
