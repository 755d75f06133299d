// Tests of the batched sweep-grid layer: deterministic point ordering
// whatever the thread count, backend routing (analytic for restored
// points, cycle-accurate otherwise) and forced-backend agreement.
#include <gtest/gtest.h>

#include "core/sweep.h"
#include "march/algorithms.h"
#include "util/error.h"

namespace {

using namespace sramlp;
using core::BackendChoice;
using core::SessionConfig;
using core::SweepGrid;
using core::SweepRunner;

SweepGrid small_grid() {
  SweepGrid grid;
  grid.geometries = {{8, 16, 1}, {4, 32, 1}, {6, 24, 2}};
  grid.backgrounds = {sram::DataBackground::solid0(),
                      sram::DataBackground::checkerboard()};
  grid.algorithms = {march::algorithms::mats_plus(),
                     march::algorithms::march_c_minus()};
  return grid;
}

TEST(SweepGrid, IndexingRoundTrips) {
  const SweepGrid grid = small_grid();
  EXPECT_EQ(grid.size(), 3u * 2u * 2u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::size_t g = 0, b = 0, a = 0;
    grid.split(i, &g, &b, &a);
    EXPECT_EQ((g * grid.backgrounds.size() + b) * grid.algorithms.size() + a,
              i);
    const SessionConfig cfg = grid.config_at(i);
    EXPECT_EQ(cfg.geometry, grid.geometries[g]);
    EXPECT_EQ(cfg.background, grid.backgrounds[b]);
  }
  EXPECT_THROW(grid.config_at(grid.size()), Error);
}

TEST(SweepRunner, ParallelGridBitIdenticalToSerial) {
  const SweepGrid grid = small_grid();
  const auto serial = SweepRunner({1, BackendChoice::kAuto}).run(grid);
  const auto parallel = SweepRunner({4, BackendChoice::kAuto}).run(grid);
  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(serial[i].index, i);
    EXPECT_EQ(parallel[i].index, i);
    EXPECT_EQ(serial[i].algorithm, parallel[i].algorithm);
    EXPECT_EQ(serial[i].backend, parallel[i].backend);
    EXPECT_EQ(serial[i].prr.prr, parallel[i].prr.prr) << i;
    EXPECT_EQ(serial[i].prr.functional.supply_energy_j,
              parallel[i].prr.functional.supply_energy_j)
        << i;
    EXPECT_EQ(serial[i].prr.low_power.supply_energy_j,
              parallel[i].prr.low_power.supply_energy_j)
        << i;
  }
}

// run_indices is run()'s arithmetic applied to a subset: any partition of
// the index space, evaluated piecewise and reassembled, must be
// bit-identical to the whole-grid call — the property the distributed
// worker stands on.
TEST(SweepRunner, RunIndicesMatchesWholeGridSlots) {
  const SweepGrid grid = small_grid();
  const SweepRunner runner;
  const auto whole = runner.run(grid);
  // An awkward partition: strided pieces plus an out-of-order remainder.
  const std::vector<std::vector<std::size_t>> pieces = {
      {0, 3, 6, 9}, {11, 1, 7}, {2, 4, 5, 8, 10}};
  for (const auto& piece : pieces) {
    const auto part = runner.run_indices(grid, piece);
    ASSERT_EQ(part.size(), piece.size());
    for (std::size_t j = 0; j < piece.size(); ++j) {
      const auto& a = part[j];
      const auto& b = whole[piece[j]];
      EXPECT_EQ(a.index, b.index);
      EXPECT_EQ(a.backend, b.backend);
      EXPECT_EQ(a.prr.prr, b.prr.prr) << piece[j];
      EXPECT_EQ(a.prr.functional.supply_energy_j,
                b.prr.functional.supply_energy_j)
          << piece[j];
      EXPECT_EQ(a.prr.low_power.supply_energy_j,
                b.prr.low_power.supply_energy_j)
          << piece[j];
    }
  }
  EXPECT_THROW(runner.run_indices(grid, {grid.size()}), Error);
}

TEST(SweepRunner, RoutesRestoredPointsToAnalytic) {
  SessionConfig cfg;
  cfg.geometry = {8, 16, 1};
  EXPECT_EQ(SweepRunner::route(cfg), BackendChoice::kAnalytic);
  cfg.row_transition_restore = false;
  EXPECT_EQ(SweepRunner::route(cfg), BackendChoice::kCycleAccurate);
}

TEST(SweepRunner, ForcedBackendsAgreeOnFaultFreePoints) {
  SweepGrid grid;
  grid.geometries = {{8, 64, 1}};
  grid.algorithms = {march::algorithms::march_c_minus()};
  const auto sim =
      SweepRunner({1, BackendChoice::kCycleAccurate}).run(grid);
  const auto ana = SweepRunner({1, BackendChoice::kAnalytic}).run(grid);
  EXPECT_EQ(sim[0].backend, BackendChoice::kCycleAccurate);
  EXPECT_EQ(ana[0].backend, BackendChoice::kAnalytic);
  EXPECT_EQ(sim[0].prr.functional.cycles, ana[0].prr.functional.cycles);
  EXPECT_NEAR(ana[0].prr.prr, sim[0].prr.prr, 0.02);
}

}  // namespace
