#include "search/evaluator.h"

#include <algorithm>
#include <cmath>

#include "engine/analytic_backend.h"
#include "util/error.h"

namespace sramlp::search {

ScheduleEvaluator::ScheduleEvaluator(const core::SessionConfig& config,
                                     const march::MarchTest& base,
                                     std::uint64_t window_cycles) {
  SRAMLP_REQUIRE(window_cycles >= 1, "peak window must span >= 1 cycle");
  SRAMLP_REQUIRE(!base.elements().empty(), "base test has no elements");
  const power::AnalyticModel model(config.tech, config.geometry.rows,
                                   config.geometry.cols,
                                   config.geometry.word_width);
  const bool low_power = config.mode == sram::Mode::kLowPowerTest;
  const std::size_t words = config.geometry.words();
  idle_rate_ = model.idle_energy_per_cycle();
  window_cycles_ = static_cast<double>(window_cycles);
  window_seconds_ =
      static_cast<double>(window_cycles) * config.tech.clock_period;
  const std::vector<march::MarchElement>& elements = base.elements();
  rates_.reserve(elements.size());
  cycles_.reserve(elements.size());
  conds_.reserve(elements.size());
  for (std::size_t i = 0; i < elements.size(); ++i) {
    rates_.push_back(elements[i].is_pause()
                         ? idle_rate_
                         : engine::analytic_element_rate(model, elements[i],
                                                         low_power));
    cycles_.push_back(static_cast<double>(base.element_cycles(i, words)));
    conds_.push_back(element_state(elements[i]));
  }
}

Score ScheduleEvaluator::score_one(const Candidate& candidate) const {
  const std::size_t n = rates_.size();
  SRAMLP_REQUIRE(
      candidate.order.size() == n && candidate.idle_after.size() == n,
      "candidate does not match the evaluator's base test");
  ScoreWalk walk = start_walk();
  for (std::size_t s = 0; s < n; ++s) {
    add_element(walk, candidate.order[s]);
    add_idle(walk, candidate.idle_after[s]);
  }
  return finish(walk);
}

Score ScheduleEvaluator::finish(const ScoreWalk& walk) const {
  Score score;
  score.energy_j = walk.energy_j;
  score.cycles = walk.cycles;
  score.peak_window_j = walk.peak_window_j();
  score.peak_power_w = score.peak_window_j / window_seconds_;
  return score;
}

void ScoreWalk::add(double rate, double span) {
  energy_j += rate * span;
  cycles += span;
  const double avail = window - fill;
  const bool crosses = span >= avail;
  const double head = crosses ? avail : span;
  const double acc_head = acc + rate * head;
  const double rem = crosses ? span - avail : 0.0;
  const double m = std::floor(rem / window);
  const double closed = crosses ? acc_head : 0.0;
  peak = std::max(peak, closed);
  const double mid = m >= 1.0 ? rate * window : 0.0;
  peak = std::max(peak, mid);
  const double tail = rem - m * window;
  acc = crosses ? rate * tail : acc_head;
  fill = crosses ? tail : fill + span;
}

double ScoreWalk::peak_window_j() const { return std::max(peak, acc); }

}  // namespace sramlp::search
