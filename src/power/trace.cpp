#include "power/trace.h"

#include <algorithm>

#include "power/repeat_add.h"
#include "util/error.h"

namespace sramlp::power {

namespace {

using Slots = std::array<double, kEnergySourceCount + 1>;

/// Sum a slot block in fixed source order — the deterministic reduction
/// both column engines share.
double supply_of(const Slots& slots) {
  double total = slots[kEnergySourceCount];  // direct (unsourced) supply
  for (std::size_t i = 0; i < kEnergySourceCount; ++i)
    if (kEnergySourceInfo[i].supply_drawn) total += slots[i];
  return total;
}

double precharge_of(const Slots& slots) {
  double total = 0.0;
  for (std::size_t i = 0; i < kEnergySourceCount; ++i)
    if (kEnergySourceInfo[i].supply_drawn &&
        kEnergySourceInfo[i].precharge_related)
      total += slots[i];
  return total;
}

}  // namespace

PowerTrace::PowerTrace(const TraceConfig& config, double clock_period_s)
    : config_(config), clock_period_(clock_period_s) {
  SRAMLP_REQUIRE(config_.window_cycles >= 1,
                 "trace windows must span at least one cycle");
  SRAMLP_REQUIRE(clock_period_ >= 0.0, "negative clock period");
}

void PowerTrace::begin_element(std::size_t element, std::uint64_t cycle) {
  if (!elements_.empty() && elements_.back().element == element) return;
  ElementAcc acc;
  acc.element = element;
  acc.start_cycle = cycle;
  elements_.push_back(acc);
}

void PowerTrace::finalize_window(double supply) {
  folded_supply_ += supply;
  if (supply > peak_energy_) {
    peak_energy_ = supply;
    peak_window_ = base_window_;
  }
  if (config_.keep_windows) kept_supply_.push_back(supply);
  ++base_window_;
}

void PowerTrace::fold_below(std::uint64_t window) {
  while (base_window_ < window && !windows_.empty()) {
    finalize_window(supply_of(windows_.front()));
    windows_.erase(windows_.begin());
  }
  // Zero-energy gap windows between the retained block and the new event.
  while (base_window_ < window) finalize_window(0.0);
}

PowerTrace::Slots& PowerTrace::window_at(std::uint64_t index) {
  SRAMLP_REQUIRE(index >= base_window_,
                 "trace events must not move backwards in time");
  const std::uint64_t offset = index - base_window_;
  if (offset >= windows_.size())
    windows_.resize(static_cast<std::size_t>(offset) + 1);
  return windows_[static_cast<std::size_t>(offset)];
}

PowerTrace::ElementAcc& PowerTrace::element_now() {
  if (elements_.empty()) elements_.push_back(ElementAcc{});
  return elements_.back();
}

void PowerTrace::on_add(EnergySource source, double joules,
                        std::uint64_t count, std::uint64_t cycle) {
  // Supply-side instrument: stored-charge sinks (bit-line decay stress)
  // never reach the windows or the element breakdown.
  if (joules == 0.0 || count == 0 || !info(source).supply_drawn) return;
  const std::size_t slot = static_cast<std::size_t>(source);
  fold_below(cycle / config_.window_cycles);
  double& window = window_at(cycle / config_.window_cycles)[slot];
  double& element = element_now().slots[slot];
  // Repeated additions, not joules * count: the same identity the meter's
  // bulk add maintains, so both column engines — one emitting count events
  // of 1, the other one event of count — accumulate the same bits.
  window = repeat_add(window, joules, count);
  element = repeat_add(element, joules, count);
}

double* PowerTrace::bulk_window_slots(std::uint64_t window) {
  fold_below(window);
  return window_at(window).data();
}

double* PowerTrace::bulk_element_slots() { return element_now().slots.data(); }

void PowerTrace::on_spread(EnergySource source, double joules,
                           std::uint64_t first_cycle, std::uint64_t cycles) {
  if (joules == 0.0 || cycles == 0 || !info(source).supply_drawn) return;
  const std::size_t slot = static_cast<std::size_t>(source);
  element_now().slots[slot] += joules;
  spread_windows(slot, joules, first_cycle, cycles);
}

void PowerTrace::add_supply_block(double joules, std::uint64_t first_cycle,
                                  std::uint64_t cycles) {
  SRAMLP_REQUIRE(joules >= 0.0, "energy contributions must be non-negative");
  if (joules == 0.0 || cycles == 0) return;
  element_now().slots[kDirectSlot] += joules;
  spread_windows(kDirectSlot, joules, first_cycle, cycles);
}

void PowerTrace::spread_windows(std::size_t slot, double joules,
                                std::uint64_t first, std::uint64_t cycles) {
  const std::uint64_t w_cycles = config_.window_cycles;
  fold_below(first / w_cycles);
  const double per_cycle = joules / static_cast<double>(cycles);
  std::uint64_t cycle = first;
  std::uint64_t left = cycles;
  while (left > 0) {
    const std::uint64_t window = cycle / w_cycles;
    const std::uint64_t in_window =
        std::min<std::uint64_t>(left, (window + 1) * w_cycles - cycle);
    window_at(window)[slot] += per_cycle * static_cast<double>(in_window);
    cycle += in_window;
    left -= in_window;
  }
}

TraceSummary PowerTrace::summarize(std::uint64_t total_cycles) const {
  const std::uint64_t w_cycles = config_.window_cycles;
  TraceSummary summary;
  summary.window_cycles = w_cycles;
  summary.total_cycles = total_cycles;
  const std::uint64_t implied = (total_cycles + w_cycles - 1) / w_cycles;
  summary.windows =
      std::max<std::uint64_t>(implied, base_window_ + windows_.size());

  // Continue the running fold over the still-retained windows (summarize
  // must stay const and repeatable, so the tail folds into locals).
  summary.supply_energy_j = folded_supply_;
  summary.peak_window_energy_j = peak_energy_;
  summary.peak_window = peak_window_;
  if (config_.keep_windows) summary.window_supply_j = kept_supply_;
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    const double supply = supply_of(windows_[w]);
    summary.supply_energy_j += supply;
    if (supply > summary.peak_window_energy_j) {
      summary.peak_window_energy_j = supply;
      summary.peak_window = base_window_ + w;
    }
    if (config_.keep_windows) summary.window_supply_j.push_back(supply);
  }
  if (config_.keep_windows)
    summary.window_supply_j.resize(
        static_cast<std::size_t>(summary.windows), 0.0);

  const double window_s = static_cast<double>(w_cycles) * clock_period_;
  if (window_s > 0.0)
    summary.peak_power_w = summary.peak_window_energy_j / window_s;
  const double run_s = static_cast<double>(total_cycles) * clock_period_;
  if (run_s > 0.0) summary.average_power_w = summary.supply_energy_j / run_s;

  summary.elements.reserve(elements_.size());
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    const ElementAcc& acc = elements_[i];
    ElementEnergy element;
    element.element = acc.element;
    element.start_cycle = acc.start_cycle;
    const std::uint64_t end = i + 1 < elements_.size()
                                  ? elements_[i + 1].start_cycle
                                  : total_cycles;
    element.cycles = end > acc.start_cycle ? end - acc.start_cycle : 0;
    element.supply_energy_j = supply_of(acc.slots);
    element.precharge_energy_j = precharge_of(acc.slots);
    summary.elements.push_back(element);
  }

  return summary;
}

}  // namespace sramlp::power
