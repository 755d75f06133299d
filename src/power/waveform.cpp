#include "power/waveform.h"

#include "power/repeat_add.h"
#include "util/error.h"

namespace sramlp::power {

namespace {

/// Machine-friendly column identifiers, in EnergySource enum order (the
/// human-readable info() names carry spaces and parentheses).
constexpr const char* kColumnNames[kEnergySourceCount] = {
    "precharge_res_fight",    "precharge_restore_read",
    "precharge_restore_write", "precharge_next_column",
    "row_transition_restore", "cell_res",
    "bitline_decay_stress",   "lptest_driver",
    "control_logic",          "wordline",
    "decoder",                "address_bus",
    "clock_tree",             "memory_control",
    "sense_amp",              "write_driver",
    "data_io"};
static_assert(kEnergySourceCount == 17,
              "new EnergySource: add its waveform column name above");

const char* column_name(EnergySource source) {
  return kColumnNames[static_cast<std::size_t>(source)];
}

}  // namespace

WaveformWriter::WaveformWriter(const std::string& path, WaveformFormat format)
    : format_(format) {
  file_ = std::fopen(path.c_str(), "w");
  SRAMLP_REQUIRE(file_ != nullptr,
                 "cannot open waveform output file: " + path);
  if (format_ == WaveformFormat::kCsv) {
    std::fputs("run,cycle,span,supply_j", file_);
    for (std::size_t i = 0; i < kEnergySourceCount; ++i)
      std::fprintf(file_, ",%s",
                   column_name(static_cast<EnergySource>(i)));
    std::fputc('\n', file_);
  }
}

WaveformWriter::~WaveformWriter() {
  finish();
  if (file_ != nullptr) std::fclose(file_);
}

void WaveformWriter::on_add(EnergySource source, double joules,
                            std::uint64_t count, std::uint64_t cycle) {
  if (joules == 0.0 || count == 0) return;
  if (first_event_seen_ && cycle < last_cycle_) {
    // The meter's cycle counter restarted: a new run began.
    flush_record();
    ++run_;
  }
  first_event_seen_ = true;
  last_cycle_ = cycle;
  if (have_pending_ && pending_cycle_ != cycle) flush_record();
  if (!have_pending_) {
    have_pending_ = true;
    pending_cycle_ = cycle;
    pending_span_ = 1;
    for (double& v : pending_) v = 0.0;
  }
  // Repeated addition (exact, in O(binades)), matching the meter's
  // accumulation identity.
  double& slot = pending_[static_cast<std::size_t>(source)];
  slot = repeat_add(slot, joules, count);
}

void WaveformWriter::on_spread(EnergySource source, double joules,
                               std::uint64_t first_cycle,
                               std::uint64_t cycles) {
  if (joules == 0.0 || cycles == 0) return;
  if (first_event_seen_ && first_cycle < last_cycle_) {
    flush_record();
    ++run_;
  }
  first_event_seen_ = true;
  last_cycle_ = first_cycle + cycles;
  // One record per idle block; consecutive spreads over the same block
  // (clock + control) merge.
  if (have_pending_ &&
      !(pending_cycle_ == first_cycle && pending_span_ == cycles))
    flush_record();
  if (!have_pending_) {
    have_pending_ = true;
    pending_cycle_ = first_cycle;
    pending_span_ = cycles;
    for (double& v : pending_) v = 0.0;
  }
  pending_[static_cast<std::size_t>(source)] += joules;
}

void WaveformWriter::finish() {
  flush_record();
  if (file_ != nullptr) std::fflush(file_);
}

void WaveformWriter::flush_record() {
  if (!have_pending_) return;
  have_pending_ = false;
  write_record(pending_cycle_, pending_span_, pending_);
}

void WaveformWriter::write_record(std::uint64_t cycle, std::uint64_t span,
                                  const double* slots) {
  double supply = 0.0;
  for (std::size_t i = 0; i < kEnergySourceCount; ++i)
    if (info(static_cast<EnergySource>(i)).supply_drawn) supply += slots[i];
  if (format_ == WaveformFormat::kCsv) {
    std::fprintf(file_, "%llu,%llu,%llu,%.17g",
                 static_cast<unsigned long long>(run_),
                 static_cast<unsigned long long>(cycle),
                 static_cast<unsigned long long>(span), supply);
    for (std::size_t i = 0; i < kEnergySourceCount; ++i)
      std::fprintf(file_, ",%.17g", slots[i]);
    std::fputc('\n', file_);
  } else {
    std::fprintf(file_,
                 "{\"run\":%llu,\"cycle\":%llu,\"span\":%llu,"
                 "\"supply_j\":%.17g",
                 static_cast<unsigned long long>(run_),
                 static_cast<unsigned long long>(cycle),
                 static_cast<unsigned long long>(span), supply);
    for (std::size_t i = 0; i < kEnergySourceCount; ++i)
      std::fprintf(file_, ",\"%s\":%.17g",
                   column_name(static_cast<EnergySource>(i)), slots[i]);
    std::fputs("}\n", file_);
  }
  ++records_;
}

}  // namespace sramlp::power
