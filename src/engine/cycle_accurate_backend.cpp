#include "engine/cycle_accurate_backend.h"

#include <optional>
#include <utility>
#include <vector>

#include "util/error.h"

namespace sramlp::engine {

namespace {

/// Detaches the sink from the meter on scope exit, so an exception mid-run
/// never leaves the array's meter pointing at a destroyed trace.
struct SinkGuard {
  power::EnergyMeter* meter = nullptr;
  ~SinkGuard() {
    if (meter != nullptr) meter->attach_sink(nullptr);
  }
};

/// Fan-out for runs that request both a trace and a waveform export.  It
/// keeps the default bulk_fold_supported() == false: the waveform side
/// needs every event, so the array delivers each one through the meter
/// even though the trace alone could fold.
struct TeeSink final : power::MeterSink {
  power::MeterSink* a = nullptr;
  power::MeterSink* b = nullptr;
  void on_add(power::EnergySource source, double joules, std::uint64_t count,
              std::uint64_t cycle) override {
    a->on_add(source, joules, count, cycle);
    b->on_add(source, joules, count, cycle);
  }
  void on_spread(power::EnergySource source, double joules,
                 std::uint64_t first_cycle, std::uint64_t cycles) override {
    a->on_spread(source, joules, first_cycle, cycles);
    b->on_spread(source, joules, first_cycle, cycles);
  }
};

}  // namespace

CycleAccurateBackend::CycleAccurateBackend(sram::SramArray& array,
                                           std::vector<bool> row_mask)
    : array_(&array), row_mask_(std::move(row_mask)) {
  SRAMLP_REQUIRE(row_mask_.empty() ||
                     row_mask_.size() == array.geometry().rows,
                 "a row mask needs one flag per array row");
}

ExecutionResult CycleAccurateBackend::run(CommandStream& stream) {
  array_->reset_measurements();

  static_assert(kMaxFirstDetections <= sram::RunResult::kDetectionCap,
                "RunResult cannot carry enough detections per run");

  // Opt-in probe/sink wiring: the trace subscribes to the array's meter
  // for the duration of this run (bit-identical totals; the array picks
  // its accumulation policy from the sink), and the stream's element
  // indices mark the attribution boundaries.
  std::optional<power::PowerTrace> trace;
  TeeSink tee;
  SinkGuard guard;
  if (stream.options().trace) {
    trace.emplace(*stream.options().trace, array_->config().tech.clock_period);
    if (stream.options().waveform_sink != nullptr) {
      tee.a = &*trace;
      tee.b = stream.options().waveform_sink;
      array_->meter().attach_sink(&tee);
    } else {
      array_->meter().attach_sink(&*trace);
    }
    guard.meter = &array_->meter();
  } else if (stream.options().waveform_sink != nullptr) {
    array_->meter().attach_sink(stream.options().waveform_sink);
    guard.meter = &array_->meter();
  }

  ExecutionResult result;
  // Operation list of the current element, translated once per element.
  std::vector<sram::RunOp> ops;
  std::size_t ops_element = static_cast<std::size_t>(-1);

  // Every run ends on an address boundary, so after peek_run's REQUIRE on
  // the first one the stream holds only runs and pause idle blocks.
  while (!stream.done()) {
    StreamRun srun;
    if (!stream.peek_run(&srun)) {
      const StreamStep* pause = stream.peek();
      if (trace) trace->begin_element(pause->element, array_->meter().cycles());
      array_->idle(pause->idle_cycles);
      stream.pop();
      continue;
    }
    if (!row_mask_.empty() && !row_mask_[srun.row]) {
      stream.skip_run(srun);
      continue;
    }
    if (trace) trace->begin_element(srun.element, array_->meter().cycles());
    if (ops_element != srun.element) {
      ops.clear();
      for (const march::Operation op :
           stream.test().elements()[srun.element].ops)
        ops.push_back({march::is_read(op), march::value_of(op)});
      ops_element = srun.element;
    }
    sram::RunCommand rc;
    rc.row = srun.row;
    rc.first_group = srun.first_group;
    rc.group_count = srun.group_count;
    rc.descending = srun.descending;
    rc.ops = ops.data();
    rc.op_count = ops.size();
    rc.background = stream.options().background;
    rc.scan = srun.scan;
    rc.restore_last = srun.restore_last;
    const sram::RunResult rr = array_->execute_run(rc);
    result.mismatches += rr.mismatches;
    for (std::size_t i = 0;
         i < rr.detection_count &&
         result.first_detections.size() < kMaxFirstDetections;
         ++i)
      result.first_detections.push_back(Detection{
          srun.element, rr.detections[i].op, srun.row,
          rr.detections[i].group, rr.detections[i].col});
    stream.skip_run(srun);
  }

  if (trace) {
    result.trace = trace->summarize(array_->meter().cycles());
    array_->meter().attach_sink(nullptr);
    guard.meter = nullptr;
  }

  result.cycles = array_->meter().cycles();
  result.supply_energy_j = array_->meter().supply_total();
  result.energy_per_cycle_j = array_->meter().supply_per_cycle();
  result.meter = array_->meter();
  result.stats = array_->stats();
  return result;
}

}  // namespace sramlp::engine
