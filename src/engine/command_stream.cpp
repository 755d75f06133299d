#include "engine/command_stream.h"

#include <string>

#include "util/error.h"

namespace sramlp::engine {

namespace {

sram::Scan to_scan(march::Direction direction) {
  return direction == march::Direction::kDown ? sram::Scan::kDescending
                                              : sram::Scan::kAscending;
}

}  // namespace

CommandStream::CommandStream(const march::MarchTest& test,
                             const march::AddressOrder& order,
                             const StreamOptions& options)
    : test_(options.invert_background ? test.complemented() : test),
      order_(&order),
      options_(options),
      wlawl_(order.is_word_line_after_word_line()) {
  SRAMLP_REQUIRE(order_->size() > 0, "empty address order");
  SRAMLP_REQUIRE(!options_.low_power || wlawl_,
                 "the low-power schedule requires the "
                 "word-line-after-word-line address order (paper §4); "
                 "resolve the fallback before building the stream");
}

bool CommandStream::peek_run(StreamRun* run) const {
  if (done_) return false;
  SRAMLP_REQUIRE(op_ == 0,
                 "a stream run starts at an address boundary, but the "
                 "cursor sits on operation " + std::to_string(op_) +
                     " of an address; pop() the rest of the address or "
                     "reset() the stream first");
  const march::MarchElement& element = test_.elements()[element_];
  if (element.is_pause()) return false;

  const march::Direction dir = element.direction;
  const march::Address addr = order_->at(step_, dir);
  const bool descending = dir == march::Direction::kDown;
  // WLAWL sequences keep each row's groups contiguous, so the rest of the
  // current row is exactly this many addresses; any other order may leave
  // the row at the next step, so its runs are one address long.
  std::size_t count = 1;
  if (wlawl_)
    count = descending ? addr.col + 1 : order_->col_groups() - addr.col;

  run->element = element_;
  run->row = addr.row;
  run->first_group = addr.col;
  run->group_count = count;
  run->descending = descending;
  run->scan = to_scan(dir);
  run->restore_last = options_.low_power && options_.row_transition_restore &&
                      restore_eligible_after(element_, step_ + count - 1,
                                             addr.row);
  return true;
}

bool CommandStream::restore_eligible_after(std::size_t element_index,
                                           std::size_t step,
                                           std::size_t row) const {
  const auto& elements = test_.elements();
  const march::Direction dir = elements[element_index].direction;
  // Row of the next address in test order.  A following delay element
  // forces a restore: bit-lines must not sit discharged through a long
  // idle window.
  if (step + 1 < order_->size())
    return order_->at(step + 1, dir).row != row;
  if (element_index + 1 >= elements.size()) return false;
  if (elements[element_index + 1].is_pause()) return true;
  const march::Direction next_dir = elements[element_index + 1].direction;
  return order_->at(0, next_dir).row != row;
}

void CommandStream::skip_run(const StreamRun& run) {
  materialized_ = false;
  op_ = 0;
  step_ += run.group_count;
  if (step_ >= order_->size()) {
    step_ = 0;
    if (++element_ >= test_.elements().size()) done_ = true;
  }
}

void CommandStream::reset() {
  element_ = 0;
  step_ = 0;
  op_ = 0;
  done_ = false;
  materialized_ = false;
  cached_element_ = static_cast<std::size_t>(-1);
  cached_step_ = static_cast<std::size_t>(-1);
}

void CommandStream::materialize() const {
  if (materialized_ || done_) return;
  const auto& elements = test_.elements();
  const march::MarchElement& element = elements[element_];

  current_.element = element_;
  current_.op = op_;

  if (element.is_pause()) {
    current_.kind = StreamStep::Kind::kIdle;
    current_.idle_cycles = element.pause_cycles;
    materialized_ = true;
    return;
  }

  const std::size_t ops = element.ops.size();
  sram::CycleCommand& cmd = current_.command;

  if (element_ != cached_element_ || step_ != cached_step_) {
    const march::Direction dir = element.direction;
    const march::Address addr = order_->at(step_, dir);
    cmd.row = addr.row;
    cmd.col_group = addr.col;
    cmd.background = options_.background;
    cmd.scan = to_scan(dir);
    cached_restore_eligible_ =
        restore_eligible_after(element_, step_, addr.row);
    cached_element_ = element_;
    cached_step_ = step_;
  }

  const march::Operation op = element.ops[op_];
  current_.kind = StreamStep::Kind::kCycle;
  current_.idle_cycles = 0;
  cmd.is_read = march::is_read(op);
  cmd.value = march::value_of(op);
  cmd.restore_row_transition =
      options_.low_power && options_.row_transition_restore &&
      op_ + 1 == ops && cached_restore_eligible_;
  materialized_ = true;
}

void CommandStream::advance() {
  materialized_ = false;
  const auto& elements = test_.elements();
  const march::MarchElement& element = elements[element_];
  if (!element.is_pause()) {
    if (++op_ < element.ops.size()) return;
    op_ = 0;
    if (++step_ < order_->size()) return;
    step_ = 0;
  }
  if (++element_ >= elements.size()) done_ = true;
}

const StreamStep* CommandStream::peek() const {
  materialize();
  return done_ ? nullptr : &current_;
}

std::optional<StreamStep> CommandStream::next() {
  materialize();
  if (done_) return std::nullopt;
  StreamStep out = current_;
  advance();
  return out;
}

}  // namespace sramlp::engine
