#include "obs/trace.h"

#include <unistd.h>

#include <cstdio>

#include "io/json.h"
#include "obs/clock.h"
#include "util/error.h"

namespace sramlp::obs {

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::size_t capacity) {
  SRAMLP_REQUIRE(capacity > 0, "tracer capacity must be positive");
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  ring_.reserve(capacity);
  capacity_ = capacity;
  next_ = 0;
  recorded_ = 0;
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) return;  // enable() never ran; drop
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[next_] = std::move(span);
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::string Tracer::dump_chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
  io::JsonValue events = io::JsonValue::array();
  // Oldest first: once the ring has wrapped, the oldest span sits at
  // next_ (the slot about to be overwritten).
  const std::size_t count = ring_.size();
  const std::size_t start = count == capacity_ ? next_ : 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Span& span = ring_[(start + i) % count];
    io::JsonValue event = io::JsonValue::object();
    event.set("name", io::JsonValue::string(span.name));
    event.set("cat", io::JsonValue::string(span.category));
    event.set("ph", io::JsonValue::string("X"));
    event.set("ts", io::JsonValue::integer(span.ts_us));
    event.set("dur", io::JsonValue::integer(span.dur_us));
    event.set("pid", io::JsonValue::integer(pid));
    event.set("tid", io::JsonValue::integer(span.tid));
    if (!span.args.empty()) {
      io::JsonValue args = io::JsonValue::object();
      for (const auto& [key, value] : span.args)
        args.set(key, io::JsonValue::integer(value));
      event.set("args", std::move(args));
    }
    events.push_back(std::move(event));
  }
  io::JsonValue doc = io::JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", io::JsonValue::string("ms"));
  return doc.dump();
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::string text = dump_chrome_json();
  std::FILE* file = std::fopen(path.c_str(), "w");
  SRAMLP_REQUIRE(file != nullptr, "cannot open trace file " + path);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const bool ok = written == text.size() && std::fclose(file) == 0;
  SRAMLP_REQUIRE(ok, "short write to trace file " + path);
}

std::uint32_t trace_thread_id() {
  static std::atomic<std::uint32_t> next_id{0};
  thread_local const std::uint32_t id =
      next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void record_span(
    const char* name, const char* category, std::uint64_t start_us,
    std::uint64_t end_us,
    std::initializer_list<std::pair<const char*, std::uint64_t>> args) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  Tracer::Span span;
  span.name = name;
  span.category = category;
  span.ts_us = start_us;
  span.dur_us = end_us > start_us ? end_us - start_us : 0;
  span.tid = trace_thread_id();
  span.args.assign(args.begin(), args.end());
  tracer.record(std::move(span));
}

SpanGuard::SpanGuard(const char* name, const char* category) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.category = category;
  span_.tid = trace_thread_id();
  span_.ts_us = monotonic_micros();
}

SpanGuard::~SpanGuard() {
  if (!active_) return;
  const std::uint64_t end = monotonic_micros();
  span_.dur_us = end > span_.ts_us ? end - span_.ts_us : 0;
  Tracer::global().record(std::move(span_));
}

void SpanGuard::arg(const char* key, std::uint64_t value) {
  if (!active_) return;
  span_.args.emplace_back(key, value);
}

}  // namespace sramlp::obs
