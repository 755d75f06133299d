// Metrics registry: lock-cheap counters, gauges and fixed-bucket
// histograms with Prometheus text exposition.
//
// Each event is counted once, by whoever sees it.  The sweep service keeps
// its own counters in ServiceStats / ResultCache::Stats and, per `metrics`
// request, renders them and its live gauges (jobs in flight, queue depth,
// connections) into a scrape-time Registry, followed by its own Registry
// of the distributions it measures itself (lease latency, shard execution
// time) and by global(): the series no single service instance owns —
// framing bytes, per-submitter counters.  A series registered only in a
// worker process is never scraped.  A registry holds:
//
//   * Counter   — monotone uint64, one relaxed fetch_add per increment;
//   * Gauge     — signed level (queue depth, jobs in flight), add/sub/set;
//   * Histogram — fixed ascending upper bounds chosen at registration,
//                 one relaxed fetch_add into the matching bucket per
//                 observation (cumulative counts are computed at scrape
//                 time, not on the hot path).
//
// Identity is (name, label set); registering the same identity twice
// returns the same instance, so call sites cache a reference (function-
// local static) and pay zero lookups after the first.  Exposition renders
// either Prometheus text (https://prometheus.io/docs/instrumenting/
// exposition_formats/ — `sramlp_dist stats --format prom` serves it from
// a live daemon) or JSON through io::JsonValue.  Registration order is
// preserved, so equal registries expose equal bytes.
//
// Determinism: metric values are observational — nothing here may ever be
// read back into a result document.  Durations fed to histograms come
// from obs::monotonic_micros(), the sanctioned clock seam.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "io/json.h"

namespace sramlp::obs {

/// Label set: ordered key=value pairs (the order given at registration is
/// the exposition order).
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d) { value_.fetch_sub(d, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Histogram {
 public:
  /// @p bounds are ascending bucket upper limits; a final +Inf bucket is
  /// implicit.  An observation lands in the FIRST bucket whose bound is
  /// >= the value (Prometheus `le` semantics).
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);
  /// Sugar for duration observations in seconds from a monotonic-micros
  /// interval.
  void observe_micros(std::uint64_t micros) {
    observe(static_cast<double>(micros) * 1e-6);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) count; index bounds_.size() is +Inf.
  std::uint64_t bucket_count(std::size_t index) const;
  std::uint64_t total_count() const;
  double sum() const;

  /// @p count bounds starting at @p start, each @p factor times the last —
  /// the standard latency ladder (e.g. 100us * 4^k).
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  ///< bounds+1 slots
  std::atomic<std::uint64_t> sum_bits_{0};  ///< double, CAS-accumulated
};

class Registry {
 public:
  /// The process-wide registry every subsystem registers into; the
  /// service's `metrics` reply appends it to its own scrape-time families.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register-or-fetch.  Same (name, labels) returns the same instance;
  /// the same name with a different metric type throws sramlp::Error.
  /// @p help is fixed by the first registration of a name.
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       const std::vector<double>& bounds,
                       const Labels& labels = {});

  /// Prometheus text exposition (content type text/plain; version 0.0.4).
  std::string prometheus_text() const;
  /// The same content as one JSON document (the stats RPC attaches it).
  io::JsonValue to_json() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Instance {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    Type type = Type::kCounter;
    std::vector<std::unique_ptr<Instance>> instances;
  };

  Family& family(const std::string& name, const std::string& help, Type type);
  Instance& instance(Family& family, const Labels& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;  ///< registration order
};

}  // namespace sramlp::obs
