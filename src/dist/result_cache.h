// ResultCache — fingerprint-keyed result memoization for the sweep service.
//
// Analytic sweep points cost ~0.2 ms; at service scale the dominant cost
// of a popular grid point is re-running it.  The cache closes that loop:
// results are keyed by the FNV-1a fingerprint of their canonical JSON
// request form (JobSpec::fingerprint for whole jobs, a per-point canonical
// document for individual grid points / campaign entries) and stored as
// the exact BYTES they were first rendered to — a hit replays those bytes,
// so a cached response is byte-identical to a fresh run by construction.
//
// Two tiers:
//   * in-memory LRU — `capacity` most-recently-used payloads, O(1) get/put;
//   * on-disk JSONL spill — every insertion appends
//     {"key": K, "payload": "..."} to the spill file.  The file is the
//     authoritative store: at construction it is scanned into a key ->
//     offset index (payloads stay on disk), a memory miss re-reads the
//     line, and a daemon restart warm-starts from it.  Payloads are JSON
//     text, which a JSON string member round-trips exactly.
//
// Thread-safe (one mutex; the service calls it from every connection
// thread).  Stats is the cache's only count of its lookups and
// insertions: the service's `metrics` scrape reads it (kCacheCounters)
// rather than keeping a second tally.
#pragma once

#include <cstdint>
#include <fstream>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace sramlp::dist {

class ResultCache {
 public:
  struct Options {
    /// Payloads kept in memory (LRU).  0 disables the memory tier (every
    /// hit re-reads the spill file — only sensible with a spill path).
    std::size_t capacity = 128;
    /// JSONL spill file; empty = memory-only cache.
    std::string spill_path;
  };

  struct Stats {
    std::uint64_t hits = 0;          ///< memory + spill hits
    std::uint64_t spill_hits = 0;    ///< hits served by re-reading the spill
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t loaded = 0;        ///< entries indexed from the spill file
    std::size_t entries = 0;         ///< distinct keys known (memory + spill)

    double hit_rate() const {
      const std::uint64_t lookups = hits + misses;
      return lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    }
  };

  ResultCache() : ResultCache(Options{}) {}
  explicit ResultCache(const Options& options);

  /// Look @p key up; bumps LRU recency and the hit/miss counters.
  std::optional<std::string> get(std::uint64_t key);

  /// Insert (or refresh) @p key.  Appends to the spill file when one is
  /// configured; re-inserting an existing key is a no-op for the spill
  /// (the payload for a key never changes — results are deterministic).
  void put(std::uint64_t key, std::string payload);

  /// True without disturbing recency or counters (the service uses this
  /// to decide whether a submission is a hit before replaying it).
  bool contains(std::uint64_t key) const;

  Stats stats() const;

 private:
  void remember(std::uint64_t key, std::string payload);  // locked by caller

  Options options_;
  mutable std::mutex mutex_;
  /// LRU list, most recent first; map points into it.
  std::list<std::pair<std::uint64_t, std::string>> lru_;
  std::unordered_map<std::uint64_t, decltype(lru_)::iterator> memory_;
  /// Spill index: key -> byte offset of its record line.
  std::unordered_map<std::uint64_t, std::uint64_t> spill_index_;
  std::ofstream spill_out_;
  Stats stats_;
};

/// One ResultCache::Stats counter: its wire name, the help text of its
/// scrape family (sramlp_cache_<name>_total) and its member.
struct CacheCounter {
  const char* name;
  const char* help;
  std::uint64_t ResultCache::Stats::*member;
};

/// Every ResultCache::Stats counter in wire order — what the `stats`
/// reply's cache member, its decoder and the `metrics` scrape iterate.
inline constexpr CacheCounter kCacheCounters[] = {
    {"hits", "Result-cache lookups served (memory + spill)",
     &ResultCache::Stats::hits},
    {"spill_hits", "Result-cache hits re-read from the spill file",
     &ResultCache::Stats::spill_hits},
    {"misses", "Result-cache lookups that found nothing",
     &ResultCache::Stats::misses},
    {"insertions", "Result-cache payloads inserted",
     &ResultCache::Stats::insertions},
    {"loaded", "Result-cache entries indexed from the spill file at start",
     &ResultCache::Stats::loaded},
};

}  // namespace sramlp::dist
