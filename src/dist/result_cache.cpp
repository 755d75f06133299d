#include "dist/result_cache.h"

#include <filesystem>

#include "io/json.h"
#include "util/error.h"

namespace sramlp::dist {

namespace {

io::JsonValue spill_record(std::uint64_t key, const std::string& payload) {
  io::JsonValue record = io::JsonValue::object();
  record.set("key", io::JsonValue::integer(key));
  record.set("payload", io::JsonValue::string(payload));
  return record;
}

}  // namespace

ResultCache::ResultCache(const Options& options) : options_(options) {
  if (options_.spill_path.empty()) return;
  const std::filesystem::path path(options_.spill_path);
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path());
  // Index the existing spill: one {"key","payload"} record per line.  A
  // truncated tail line (daemon killed mid-append) is skipped, and the
  // next append starts cleanly past the last intact record.
  std::uint64_t clean_end = 0;
  {
    std::ifstream in(options_.spill_path);
    std::string line;
    std::uint64_t offset = 0;
    while (in.good() && std::getline(in, line)) {
      const bool had_newline = !in.eof();
      const std::uint64_t next =
          offset + line.size() + (had_newline ? 1 : 0);
      if (!had_newline) break;  // no trailing newline: torn final record
      if (!line.empty()) {
        try {
          const io::JsonValue record = io::JsonValue::parse(line);
          spill_index_[record.at("key").as_uint()] = offset;
          ++stats_.loaded;
        } catch (const Error&) {
          break;  // torn record: ignore it and everything after
        }
      }
      clean_end = next;
      offset = next;
    }
  }
  spill_out_.open(options_.spill_path,
                  std::ios::in | std::ios::out |
                      (std::filesystem::exists(path) ? std::ios::ate
                                                     : std::ios::trunc));
  if (!spill_out_.is_open())
    spill_out_.open(options_.spill_path, std::ios::out | std::ios::trunc);
  SRAMLP_REQUIRE(spill_out_.good(),
                 "cannot open result-cache spill file " + options_.spill_path);
  spill_out_.seekp(static_cast<std::streamoff>(clean_end));
}

void ResultCache::remember(std::uint64_t key, std::string payload) {
  const auto it = memory_.find(key);
  if (it != memory_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->second = std::move(payload);
    return;
  }
  if (options_.capacity == 0) return;
  lru_.emplace_front(key, std::move(payload));
  memory_[key] = lru_.begin();
  while (lru_.size() > options_.capacity) {
    memory_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

std::optional<std::string> ResultCache::get(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = memory_.find(key);
  if (it != memory_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return it->second->second;
  }
  const auto spill_it = spill_index_.find(key);
  if (spill_it != spill_index_.end()) {
    std::ifstream in(options_.spill_path);
    in.seekg(static_cast<std::streamoff>(spill_it->second));
    std::string line;
    if (in.good() && std::getline(in, line)) {
      try {
        const io::JsonValue record = io::JsonValue::parse(line);
        if (record.at("key").as_uint() == key) {
          std::string payload = record.at("payload").as_string();
          remember(key, payload);
          ++stats_.hits;
          ++stats_.spill_hits;
          return payload;
        }
      } catch (const Error&) {
        // fall through to a miss: the spill record is unreadable
      }
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void ResultCache::put(std::uint64_t key, std::string payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.insertions;
  const bool new_for_spill =
      !options_.spill_path.empty() &&
      spill_index_.find(key) == spill_index_.end();
  if (new_for_spill) {
    const std::uint64_t offset =
        static_cast<std::uint64_t>(spill_out_.tellp());
    spill_out_ << spill_record(key, payload).dump() << '\n';
    spill_out_.flush();
    if (spill_out_.good()) spill_index_[key] = offset;
  }
  remember(key, std::move(payload));
}

bool ResultCache::contains(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_.find(key) != memory_.end() ||
         spill_index_.find(key) != spill_index_.end();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  std::size_t distinct = spill_index_.size();
  if (options_.spill_path.empty()) {
    distinct = memory_.size();
  } else {
    for (const auto& [key, unused] : memory_)
      if (spill_index_.find(key) == spill_index_.end()) ++distinct;
  }
  stats.entries = distinct;
  return stats;
}

}  // namespace sramlp::dist
