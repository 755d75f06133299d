#include "dist/steal_queue.h"

#include <utility>

#include "util/error.h"

namespace sramlp::dist {

StealQueue::StealQueue(std::vector<std::vector<std::size_t>> units)
    : shards_(std::move(units)),
      attempts_(shards_.size(), 0),
      completed_flags_(shards_.size(), false) {
  for (std::size_t s = 0; s < shards_.size(); ++s) pending_.push_back(s);
}

const std::vector<std::size_t>& StealQueue::indices(
    std::size_t shard_id) const {
  SRAMLP_REQUIRE(shard_id < shards_.size(), "unknown steal shard id");
  return shards_[shard_id];
}

std::optional<StealShard> StealQueue::lease(std::uint64_t worker_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pending_.empty()) return std::nullopt;
  const std::size_t id = pending_.front();
  pending_.pop_front();
  leased_[id] = worker_id;
  ++attempts_[id];
  return StealShard{id, shards_[id]};
}

void StealQueue::complete(std::size_t shard_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shard_id >= shards_.size() || completed_flags_[shard_id]) return;
  completed_flags_[shard_id] = true;
  ++completed_;
  leased_.erase(shard_id);
  // If the shard was requeued (its original worker presumed dead) and then
  // completed by that worker after all, drop the stale pending copy.
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (*it == shard_id) {
      pending_.erase(it);
      break;
    }
  }
}

std::size_t StealQueue::abandon(std::uint64_t worker_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t requeued = 0;
  for (auto it = leased_.begin(); it != leased_.end();) {
    if (it->second == worker_id) {
      pending_.push_back(it->first);
      it = leased_.erase(it);
      ++requeued;
    } else {
      ++it;
    }
  }
  requeues_ += requeued;
  return requeued;
}

bool StealQueue::fail(std::size_t shard_id, unsigned retries) {
  std::lock_guard<std::mutex> lock(mutex_);
  SRAMLP_REQUIRE(shard_id < shards_.size(), "unknown steal shard id");
  if (completed_flags_[shard_id]) return true;  // raced a duplicate run
  leased_.erase(shard_id);
  if (attempts_[shard_id] > retries) return false;
  pending_.push_back(shard_id);
  ++requeues_;
  return true;
}

bool StealQueue::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_ == shards_.size();
}

StealQueue::Stats StealQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.shard_count = shards_.size();
  stats.pending = pending_.size();
  stats.leased = leased_.size();
  stats.completed = completed_;
  stats.requeues = requeues_;
  return stats;
}

}  // namespace sramlp::dist
