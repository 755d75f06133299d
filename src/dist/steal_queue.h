// StealQueue — dynamic shard ownership for the sweep service.
//
// A static plan fixes which worker computes which indices before anything
// runs; one slow host then stretches the whole job to its own pace.  The
// steal queue inverts ownership: the job arrives cut into MANY shards
// (each just a list of flat indices — dist::lease_units decides the cut:
// small runs for sweeps and searches, one plan_batches batch per shard
// for fault campaigns), and idle workers pull ("steal") the next one the
// moment they finish their last — a slow worker simply ends up holding
// fewer shards, and heterogeneous workers stay saturated without anyone
// planning for them.  A shard is never split: the queue leases exactly
// the lists it was given.
//
// Determinism is preserved because ownership never touches arithmetic:
// every index is computed by the same dist::execute entry point whichever
// worker steals it, and results carry their flat indices, so the merged
// document is bit-identical to a single-process run whatever the
// interleaving.
//
// Fault tolerance is requeue-based: a shard leased to a worker that dies
// (socket drop, crash) is abandoned back onto the queue; a shard a worker
// reports as failed is retried a bounded number of times before the
// whole job is declared failed.
//
// All methods are thread-safe (internal mutex); lease() never blocks —
// the service layer owns the waiting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace sramlp::dist {

/// One stealable unit: a list of flat work-item indices.
struct StealShard {
  std::size_t id = 0;                 ///< dense shard ordinal within the job
  std::vector<std::size_t> indices;   ///< flat indices, as given
};

class StealQueue {
 public:
  struct Stats {
    std::size_t shard_count = 0;
    std::size_t pending = 0;
    std::size_t leased = 0;
    std::size_t completed = 0;
    std::size_t requeues = 0;  ///< abandoned + failed shards put back
  };

  StealQueue() = default;

  /// One shard per entry of @p units, leased in this order; shard id i
  /// is units[i].
  explicit StealQueue(std::vector<std::vector<std::size_t>> units);

  /// The indices of shard @p shard_id.  Shards never change after
  /// construction, so the reference stays valid for the queue's life.
  /// Throws sramlp::Error on an unknown id.
  const std::vector<std::size_t>& indices(std::size_t shard_id) const;

  /// Steal the next pending shard for @p worker_id; nullopt when nothing
  /// is pending (the job may still be running on other workers).
  std::optional<StealShard> lease(std::uint64_t worker_id);

  /// Mark a leased shard finished.  Unknown / double completions are
  /// ignored (a requeued shard can race its original worker's late
  /// completion — results are idempotent, so first-wins either way).
  void complete(std::size_t shard_id);

  /// Requeue every shard currently leased to @p worker_id (the worker's
  /// connection died).  Returns how many shards went back.
  std::size_t abandon(std::uint64_t worker_id);

  /// A worker reported the shard as failed.  Requeues it and returns true
  /// while it has attempts left (each shard gets 1 + @p retries runs);
  /// returns false when the shard is out of attempts — job is lost.
  bool fail(std::size_t shard_id, unsigned retries);

  /// True when every shard has completed.
  bool done() const;

  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  const std::vector<std::vector<std::size_t>> shards_;  ///< by shard id
  std::deque<std::size_t> pending_;
  std::unordered_map<std::size_t, std::uint64_t> leased_;  ///< shard -> worker
  std::vector<unsigned> attempts_;                ///< by shard id
  std::size_t completed_ = 0;
  std::size_t requeues_ = 0;
  std::vector<bool> completed_flags_;
};

}  // namespace sramlp::dist
