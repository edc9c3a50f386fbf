// Striped thread-safe front over the elastic cache.
//
// LockedBackend serializes everything behind one mutex; that is correct but
// collapses a multi-worker front-end back to the paper's sequential
// coordinator.  StripedBackend instead splits the locking by what an
// operation can touch:
//
//   * a topology lock (shared_mutex) — held *shared* by every Get/Put fast
//     path, and *exclusively* by anything that can change the ring, the
//     fleet, or cross-node state (splits, contraction, eviction, aggregate
//     inspection);
//   * per-node reader/writer stripes — Get and GetStale take the stripe of
//     the key's owning node *shared*, a no-split Put takes it *exclusive*.
//     Requests to different nodes proceed in parallel, and so do reads of
//     one node: the read path (ring lookup, loopback channel, RpcServer
//     dispatch, B+-Tree Find) mutates nothing but atomics.
//
// Writer progress: a reader/writer lock that lets readers in whenever no
// writer *holds* it (glibc's std::shared_mutex) starves a writer on a node
// that readers keep busy — a Put on a hot node would wait as long as the
// hit storm lasts.  The stripes therefore prefer a *waiting* writer: once
// one queues, new readers wait behind it (StripeLock).
//
// Put runs two-phase: first PutNoSplit under shared-topology + exclusive
// stripe (the common case once the fleet is warm); if the owner is full it
// retries through the full GBA insert under the exclusive topology lock,
// where splitting and allocation are safe.
//
// Lock order (outer to inner): topology -> node stripe.  (The wrapped
// cache's counters are lock-free registry cells, so there is no inner
// stats lock anymore.)  Never acquire a stripe before the topology lock,
// and never take a stripe twice on one thread: a waiting writer blocks the
// second shared acquisition.
//
// Requirements on the wrapped cache: replicas == 1 (fast paths touch only
// the owner node) — asserted at construction.  Proactive splits are fine:
// they only trigger inside the full Put, which runs exclusively.
#pragma once

#include <pthread.h>

#include <cstddef>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/backend.h"
#include "core/elastic_cache.h"

namespace ecc::core {

/// A reader/writer lock that admits a waiting writer before new readers
/// (see the writer-progress note above).  A contended acquire spins
/// briefly (a few microseconds, about one stripe hold) before it sleeps:
/// waking a sleeper costs a virtual CPU far more than that, and it is what
/// a miss — a read, then a write, of one node that another client is
/// using — would otherwise pay.  Meets the SharedMutex requirements
/// std::shared_lock and std::unique_lock need.
class StripeLock {
 public:
  StripeLock();
  ~StripeLock();
  StripeLock(const StripeLock&) = delete;
  StripeLock& operator=(const StripeLock&) = delete;

  void lock();
  void unlock() { pthread_rwlock_unlock(&lock_); }
  void lock_shared();
  void unlock_shared() { pthread_rwlock_unlock(&lock_); }

 private:
  pthread_rwlock_t lock_;
};

class StripedBackend final : public CacheBackend {
 public:
  /// `inner` is not owned and must outlive the wrapper.  `stripes` bounds
  /// the number of nodes that can be served concurrently.
  explicit StripedBackend(ElasticCache* inner, std::size_t stripes = 16);

  [[nodiscard]] std::string Name() const override {
    return inner_->Name() + "+striped";
  }

  [[nodiscard]] StatusOr<std::string> Get(Key k) override;
  [[nodiscard]] StatusOr<std::string> GetStale(Key k) override;

  /// Forwarded to the inner cache under the exclusive topology lock.  Note
  /// the store itself is unsynchronized: attach it here only when the inner
  /// cache's spill probes (GetStale under replicas == 1, crash accounting)
  /// are externally serialized against every other user of the store.
  void AttachSpillStore(cloudsim::PersistentStore* store) override {
    const std::unique_lock<std::shared_mutex> topo(topology_mutex_);
    inner_->AttachSpillStore(store);
  }

  /// Forwarded under the exclusive topology lock (wiring-time operation;
  /// the hub itself is atomics-only, so the inner cache's bumps need no
  /// further synchronization).
  void AttachInvalidationHub(fronttier::InvalidationHub* hub) override {
    const std::unique_lock<std::shared_mutex> topo(topology_mutex_);
    inner_->AttachInvalidationHub(hub);
  }

  Status Put(Key k, std::string v) override;
  std::size_t EvictKeys(const std::vector<Key>& keys) override;
  std::vector<std::pair<Key, std::string>> ExtractKeys(
      const std::vector<Key>& keys) override;
  bool TryContract() override;

  [[nodiscard]] std::size_t NodeCount() const override;
  [[nodiscard]] std::uint64_t TotalUsedBytes() const override;
  [[nodiscard]] std::uint64_t TotalCapacityBytes() const override;
  [[nodiscard]] std::size_t TotalRecords() const override;

  /// By-value snapshot from the inner cache; safe to poll concurrently
  /// with in-flight workers (see ElasticCache::stats for the consistency
  /// guarantees).
  [[nodiscard]] CacheStats stats() const override { return inner_->stats(); }

  /// Per-node loads, taken under the shared topology lock so the fleet
  /// cannot change mid-walk.
  [[nodiscard]] std::vector<obs::NodeLoad> NodeLoads() const override {
    const std::shared_lock<std::shared_mutex> topo(topology_mutex_);
    return inner_->NodeLoads();
  }

  [[nodiscard]] ElasticCache& inner() { return *inner_; }
  [[nodiscard]] std::size_t stripe_count() const { return stripes_.size(); }

 private:
  [[nodiscard]] StripeLock& StripeFor(NodeId owner) const {
    return stripes_[static_cast<std::size_t>(owner) % stripes_.size()];
  }

  ElasticCache* inner_;
  mutable std::shared_mutex topology_mutex_;
  mutable std::vector<StripeLock> stripes_;
};

}  // namespace ecc::core
