// ParallelCoordinator: the multi-threaded query front-end.
//
// The paper's coordinator (coordinator.h) serializes every query; its whole
// premise, though, is hiding a ~23 s service call behind the cache — so
// under concurrent load the first scaling cliff is N identical misses each
// paying the full service cost.  This front-end drives queries from an
// N-worker thread pool and closes that cliff with *single-flight miss
// coalescing*: concurrent misses on the same key elect one leader, which
// invokes the service exactly once, while followers block on a
// shared_future of the result and are accounted as coalesced hits-in-flight.
//
// Virtual time under real threads: one shared clock cannot express "eight
// workers each spent 23 s concurrently" — interleaved charges would sum to
// 184 s.  Each worker therefore owns a private VirtualClock that accumulates
// only the costs of the queries it served; a batch's virtual makespan is the
// *maximum* per-worker busy time, exactly as wall time would behave on
// dedicated cores.  The shared backend keeps its own (atomic) clock for
// infrastructure costs (boots, migrations); that timeline is not used for
// query latency.  See DESIGN.md, "Concurrency model".
//
// Service calls take no lock of ours: services are safe to invoke
// concurrently (service.h), so leaders of distinct keys run in parallel
// unless overload protection is on: then its admission queue limits them
// to the queue's single service slot (overload/admission.h).
//
// A hit touches nothing another worker writes.  Each worker records its
// queries into its own window slice (folded into the SlidingWindow, in
// worker order, at the quiesced EndTimeStep) and counts its outcomes in
// its own cache-line-aligned counters (summed by the total_*() readers);
// the backend's per-node stripes are shared by readers (striped_backend.h).
//
// Lock order (outer to inner): flights/spill mutexes are leaves and never
// nest with each other; backend locks (StripedBackend: topology -> stripe)
// are acquired only while holding none of ours.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cloudsim/persistent_store.h"
#include "cloudsim/provider.h"
#include "common/histogram.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "common/time.h"
#include "core/backend.h"
#include "core/coordinator.h"  // TimeStepReport
#include "core/sliding_window.h"
#include "core/types.h"
#include "fronttier/front_cache.h"
#include "obs/obs.h"
#include "overload/admission.h"
#include "overload/breaker.h"
#include "overload/overload.h"
#include "policy/policy.h"
#include "service/service.h"
#include "sfc/linearizer.h"

namespace ecc::core {

struct ParallelCoordinatorOptions {
  /// Worker threads in the pool (and per-worker accounting contexts).
  std::size_t workers = 4;
  /// Virtual cost a worker charges itself per cache probe or insert
  /// (dispatch + B+-Tree op; mirrors 2x ElasticCacheOptions::local_op_time).
  Duration lookup_cost = Duration::Micros(40);
  /// Sliding window (same semantics as CoordinatorOptions::window).
  SlidingWindowOptions window;
  /// Attempt contraction every this many slice expirations; 0 disables.
  std::size_t contraction_epsilon = 5;
  /// Observability sinks (none owned, all optional).  obs.metrics receives
  /// pc.{queries,hits,coalesced,misses}; obs.trace gets a query start/end
  /// event pair per ProcessKeyAs stamped from the serving worker's private
  /// clock (coalesced waiters end with outcome "coalesced"); obs.telemetry
  /// is fed one fleet sample per EndTimeStep (quiesced) from the backend's
  /// NodeLoads().
  obs::Observability obs;
  /// Overload protection (deadlines, admission control, breaker, stale
  /// serving); disabled by default and zero-cost when off (DESIGN.md §10).
  overload::OverloadOptions overload;
  /// Front-tier hot-key cache (DESIGN.md §12): one private FrontCache per
  /// worker thread — no shared hot-path lock — all validating against one
  /// shared, atomics-only InvalidationHub.  front.hub may name an external
  /// hub (several coordinators over one backend); otherwise this
  /// coordinator owns one and attaches it to the backend.
  fronttier::FrontTierOptions front;
  /// Elasticity policy (not owned; nullptr = owned PaperBaselinePolicy
  /// from contraction_epsilon).  Policies are not thread-safe, so this
  /// front-end consults only the boundary-time decisions (SelectEvictions/
  /// ShouldContract/PrewarmTarget) at the quiesced EndTimeStep; the
  /// per-query hooks (OnQuery/AdmitOnMiss) are never called — reuse-based
  /// policies degrade gracefully to the decay rule (DESIGN.md §13.6).
  policy::ElasticityPolicy* policy = nullptr;
  /// Cloud provider for the policy cost context + prewarm application
  /// (not owned, optional; touched only at the quiesced boundary).
  cloudsim::CloudProvider* provider = nullptr;
};

/// How one query was answered.
enum class QueryPath {
  kHit,        ///< found in the cache
  kCoalesced,  ///< joined another worker's in-flight miss (no service call)
  kMiss,       ///< led a service invocation
  kShed,       ///< refused under overload, no answer (queue full / breaker)
  kStale,      ///< shed, but answered from a degraded source within bound
};

struct ParallelQueryResult {
  QueryPath path = QueryPath::kMiss;
  /// The service answered past this query's deadline (charge clamped).
  bool deadline_exceeded = false;
  Duration latency;  ///< virtual time on the serving worker's clock
};

/// Per-worker slice of a batch, for throughput-vs-workers reporting.
struct WorkerReport {
  std::size_t worker = 0;
  std::uint64_t queries = 0;
  Duration busy;      ///< virtual time this worker spent in the batch
  double p50_us = 0;  ///< cumulative latency percentiles (all batches)
  double p99_us = 0;
};

struct ParallelBatchReport {
  std::size_t queries = 0;
  std::size_t hits = 0;
  std::size_t coalesced = 0;  ///< misses absorbed by single-flight
  std::size_t misses = 0;     ///< leader misses (service invocations led)
  std::size_t shed = 0;       ///< refused under overload, unanswered
  std::size_t stale = 0;      ///< answered from a degraded source
  std::uint64_t service_invocations = 0;  ///< backend delta over the batch
  /// Max per-worker busy time: the batch's virtual wall time given one
  /// core per worker.
  Duration makespan;
  Duration total_query_time;  ///< sum of per-worker busy times
  std::vector<WorkerReport> workers;

  [[nodiscard]] double QueriesPerSecond() const {
    const double s = makespan.seconds();
    return s <= 0.0 ? 0.0 : static_cast<double>(queries) / s;
  }
};

class ParallelCoordinator {
 public:
  /// `cache` must already be thread-safe (StripedBackend or LockedBackend).
  /// None of the pointers are owned.
  ParallelCoordinator(ParallelCoordinatorOptions opts, CacheBackend* cache,
                      service::Service* service,
                      const sfc::Linearizer* linearizer);

  /// Process one query on worker `worker` (< workers()).  Thread-safe, but
  /// each worker index must be driven by at most one thread at a time —
  /// the index names the private clock/histogram context.
  ParallelQueryResult ProcessKeyAs(std::size_t worker, Key k);

  /// Continuous-coordinate entry point (parity with Coordinator).
  StatusOr<ParallelQueryResult> ProcessQueryAs(std::size_t worker,
                                               const sfc::GeoTemporalQuery& q);

  /// Fan `keys` out across the worker pool in a strided round-robin
  /// partition (worker i serves keys i, i+N, ...) and block until every
  /// query is answered.  Striding keeps per-worker virtual accounting
  /// deterministic regardless of OS scheduling.
  ParallelBatchReport RunKeys(const std::vector<Key>& keys);

  /// Close the current time step: advance the sliding window, apply decay
  /// eviction, and every epsilon expirations attempt contraction.  Must be
  /// called with no queries in flight (asserted); step_hits includes
  /// coalesced hits-in-flight.
  TimeStepReport EndTimeStep();

  /// Attach an S3-like spill tier: decay-evicted records are written there
  /// by EndTimeStep, and the overload stale-serve path probes it for a
  /// bounded-staleness copy when the service is protected.  (Unlike the
  /// sequential Coordinator, the normal miss path does NOT reheat from
  /// spill — leaders go straight to the service.)  Not owned; the store is
  /// not thread-safe, so all access is serialized on an internal mutex.
  void AttachSpillStore(cloudsim::PersistentStore* store) {
    // Deliberately NOT forwarded to the backend: this front-end's ShedPath
    // already probes the spill under spill_mutex_, and the unsynchronized
    // store must never be reachable from concurrent backend calls.
    const std::lock_guard<std::mutex> g(spill_mutex_);
    spill_ = store;
  }

  /// Attach a background maintenance task (failure detection, recovery,
  /// anti-entropy scrub — see src/recovery/).  Ticked once per EndTimeStep,
  /// at the quiesced step boundary (no queries in flight), so the task may
  /// drive the backend's exclusive-topology API.  Not owned.
  void AttachMaintenance(MaintenanceTask* task) { maintenance_ = task; }

  [[nodiscard]] std::size_t workers() const { return worker_states_.size(); }
  [[nodiscard]] CacheBackend& cache() { return *cache_; }
  /// The active elasticity policy (owned baseline when none was supplied).
  /// Safe to inspect only while quiesced.
  [[nodiscard]] policy::ElasticityPolicy& policy() { return *policy_; }
  /// Warm-pool instances launched on the policy's PrewarmTarget (quiesced
  /// reads).
  [[nodiscard]] std::uint64_t prewarm_launches() const {
    return prewarm_launches_;
  }
  /// The window, with every worker's slice folded in.  Call only while no
  /// queries are in flight.
  [[nodiscard]] const SlidingWindow& window() {
    FoldWorkerSlices();
    return window_;
  }

  // Cumulative counters: sums of the per-worker books, safe to read any
  // time (a read during a batch sees each worker's count at some recent
  // query boundary).
  [[nodiscard]] std::uint64_t total_queries() const {
    return Sum(&WorkerState::queries);
  }
  [[nodiscard]] std::uint64_t total_hits() const {
    return Sum(&WorkerState::hits);
  }
  /// Misses that joined an in-flight computation instead of invoking the
  /// service (counted at registration, before the wait completes).
  [[nodiscard]] std::uint64_t coalesced_hits() const {
    return Sum(&WorkerState::coalesced);
  }
  [[nodiscard]] std::uint64_t total_misses() const {
    return Sum(&WorkerState::misses);
  }
  /// Queries answered by the front tier (a subset of total_hits()).
  [[nodiscard]] std::uint64_t front_hits() const {
    return Sum(&WorkerState::front_hits);
  }
  /// Worker `i`'s front cache; nullptr unless opts.front.enabled.  Inspect
  /// only while quiesced (the owning worker mutates it per query).
  [[nodiscard]] const fronttier::FrontCache* front(std::size_t i) const {
    return worker_states_[i].front.get();
  }
  /// Leader service invocations that failed (fault injection).  Followers
  /// of a failed flight stay kCoalesced — they are not charged the failed
  /// call's cost and do not re-invoke — and nothing is cached, so the next
  /// query for the key elects a fresh leader.
  [[nodiscard]] std::uint64_t service_failures() const {
    return Sum(&WorkerState::service_failures);
  }

  // --- Overload protection ------------------------------------------------

  [[nodiscard]] std::uint64_t total_shed() const {
    return Sum(&WorkerState::shed);
  }
  [[nodiscard]] std::uint64_t total_stale() const {
    return Sum(&WorkerState::stale);
  }
  [[nodiscard]] std::uint64_t total_deadline_exceeded() const {
    return Sum(&WorkerState::deadline_exceeded);
  }
  /// nullptr unless overload.enabled && overload.breaker_enabled.
  [[nodiscard]] overload::CircuitBreaker* breaker() { return breaker_.get(); }
  /// nullptr unless overload.enabled.
  [[nodiscard]] overload::AdmissionQueue* admission() {
    return admission_.get();
  }
  /// Records written to the spill tier by decay eviction (quiesced reads).
  [[nodiscard]] std::uint64_t spill_puts() const { return spill_puts_; }

  /// Worker `i`'s private clock (its cumulative virtual busy time).
  [[nodiscard]] TimePoint WorkerTime(std::size_t i) const {
    return worker_states_[i].clock.now();
  }
  /// Latency distribution merged across workers; quiesce before calling.
  [[nodiscard]] Histogram MergedLatency() const;

 private:
  /// A counter with one writer (the owning worker) and any number of
  /// readers: a relaxed load + store, no read-modify-write.
  using Tally = std::atomic<std::uint64_t>;
  static void Bump(Tally& c, std::uint64_t n = 1) {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  /// Everything one worker writes per query, on cache lines of its own.
  struct alignas(64) WorkerState {
    VirtualClock clock;
    Histogram latency_us{1.0, 1.15};
    /// Queries this worker recorded since the last fold into window_.
    SlidingWindow::Slice slice;
    Tally queries{0};
    Tally hits{0};  ///< front-tier hits included
    Tally front_hits{0};
    Tally coalesced{0};
    Tally misses{0};
    Tally shed{0};
    Tally stale{0};
    Tally deadline_exceeded{0};
    Tally service_failures{0};
    // This time step's share of the TimeStepReport (reset at EndTimeStep).
    Tally step_queries{0};
    Tally step_hits{0};
    Tally step_query_time_us{0};
    /// 1 while a query runs on this worker (the EndTimeStep quiesce check).
    std::atomic<std::uint32_t> in_flight{0};
    /// This worker's private front cache (null when the tier is off).
    /// Touched only by the worker's own thread mid-batch and by
    /// EndTimeStep at the quiesced boundary — never shared, never locked.
    std::unique_ptr<fronttier::FrontCache> front;
  };

  [[nodiscard]] std::uint64_t Sum(Tally WorkerState::*counter) const {
    std::uint64_t total = 0;
    for (const WorkerState& w : worker_states_) {
      total += (w.*counter).load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Fold every worker's slice into the window's filling slice, worker 0
  /// first (quiesced only).
  void FoldWorkerSlices();

  /// What a flight leader publishes to its followers.  `ok == false` means
  /// the service invocation failed: followers must not treat the empty
  /// payload as an answer (and must not be charged latency for it).
  struct FlightResult {
    bool ok = false;
    std::string payload;
  };

  /// The miss path: single-flight election, service invocation (leader) or
  /// shared_future wait (follower).  Returns the path taken; sets
  /// `deadline_exceeded` when the leader's service call outran the budget.
  QueryPath MissPath(WorkerState& w, Key k, const Deadline& deadline,
                     bool& deadline_exceeded);

  /// A leader refused service: emit the shed, then (when configured) probe
  /// the mirror replica and the spill tier for a bounded-staleness copy.
  /// Returns kStale on a degraded answer, kShed otherwise.
  QueryPath ShedPath(WorkerState& w, Key k, obs::ShedCode reason,
                     const Deadline& deadline);

  ParallelCoordinatorOptions opts_;
  CacheBackend* cache_;
  service::Service* service_;
  const sfc::Linearizer* linearizer_;
  /// Fixed at construction; WorkerState is neither copied nor moved.
  std::vector<WorkerState> worker_states_;
  ThreadPool pool_;

  /// Written only at quiesced folds; workers record into their slices.
  SlidingWindow window_;

  // Elasticity policy, consulted only at the quiesced boundary.
  std::unique_ptr<policy::ElasticityPolicy> own_policy_;
  policy::ElasticityPolicy* policy_ = nullptr;
  std::uint64_t prewarm_launches_ = 0;  ///< written quiesced

  std::mutex flights_mutex_;  ///< guards flights_
  std::unordered_map<Key, std::shared_future<FlightResult>> flights_;

  // Null-safe observability handles (unregistered when no registry wired).
  // Trace events are stamped from each worker's private clock, so the log's
  // timestamps are per-worker monotone, not globally ordered.
  obs::Counter m_queries_, m_hits_, m_coalesced_, m_misses_;
  obs::Counter m_shed_, m_stale_, m_deadline_;
  obs::Counter m_policy_evictions_, m_policy_contracts_, m_policy_prewarms_;
  obs::Gauge g_queue_peak_;
  obs::TraceLog* trace_ = nullptr;
  obs::FleetTelemetry* telemetry_ = nullptr;
  std::size_t steps_ended_ = 0;  ///< guarded by quiescence (EndTimeStep)

  // Overload protection (all null/inert when opts_.overload.enabled is
  // false — the query path tests one bool).
  std::unique_ptr<overload::CircuitBreaker> breaker_;
  std::unique_ptr<overload::AdmissionQueue> admission_;
  /// Guards spill_ (PersistentStore is not thread-safe) and evicted_at_.
  std::mutex spill_mutex_;
  cloudsim::PersistentStore* spill_ = nullptr;
  std::uint64_t spill_puts_ = 0;  ///< written by EndTimeStep (quiesced)
  MaintenanceTask* maintenance_ = nullptr;  ///< ticked quiesced (EndTimeStep)
  /// Key -> steps_ended_ at decay eviction (staleness bound accounting).
  std::unordered_map<Key, std::size_t> evicted_at_;

  /// Shared invalidation hub when the front tier is on (owned unless
  /// opts_.front.hub supplied an external one).
  std::unique_ptr<fronttier::InvalidationHub> own_hub_;
};

}  // namespace ecc::core
