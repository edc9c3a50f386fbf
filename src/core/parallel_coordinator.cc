#include "core/parallel_coordinator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/log.h"

namespace ecc::core {

ParallelCoordinator::ParallelCoordinator(ParallelCoordinatorOptions opts,
                                         CacheBackend* cache,
                                         service::Service* service,
                                         const sfc::Linearizer* linearizer)
    : opts_(opts),
      cache_(cache),
      service_(service),
      linearizer_(linearizer),
      worker_states_(opts.workers == 0 ? 1 : opts.workers),
      pool_(opts.workers == 0 ? 1 : opts.workers),
      window_(opts.window) {
  assert(cache != nullptr && service != nullptr && linearizer != nullptr);
  policy_ = opts_.policy;
  if (policy_ == nullptr) {
    own_policy_ =
        std::make_unique<policy::PaperBaselinePolicy>(opts_.contraction_epsilon);
    policy_ = own_policy_.get();
  }
  m_policy_evictions_ = opts_.obs.MakeCounter("policy.evictions");
  m_policy_contracts_ = opts_.obs.MakeCounter("policy.contract_signals");
  m_policy_prewarms_ = opts_.obs.MakeCounter("policy.prewarm_launches");
  m_queries_ = opts_.obs.MakeCounter("pc.queries");
  m_hits_ = opts_.obs.MakeCounter("pc.hits");
  m_coalesced_ = opts_.obs.MakeCounter("pc.coalesced");
  m_misses_ = opts_.obs.MakeCounter("pc.misses");
  trace_ = opts_.obs.trace;
  telemetry_ = opts_.obs.telemetry;
  if (opts_.overload.enabled) {
    m_shed_ = opts_.obs.MakeCounter("overload.shed");
    m_stale_ = opts_.obs.MakeCounter("overload.stale_serves");
    m_deadline_ = opts_.obs.MakeCounter("overload.deadline_exceeded");
    if (opts_.obs.metrics != nullptr) {
      g_queue_peak_ = opts_.obs.metrics->GetGauge("overload.queue_peak");
    }
    if (opts_.overload.breaker_enabled) {
      breaker_ = std::make_unique<overload::CircuitBreaker>(
          opts_.overload.breaker, trace_);
      breaker_->BindMetrics(
          opts_.obs.MakeCounter("overload.breaker_opens"),
          opts_.obs.MakeCounter("overload.breaker_rejections"));
    }
    // Always a queue under overload protection (queue_limit 0 leaves it
    // unbounded): it owns the one-at-a-time service slot being protected.
    admission_ =
        std::make_unique<overload::AdmissionQueue>(opts_.overload.admission);
  }
  if (opts_.front.enabled) {
    fronttier::InvalidationHub* hub = opts_.front.hub;
    if (hub == nullptr) {
      own_hub_ = std::make_unique<fronttier::InvalidationHub>();
      hub = own_hub_.get();
    }
    cache_->AttachInvalidationHub(hub);
    // One private front cache per worker: the hot path takes no shared
    // lock, only atomic loads from the hub.  All workers' caches register
    // the same fronttier.* counter names, so the registry cells aggregate
    // across workers for free.
    for (WorkerState& w : worker_states_) {
      w.front =
          std::make_unique<fronttier::FrontCache>(opts_.front, hub, opts_.obs);
    }
  }
}

ParallelQueryResult ParallelCoordinator::ProcessKeyAs(std::size_t worker,
                                                      Key k) {
  assert(worker < worker_states_.size());
  WorkerState& w = worker_states_[worker];
  w.in_flight.store(1, std::memory_order_relaxed);
  const TimePoint start = w.clock.now();

  ++w.slice[k];
  Bump(w.queries);
  Bump(w.step_queries);
  m_queries_.Inc();
  obs::Emit(trace_, obs::QueryStartEvent(start, k));

  const overload::OverloadOptions& ov = opts_.overload;
  Deadline deadline;
  if (ov.enabled && ov.query_deadline > Duration::Zero()) {
    deadline = Deadline{&w.clock, start + ov.query_deadline};
  }
  // Layers below (RPC retry inside the backend) read the thread-local.
  const overload::ScopedDeadline scope(deadline);

  ParallelQueryResult result;
  // Front tier: the hottest keys answer from this worker's private cache,
  // skipping the backend probe — its locks, channel and node dispatch — at
  // a fraction of the modelled lookup cost.  On a front miss the freshness
  // stamp is captured BEFORE the backend read; Offer() re-validates it at
  // admission (DESIGN.md §12).
  fronttier::Stamp pre_read{};
  bool front_hit = false;
  if (w.front != nullptr) {
    if (w.front->Find(k, w.clock.now()).value != nullptr) {
      w.clock.Advance(opts_.front.hit_cost);
      front_hit = true;
      result.path = QueryPath::kHit;
      Bump(w.hits);
      Bump(w.front_hits);
    } else {
      pre_read = w.front->PreReadStamp(k);
    }
  }
  if (!front_hit) {
    w.clock.Advance(opts_.lookup_cost);  // the probe every path pays
    auto cached = cache_->Get(k);
    if (cached.ok()) {
      result.path = QueryPath::kHit;
      Bump(w.hits);
      // Hit-path admission only: the value just read is provably
      // consistent with the stamp taken above (miss-path values are not —
      // their own Put moves the version).
      if (w.front != nullptr) {
        (void)w.front->Offer(k, *cached, pre_read, w.clock.now());
      }
    } else {
      result.path = MissPath(w, k, deadline, result.deadline_exceeded);
    }
  }
  if (result.path == QueryPath::kHit || result.path == QueryPath::kCoalesced ||
      result.path == QueryPath::kStale) {
    // Coalesced and stale count toward the step hit ratio: no service work
    // was done.  Shed answers nothing, so it counts as a (refused) miss.
    Bump(w.step_hits);
  }

  result.latency = w.clock.now() - start;
  w.latency_us.Add(static_cast<double>(result.latency.micros()));
  Bump(w.step_query_time_us,
       static_cast<std::uint64_t>(result.latency.micros()));
  obs::QueryOutcomeKind outcome = obs::QueryOutcomeKind::kMiss;
  switch (result.path) {
    case QueryPath::kHit:
      m_hits_.Inc();
      outcome = obs::QueryOutcomeKind::kHit;
      break;
    case QueryPath::kCoalesced:
      m_coalesced_.Inc();
      outcome = obs::QueryOutcomeKind::kCoalesced;
      break;
    case QueryPath::kMiss:
      m_misses_.Inc();
      outcome = obs::QueryOutcomeKind::kMiss;
      break;
    case QueryPath::kShed:
      m_shed_.Inc();
      outcome = obs::QueryOutcomeKind::kShed;
      break;
    case QueryPath::kStale:
      m_stale_.Inc();
      outcome = obs::QueryOutcomeKind::kStale;
      break;
  }
  if (trace_ != nullptr) {
    trace_->Append(
        obs::QueryEndEvent(w.clock.now(), k, outcome, result.latency));
  }
  w.in_flight.store(0, std::memory_order_relaxed);
  return result;
}

QueryPath ParallelCoordinator::MissPath(WorkerState& w, Key k,
                                        const Deadline& deadline,
                                        bool& deadline_exceeded) {
  // Single-flight election: exactly one leader per key at a time.
  std::promise<FlightResult> promise;
  std::shared_future<FlightResult> follow;
  bool leader = false;
  {
    const std::lock_guard<std::mutex> g(flights_mutex_);
    auto it = flights_.find(k);
    if (it != flights_.end()) {
      follow = it->second;
    } else {
      leader = true;
      flights_.emplace(k, promise.get_future().share());
    }
  }

  if (!leader) {
    Bump(w.coalesced);
    // Block (in real time) until the leader lands the result.  In virtual
    // time the follower is a hit-in-flight: it already paid its probe, and
    // the service work it would have duplicated is charged to the leader.
    // A failed flight (result.ok == false) stays coalesced: the follower
    // was not charged the failed call either, and with nothing cached the
    // key's next query elects a fresh leader and retries the service.  A
    // *shed* flight is published the same way — nothing cached, followers
    // uncharged — so a storm refused at the gate costs one shed, not N.
    (void)follow.get();
    return QueryPath::kCoalesced;
  }

  // Leader.  Double-check the cache: the previous flight for this key may
  // have landed between our miss and our registration; without this
  // re-probe that interleaving would invoke the service a second time.
  const overload::OverloadOptions& ov = opts_.overload;
  FlightResult flight;
  bool from_cache = false;
  bool shed = false;
  obs::ShedCode shed_reason = obs::ShedCode::kQueueFull;
  w.clock.Advance(opts_.lookup_cost);
  auto again = cache_->Get(k);
  if (again.ok()) {
    flight.ok = true;
    flight.payload = std::move(*again);
    from_cache = true;
  } else {
    // Overload gates, cheapest first: a spent deadline or an open breaker
    // refuses before touching admission; the queue bounds how many leaders
    // may wait for its one-at-a-time service slot.
    overload::AdmissionQueue::Ticket ticket = overload::AdmissionQueue::kRejected;
    if (ov.enabled) {
      if (deadline.Expired()) {
        shed = true;
        shed_reason = obs::ShedCode::kDeadline;
      } else if (breaker_ != nullptr && !breaker_->Allow(w.clock.now())) {
        shed = true;
        shed_reason = obs::ShedCode::kBreakerOpen;
      } else {
        ticket = admission_->Enter();
        if (ticket == overload::AdmissionQueue::kRejected) {
          shed = true;
          shed_reason = obs::ShedCode::kQueueFull;
        }
      }
    }
    if (!shed) {
      const sfc::GeoTemporalQuery q = linearizer_->CellCenter(k);
      bool started = false;
      // Services are safe to invoke concurrently (service.h): with overload
      // protection off there is no admission queue and leaders of distinct
      // keys run in parallel.  With it on, they wait here for the queue's
      // single service slot.
      if (ticket != overload::AdmissionQueue::kRejected) {
        started = admission_->StartService(ticket);
        if (!started) {
          // Our ticket was revoked (drop-oldest) while we waited for the
          // service slot; a newer query took our place.
          shed = true;
          shed_reason = obs::ShedCode::kDropped;
        }
      }
      if (!shed && ov.enabled) {
        // Invoke on a scratch clock and charge at most the remaining
        // deadline budget: the caller stops waiting when the budget is
        // gone, even though the (late) answer still warms the cache.  The
        // breaker sees the *full* cost so browned-out slow calls trip it.
        VirtualClock scratch;
        auto invoked = service_->Invoke(q, &scratch);
        const Duration cost = scratch.now() - TimePoint::Epoch();
        const Duration remaining = deadline.Remaining();
        w.clock.Advance(std::min(cost, remaining));
        if (cost > remaining) {
          deadline_exceeded = true;
          Bump(w.deadline_exceeded);
          m_deadline_.Inc();
          obs::Emit(trace_, obs::DeadlineExceededEvent(w.clock.now(), k,
                                                       cost - remaining));
        }
        if (breaker_ != nullptr) {
          breaker_->Record(w.clock.now(), invoked.ok(), cost);
        }
        if (invoked.ok()) {
          flight.ok = true;
          flight.payload = std::move(invoked->payload);
        } else {
          Bump(w.service_failures);
          ECC_LOG_WARN(
              "parallel-coordinator: service failed for key %llu: %s",
              static_cast<unsigned long long>(k),
              invoked.status().ToString().c_str());
        }
      } else if (!shed) {
        auto invoked = service_->Invoke(q, &w.clock);
        if (invoked.ok()) {
          flight.ok = true;
          flight.payload = std::move(invoked->payload);
        } else {
          // Injected (or real) service failure: publish the failure to the
          // followers instead of caching an empty payload as if it were an
          // answer.  Only the leader's clock carries the failed call's cost.
          Bump(w.service_failures);
          ECC_LOG_WARN(
              "parallel-coordinator: service failed for key %llu: %s",
              static_cast<unsigned long long>(k),
              invoked.status().ToString().c_str());
        }
      }
      // Free the service slot.  A revoked ticket needs no Exit/Cancel:
      // revocation already removed it from the waiting set.
      if (started) admission_->Exit(ticket);
    }
    if (flight.ok) {
      w.clock.Advance(opts_.lookup_cost);  // the insert below
      // The insert is cache maintenance, not caller-visible wait: suspend
      // the query's (possibly already-expired) deadline so the late answer
      // still warms the cache instead of having its Put RPC clipped.
      const overload::ScopedDeadline unclipped{Deadline{}};
      if (const Status s = cache_->Put(k, flight.payload); !s.ok()) {
        ECC_LOG_WARN("parallel-coordinator: put failed for key %llu: %s",
                     static_cast<unsigned long long>(k), s.ToString().c_str());
      }
      // Re-caching makes the key fresh again for staleness accounting.
      const std::lock_guard<std::mutex> g(spill_mutex_);
      if (!evicted_at_.empty()) evicted_at_.erase(k);
    }
  }

  QueryPath path = QueryPath::kMiss;
  if (shed) {
    path = ShedPath(w, k, shed_reason, deadline);
  }

  // Publish order matters: the value must be in the cache before the
  // flight is erased, so a thread that misses the table afterwards is
  // guaranteed to hit the cache.
  {
    const std::lock_guard<std::mutex> g(flights_mutex_);
    flights_.erase(k);
  }
  promise.set_value(std::move(flight));

  if (from_cache) {
    Bump(w.hits);
    return QueryPath::kHit;
  }
  if (path == QueryPath::kShed) {
    Bump(w.shed);
    return path;
  }
  if (path == QueryPath::kStale) {
    Bump(w.stale);
    return path;
  }
  Bump(w.misses);
  return QueryPath::kMiss;
}

QueryPath ParallelCoordinator::ShedPath(WorkerState& w, Key k,
                                        obs::ShedCode reason,
                                        const Deadline& deadline) {
  obs::Emit(trace_, obs::LoadShedEvent(w.clock.now(), k, reason));
  const overload::OverloadOptions& ov = opts_.overload;
  if (!ov.stale_serve) return QueryPath::kShed;

  // Degraded answer, two sources: a mirror replica whose eviction ERASE was
  // lost, then the spill tier.  Either is acceptable only within the
  // staleness bound.  The probe cost is itself deadline-clamped so a shed
  // query still lands within budget (+ at most one RPC timeout).
  w.clock.Advance(std::min(ov.stale_probe_cost, deadline.Remaining()));
  obs::StaleSource source = obs::StaleSource::kReplica;
  bool found = cache_->GetStale(k).ok();
  std::uint64_t age = 0;
  bool age_known = false;
  {
    const std::lock_guard<std::mutex> g(spill_mutex_);
    if (!found && spill_ != nullptr && spill_->Get(k).ok()) {
      source = obs::StaleSource::kSpill;
      found = true;
    }
    if (const auto it = evicted_at_.find(k); it != evicted_at_.end()) {
      age = steps_ended_ - it->second;
      age_known = true;
    }
  }
  // A copy with no eviction record is refused: the record was pruned as
  // past the bound (or never existed) — staleness must be provable.
  if (found && age_known && age <= ov.stale_bound_slices) {
    obs::Emit(trace_,
              obs::StaleServeEvent(w.clock.now(), k, source, age));
    return QueryPath::kStale;
  }
  return QueryPath::kShed;
}

StatusOr<ParallelQueryResult> ParallelCoordinator::ProcessQueryAs(
    std::size_t worker, const sfc::GeoTemporalQuery& q) {
  auto key = linearizer_->EncodeQuery(q);
  if (!key.ok()) return key.status();
  return ProcessKeyAs(worker, *key);
}

ParallelBatchReport ParallelCoordinator::RunKeys(
    const std::vector<Key>& keys) {
  const std::size_t n = worker_states_.size();
  ParallelBatchReport report;
  report.queries = keys.size();

  struct Before {
    TimePoint clock;
    std::uint64_t queries, hits, coalesced, misses, shed, stale;
  };
  std::vector<Before> before(n);
  for (std::size_t i = 0; i < n; ++i) {
    const WorkerState& w = worker_states_[i];
    before[i] = {w.clock.now(), w.queries.load(), w.hits.load(),
                 w.coalesced.load(), w.misses.load(), w.shed.load(),
                 w.stale.load()};
  }
  const std::uint64_t invocations_before = service_->invocations();

  // Strided round-robin partition: worker i serves keys i, i+n, i+2n, ...
  // Unlike a shared work cursor, this keeps each worker's virtual-time
  // accounting deterministic — independent of how the OS happens to
  // schedule the real threads — while still interleaving hot bursts
  // across workers so coalescing is exercised.
  for (std::size_t i = 0; i < n; ++i) {
    pool_.Submit([this, i, n, &keys] {
      for (std::size_t at = i; at < keys.size(); at += n) {
        (void)ProcessKeyAs(i, keys[at]);
      }
    });
  }
  pool_.WaitIdle();

  for (std::size_t i = 0; i < n; ++i) {
    const WorkerState& w = worker_states_[i];
    WorkerReport wr;
    wr.worker = i;
    wr.queries = w.queries.load() - before[i].queries;
    wr.busy = w.clock.now() - before[i].clock;
    wr.p50_us = w.latency_us.Percentile(50);
    wr.p99_us = w.latency_us.Percentile(99);
    report.hits += w.hits.load() - before[i].hits;
    report.coalesced += w.coalesced.load() - before[i].coalesced;
    report.misses += w.misses.load() - before[i].misses;
    report.shed += w.shed.load() - before[i].shed;
    report.stale += w.stale.load() - before[i].stale;
    report.total_query_time += wr.busy;
    if (wr.busy > report.makespan) report.makespan = wr.busy;
    report.workers.push_back(wr);
  }
  report.service_invocations = service_->invocations() - invocations_before;
  return report;
}

void ParallelCoordinator::FoldWorkerSlices() {
  for (WorkerState& w : worker_states_) {
    assert(w.in_flight.load(std::memory_order_relaxed) == 0 &&
           "folding the window requires a quiesced front-end");
    if (!w.slice.empty()) window_.MergeIntoCurrent(std::exchange(w.slice, {}));
  }
}

TimeStepReport ParallelCoordinator::EndTimeStep() {
  FoldWorkerSlices();  // asserts quiescence
  TimeStepReport report;
  std::uint64_t step_query_time_us = 0;
  for (WorkerState& w : worker_states_) {
    report.step_queries += w.step_queries.exchange(0);
    report.step_hits += w.step_hits.exchange(0);
    step_query_time_us += w.step_query_time_us.exchange(0);
  }
  report.step_misses = report.step_queries - report.step_hits;
  report.step_query_time =
      Duration::Micros(static_cast<std::int64_t>(step_query_time_us));

  const SliceExpiry expiry = window_.AdvanceSlice();

  // Boundary timestamp for policy context and trace events: the batch's
  // virtual "now" is the furthest worker clock (quiesced, so stable).
  TimePoint boundary_now;
  for (const WorkerState& w : worker_states_) {
    boundary_now = std::max(boundary_now, w.clock.now());
  }
  // Policy context + boundary decisions.  This front-end is quiesced here
  // (asserted above), so consulting the single-threaded policy is safe;
  // the per-query hooks (OnQuery/AdmitOnMiss) are deliberately never
  // called from the worker threads.
  policy::PolicyContext ctx;
  ctx.step = steps_ended_;
  ctx.expired_slices = expiry.expired_slices;
  ctx.step_queries = report.step_queries;
  ctx.step_hits = report.step_hits;
  ctx.node_count = cache_->NodeCount();
  ctx.total_records = cache_->TotalRecords();
  ctx.used_bytes = cache_->TotalUsedBytes();
  ctx.capacity_bytes = cache_->TotalCapacityBytes();
  if (opts_.provider != nullptr) {
    ctx.live_instances = opts_.provider->LiveCount();
    ctx.warm_pool = opts_.provider->WarmPoolCount();
  }
  const std::vector<Key> evict = policy_->SelectEvictions(expiry.evicted, ctx);
  if (evict.size() != expiry.evicted.size()) {
    obs::Emit(trace_,
              obs::PolicyDecisionEvent(
                  boundary_now, obs::PolicyDecisionCode::kEvictOverride,
                  obs::kNoKey, static_cast<std::int64_t>(evict.size()),
                  static_cast<std::int64_t>(expiry.evicted.size())));
  }
  if (!evict.empty() && opts_.overload.enabled &&
      opts_.overload.stale_serve) {
    // Stamp eviction time: any copy that survives past this point (a
    // mirror whose ERASE was lost, a spill record) is stale from here on.
    const std::lock_guard<std::mutex> g(spill_mutex_);
    for (const Key k : evict) evicted_at_[k] = steps_ended_;
  }
  if (!evict.empty()) {
    m_policy_evictions_.Inc(evict.size());
    const std::lock_guard<std::mutex> g(spill_mutex_);
    if (spill_ != nullptr) {
      auto extracted = cache_->ExtractKeys(evict);
      report.evicted = extracted.size();
      for (auto& [k, v] : extracted) {
        spill_->Put(k, std::move(v));
        ++spill_puts_;
      }
      report.spilled = extracted.size();
    } else {
      report.evicted = cache_->EvictKeys(evict);
    }
  }
  if (policy_->ShouldContract(ctx)) {
    m_policy_contracts_.Inc();
    obs::Emit(trace_, obs::PolicyDecisionEvent(
                          boundary_now, obs::PolicyDecisionCode::kContract,
                          obs::kNoKey, 0, 0));
    report.contracted = cache_->TryContract();
  }
  if (opts_.provider != nullptr) {
    const std::size_t n = policy_->PrewarmTarget(ctx);
    if (n > 0) {
      opts_.provider->PrewarmAsync(n);
      prewarm_launches_ += n;
      m_policy_prewarms_.Inc(n);
      obs::Emit(trace_, obs::PolicyDecisionEvent(
                            boundary_now, obs::PolicyDecisionCode::kPrewarm,
                            obs::kNoKey, static_cast<std::int64_t>(n), 0));
    }
  }
  report.window_slices = window_.options().slices;

  // Age each worker's front-tier tracker in step with the sliding window.
  // Safe here: the quiesced assert above means no worker thread is
  // touching its cache.
  for (WorkerState& w : worker_states_) {
    if (w.front != nullptr) w.front->OnWindowBoundary(w.clock.now());
  }

  // Sample fleet load at the (quiesced) step boundary; x is the 0-based
  // step index.
  if (telemetry_ != nullptr) {
    telemetry_->Sample(static_cast<double>(steps_ended_),
                       cache_->NodeLoads());
  }
  // Background maintenance (failure detection / recovery / scrub) runs at
  // the same quiesced boundary: no query in flight, so the task may drive
  // the backend's exclusive-topology API without racing the workers.
  if (maintenance_ != nullptr) maintenance_->Tick();
  ++steps_ended_;

  // Entries past the stale bound can never be served again; drop them.
  // Publish the admission high-water mark at the same (quiesced) boundary.
  {
    const std::lock_guard<std::mutex> g(spill_mutex_);
    if (!evicted_at_.empty()) {
      const std::uint64_t bound = opts_.overload.stale_bound_slices;
      for (auto it = evicted_at_.begin(); it != evicted_at_.end();) {
        if (steps_ended_ - it->second > bound) {
          it = evicted_at_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  if (admission_ != nullptr) {
    g_queue_peak_.Set(
        static_cast<std::int64_t>(admission_->stats().peak_depth));
  }
  return report;
}

Histogram ParallelCoordinator::MergedLatency() const {
  Histogram merged{1.0, 1.15};
  for (const WorkerState& w : worker_states_) merged.Merge(w.latency_us);
  return merged;
}

}  // namespace ecc::core
