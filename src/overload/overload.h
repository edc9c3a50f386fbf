// Overload-protection options and per-query deadline context.
//
// One OverloadOptions rides in CoordinatorOptions / ParallelOptions and
// configures the whole subsystem: per-query deadlines, the bounded
// admission queue in front of the service, the circuit breaker around it,
// and degraded (stale) answers when the protected path refuses a miss.
// `enabled == false` is the default and must stay zero-cost: the query
// path tests one bool and touches nothing else (the same discipline as
// EccObsDisabled() for metrics).
//
// Deadline propagation: the coordinator stamps a Deadline on the clock
// that carries the query's latency and opens a ScopedDeadline around the
// query.  Layers below that cannot grow a deadline parameter without API
// churn (ElasticCache::CallNode, deep in the backend) read
// CurrentDeadline() — a thread-local, so concurrent front-end workers
// each see only their own query's budget.
#pragma once

#include <cstdint>

#include "common/time.h"
#include "overload/admission.h"
#include "overload/breaker.h"

namespace ecc::overload {

struct OverloadOptions {
  /// Master switch; false = the whole subsystem costs one branch.
  bool enabled = false;

  /// Per-query budget measured on the query's latency clock.  Zero = no
  /// deadline.  A query may overshoot by at most one in-flight service
  /// call clamp or RPC attempt (see DESIGN.md §10).
  Duration query_deadline = Duration::Zero();

  /// Pending-miss queue in front of the one-at-a-time service slot
  /// (queue_limit 0 = unbounded).
  AdmissionOptions admission;

  /// Circuit breaker around the backing service.
  bool breaker_enabled = false;
  BreakerOptions breaker;

  /// When a miss is shed (queue full, breaker open, deadline spent), probe
  /// the mirror replica and the spill tier for a stale copy before
  /// returning a hard shed.
  bool stale_serve = true;
  /// Maximum staleness, in time-step slices, a degraded answer may carry.
  std::uint64_t stale_bound_slices = 4;
  /// Virtual time one stale probe costs the querying worker (replica or
  /// spill lookup; roughly a spill-tier read).
  Duration stale_probe_cost = Duration::Millis(220);
};

/// Overlay `base` with ECC_* environment knobs (see README):
///   ECC_OVERLOAD=1            enable the subsystem
///   ECC_DEADLINE_MS=<n>       per-query deadline
///   ECC_QUEUE_LIMIT=<n>       admission queue bound
///   ECC_QUEUE_POLICY=reject_new|drop_oldest
///   ECC_BREAKER=1             enable the breaker
///   ECC_BREAKER_WINDOW_MS, ECC_BREAKER_THRESHOLD, ECC_BREAKER_MIN_SAMPLES,
///   ECC_BREAKER_COOLDOWN_MS   breaker tuning
///   ECC_STALE=0|1, ECC_STALE_BOUND=<slices>   degraded answers
[[nodiscard]] OverloadOptions OverloadOptionsFromEnv(
    OverloadOptions base = {});

/// The deadline governing work on this thread; inactive when no
/// ScopedDeadline is open.
[[nodiscard]] Deadline CurrentDeadline();

/// RAII thread-local deadline scope (nests; restores the outer deadline).
class ScopedDeadline {
 public:
  explicit ScopedDeadline(Deadline d);
  ~ScopedDeadline();

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  Deadline prev_;
};

}  // namespace ecc::overload
