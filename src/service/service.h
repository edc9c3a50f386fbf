// The Web-service abstraction the cache accelerates.
//
// From the cache's perspective a service is an opaque, expensive function
// from a spatiotemporal query to a small derived blob.  Execution cost is
// charged to the shared virtual clock: the paper's shoreline extraction
// baseline is ~23 s per uncached invocation.
//
// Concurrency contract: Invoke() may be called from several threads at
// once (the parallel front end's leaders of distinct keys do exactly
// that), so every implementation guards its own mutable state — counters,
// jitter RNGs, stage caches — and keeps the expensive, pure part of the
// work outside any lock.  name() and invocations() are safe alongside it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "common/time.h"
#include "service/ctm.h"
#include "sfc/linearizer.h"

namespace ecc::service {

/// Outcome of one service invocation.
struct ServiceResult {
  std::string payload;   ///< the derived result (cache value)
  Duration exec_time;    ///< virtual time the invocation took
};

class Service {
 public:
  virtual ~Service() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Execute the service for `q`, charging the execution time to `clock`
  /// (may be null for cost-free probing in tests).  Safe to call
  /// concurrently; each caller passes its own clock.
  [[nodiscard]] virtual StatusOr<ServiceResult> Invoke(
      const sfc::GeoTemporalQuery& q, VirtualClock* clock) = 0;

  /// Cumulative invocations (for bench accounting).
  [[nodiscard]] virtual std::uint64_t invocations() const = 0;
};

struct ShorelineServiceOptions {
  /// Baseline uncached execution time (paper: ~23 s) and jitter.
  Duration base_exec_time = Duration::Seconds(23);
  Duration exec_jitter = Duration::Seconds(2);
  CtmGeneratorOptions ctm;
  /// Derived result budget; the paper's shoreline blobs are < 1 kB.
  std::size_t max_result_bytes = 1024;
  std::uint64_t seed = 0x5ea5ULL;
  /// Linearizer defining the cell grid (terrain seeds key off cells).
  sfc::LinearizerOptions grid;
};

/// The paper's representative workload: CTM fetch + water level + contour
/// interpolation, all deterministic per (cell, time slot).
class ShorelineService final : public Service {
 public:
  explicit ShorelineService(ShorelineServiceOptions opts = {});

  [[nodiscard]] const std::string& name() const override { return name_; }

  [[nodiscard]] StatusOr<ServiceResult> Invoke(
      const sfc::GeoTemporalQuery& q, VirtualClock* clock) override;

  [[nodiscard]] std::uint64_t invocations() const override;

  [[nodiscard]] const sfc::Linearizer& linearizer() const { return lin_; }
  [[nodiscard]] const ShorelineServiceOptions& options() const {
    return opts_;
  }

 private:
  std::string name_ = "shoreline-extraction";
  ShorelineServiceOptions opts_;
  sfc::Linearizer lin_;
  /// Guards the jitter draw and the counter only; CTM generation and
  /// contouring run unlocked.
  mutable std::mutex mutex_;
  Rng rng_;
  std::uint64_t invocations_ = 0;
};

/// A trivial synthetic service for tests/benches: payload is a fixed-size
/// deterministic blob; cost is constant.
class SyntheticService final : public Service {
 public:
  SyntheticService(std::string name, Duration exec_time,
                   std::size_t payload_bytes);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] StatusOr<ServiceResult> Invoke(
      const sfc::GeoTemporalQuery& q, VirtualClock* clock) override;
  [[nodiscard]] std::uint64_t invocations() const override {
    return invocations_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  Duration exec_time_;
  std::size_t payload_bytes_;
  std::atomic<std::uint64_t> invocations_{0};
};

}  // namespace ecc::service
