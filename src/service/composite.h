// Composite services: stringing cached services together (paper §I:
// services "strung together like building-blocks to generate larger, more
// meaningful applications in processes known as service composition,
// mashups, and service workflows").
//
// A CompositeService runs an ordered list of member services for the same
// query and merges their payloads into one derived result.  Crucially, a
// CachedStage can wrap any member with its own cache backend, so composite
// invocations reuse members' derived data exactly the way the paper's
// workflow system (Auspice) composes cached intermediates into plans.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/service.h"

namespace ecc::service {

/// Minimal cache surface a composition stage needs.  Kept abstract so the
/// service layer does not depend on the cache core; core provides a
/// CacheBackend adapter (core/cache_adapters.h).
class ResultCache {
 public:
  virtual ~ResultCache() = default;
  [[nodiscard]] virtual StatusOr<std::string> Lookup(std::uint64_t key) = 0;
  virtual void Store(std::uint64_t key, const std::string& value) = 0;
};

/// A member of a composition: a service plus an optional cache in front.
class CachedStage {
 public:
  /// `service` is required; `cache` may be null (always invoke).  Neither
  /// is owned.  `linearizer` keys the cache for this stage.
  CachedStage(Service* service, ResultCache* cache,
              const sfc::Linearizer* linearizer);

  /// Result for `q`, from the stage cache when possible.
  [[nodiscard]] StatusOr<std::string> Materialize(
      const sfc::GeoTemporalQuery& q, VirtualClock* clock);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] Service& service() { return *service_; }

 private:
  Service* service_;
  ResultCache* cache_;
  const sfc::Linearizer* linearizer_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Merges member payloads into the composite result.  The default frames
/// each payload with its length (a "mashup bundle").
using ComposeFn =
    std::function<std::string(const std::vector<std::string>&)>;

[[nodiscard]] std::string BundleCompose(
    const std::vector<std::string>& parts);

/// Split a BundleCompose payload back into its parts.
[[nodiscard]] StatusOr<std::vector<std::string>> BundleDecompose(
    const std::string& bundle);

class CompositeService final : public Service {
 public:
  CompositeService(std::string name, ComposeFn compose = BundleCompose);

  /// Stages execute in insertion order.
  void AddStage(CachedStage stage);

  [[nodiscard]] const std::string& name() const override { return name_; }

  /// Runs every stage (cache-first) and composes the results.  Execution
  /// time is whatever the stages charged to the clock.  Concurrent calls
  /// take turns: the stage caches and their counters sit behind one mutex,
  /// held for the whole stage walk.
  [[nodiscard]] StatusOr<ServiceResult> Invoke(
      const sfc::GeoTemporalQuery& q, VirtualClock* clock) override;

  [[nodiscard]] std::uint64_t invocations() const override;
  [[nodiscard]] const std::vector<CachedStage>& stages() const {
    return stages_;
  }
  [[nodiscard]] std::vector<CachedStage>& stages() { return stages_; }

 private:
  std::string name_;
  ComposeFn compose_;
  /// Guards stages_ (their caches and hit/miss counters) and invocations_.
  mutable std::mutex mutex_;
  std::vector<CachedStage> stages_;
  std::uint64_t invocations_ = 0;
};

}  // namespace ecc::service
