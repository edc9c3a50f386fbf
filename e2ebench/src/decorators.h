// Tracing decorators, installed only in the traced run through seams the
// stack already has: a CacheBackend* and a Service* handed to the
// coordinator, ElasticCacheOptions::channel_factory (a Channel around the
// transport plus a forwarding RpcServer in front of each node's own),
// ElasticCacheOptions::durability_factory (a listener around the WAL
// mirror) and AttachMaintenance (a task around the durability tick).
// Every decorator forwards verbatim, so behaviour and virtual time are the
// untraced run's; each one opens a Tracer span around the forwarded call.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.h"
#include "core/cache_node.h"
#include "core/maintenance.h"
#include "net/channel.h"
#include "net/netmodel.h"
#include "net/rpc.h"
#include "service/service.h"

namespace e2e {

class TracingBackend final : public ecc::core::CacheBackend {
 public:
  /// `inner` is not owned and must outlive the decorator.
  explicit TracingBackend(ecc::core::CacheBackend* inner) : inner_(inner) {}

  [[nodiscard]] std::string Name() const override { return inner_->Name(); }
  [[nodiscard]] ecc::StatusOr<std::string> Get(ecc::core::Key k) override;
  [[nodiscard]] ecc::StatusOr<std::string> GetStale(
      ecc::core::Key k) override {
    return inner_->GetStale(k);
  }
  void AttachSpillStore(ecc::cloudsim::PersistentStore* store) override {
    inner_->AttachSpillStore(store);
  }
  void AttachInvalidationHub(ecc::fronttier::InvalidationHub* hub) override {
    inner_->AttachInvalidationHub(hub);
  }
  ecc::Status Put(ecc::core::Key k, std::string v) override;
  std::size_t EvictKeys(const std::vector<ecc::core::Key>& keys) override;
  std::vector<std::pair<ecc::core::Key, std::string>> ExtractKeys(
      const std::vector<ecc::core::Key>& keys) override;
  bool TryContract() override;
  [[nodiscard]] std::size_t NodeCount() const override {
    return inner_->NodeCount();
  }
  [[nodiscard]] std::uint64_t TotalUsedBytes() const override {
    return inner_->TotalUsedBytes();
  }
  [[nodiscard]] std::uint64_t TotalCapacityBytes() const override {
    return inner_->TotalCapacityBytes();
  }
  [[nodiscard]] std::size_t TotalRecords() const override {
    return inner_->TotalRecords();
  }
  [[nodiscard]] ecc::core::CacheStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::vector<ecc::obs::NodeLoad> NodeLoads() const override {
    return inner_->NodeLoads();
  }

 private:
  ecc::core::CacheBackend* inner_;
};

class TracingService final : public ecc::service::Service {
 public:
  /// `inner` is not owned and must outlive the decorator.
  explicit TracingService(ecc::service::Service* inner) : inner_(inner) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] ecc::StatusOr<ecc::service::ServiceResult> Invoke(
      const ecc::sfc::GeoTemporalQuery& q, ecc::VirtualClock* clock) override;
  [[nodiscard]] std::uint64_t invocations() const override {
    return inner_->invocations();
  }

 private:
  ecc::service::Service* inner_;
};

class TracingChannel final : public ecc::net::Channel {
 public:
  /// Adds each call's request and response wire size to `*wire_bytes`
  /// (not owned; must outlive the channel).
  TracingChannel(std::unique_ptr<ecc::net::Channel> inner,
                 std::atomic<std::uint64_t>* wire_bytes)
      : inner_(std::move(inner)), wire_bytes_(wire_bytes) {}

  [[nodiscard]] ecc::StatusOr<ecc::net::Message> Call(
      const ecc::net::Message& request) override;
  [[nodiscard]] ecc::VirtualClock* clock() const override {
    return inner_->clock();
  }
  void Wait(ecc::Duration d) override { inner_->Wait(d); }
  [[nodiscard]] ecc::net::ChannelStats stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<ecc::net::Channel> inner_;
  std::atomic<std::uint64_t>* wire_bytes_;
};

/// An RpcServer that forwards every message type to `node` (not owned;
/// must outlive the result) inside a node-dispatch span.  Put it where the
/// node's own server would go: under a LoopbackChannel or a TcpServer.
[[nodiscard]] std::unique_ptr<ecc::net::RpcServer> MakeTracingDispatcher(
    ecc::net::RpcServer* node);

/// What a traced stack's channel factory owns: one forwarding dispatcher
/// per node, and the wire bytes its TracingChannels count.
struct TracedWiring {
  std::map<ecc::core::NodeId, std::unique_ptr<ecc::net::RpcServer>>
      dispatchers;
  std::atomic<std::uint64_t> wire_bytes{0};

  /// The node's dispatcher, made on first use.
  ecc::net::RpcServer* DispatcherFor(ecc::core::NodeId id,
                                     ecc::net::RpcServer* node);
};

/// A channel_factory that rebuilds the cache's default transport (a
/// LoopbackChannel under NetworkModel(`net`)) behind `wiring`'s
/// dispatcher, wrapped in a TracingChannel.  `wiring` must outlive the
/// cache.
[[nodiscard]] std::function<std::unique_ptr<ecc::net::Channel>(
    ecc::core::NodeId, ecc::net::RpcServer*, ecc::VirtualClock*)>
TracedLoopbackFactory(TracedWiring* wiring,
                      const ecc::net::NetworkModelOptions& net);

class TracingListener final : public ecc::core::ShardMutationListener {
 public:
  explicit TracingListener(
      std::unique_ptr<ecc::core::ShardMutationListener> inner)
      : inner_(std::move(inner)) {}

  void OnInsert(ecc::core::Key k, std::string_view v) override;
  void OnErase(ecc::core::Key k) override;
  void OnEraseRange(ecc::core::Key lo, ecc::core::Key hi) override;
  void OnRestore() override { inner_->OnRestore(); }

 private:
  std::unique_ptr<ecc::core::ShardMutationListener> inner_;
};

class TracingMaintenance final : public ecc::core::MaintenanceTask {
 public:
  /// `inner` is not owned and must outlive the decorator.
  explicit TracingMaintenance(ecc::core::MaintenanceTask* inner)
      : inner_(inner) {}
  void Tick() override;

 private:
  ecc::core::MaintenanceTask* inner_;
};

}  // namespace e2e
