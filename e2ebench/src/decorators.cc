#include "decorators.h"

#include "tracer.h"

namespace e2e {

using Scope = Tracer::Scope;

ecc::StatusOr<std::string> TracingBackend::Get(ecc::core::Key k) {
  Scope s(Layer::kBackendGet);
  auto r = inner_->Get(k);
  s.set_ok(r.ok());
  return r;
}

ecc::Status TracingBackend::Put(ecc::core::Key k, std::string v) {
  Scope s(Layer::kBackendPut);
  ecc::Status st = inner_->Put(k, std::move(v));
  s.set_ok(st.ok());
  return st;
}

std::size_t TracingBackend::EvictKeys(const std::vector<ecc::core::Key>& keys) {
  Scope s(Layer::kBackendEvict);
  const std::size_t n = inner_->EvictKeys(keys);
  s.set_value(static_cast<std::uint32_t>(n));
  return n;
}

std::vector<std::pair<ecc::core::Key, std::string>> TracingBackend::ExtractKeys(
    const std::vector<ecc::core::Key>& keys) {
  Scope s(Layer::kBackendEvict);
  auto out = inner_->ExtractKeys(keys);
  s.set_value(static_cast<std::uint32_t>(out.size()));
  return out;
}

bool TracingBackend::TryContract() {
  Scope s(Layer::kBackendContract);
  const bool changed = inner_->TryContract();
  s.set_ok(changed);
  return changed;
}

ecc::StatusOr<ecc::service::ServiceResult> TracingService::Invoke(
    const ecc::sfc::GeoTemporalQuery& q, ecc::VirtualClock* clock) {
  Scope s(Layer::kServiceInvoke);
  auto r = inner_->Invoke(q, clock);
  s.set_ok(r.ok());
  return r;
}

ecc::StatusOr<ecc::net::Message> TracingChannel::Call(
    const ecc::net::Message& request) {
  auto r = [&] {
    Scope s(Layer::kNetCall);
    Tracer::Get().SetWireParent(s.id(), s.query());
    auto response = inner_->Call(request);
    s.set_ok(response.ok());
    return response;
  }();
  std::uint64_t bytes = request.WireSize();
  if (r.ok()) bytes += r->WireSize();
  wire_bytes_->fetch_add(bytes, std::memory_order_relaxed);
  return r;
}

std::unique_ptr<ecc::net::RpcServer> MakeTracingDispatcher(
    ecc::net::RpcServer* node) {
  auto server = std::make_unique<ecc::net::RpcServer>();
  // Every tag the protocol defines; tags the node does not handle get the
  // node's own Unavailable answer, exactly as without the forwarder.
  for (auto t = static_cast<std::uint8_t>(ecc::net::MsgType::kGetRequest);
       t <= static_cast<std::uint8_t>(ecc::net::MsgType::kDigestResponse);
       ++t) {
    server->Handle(static_cast<ecc::net::MsgType>(t),
                   [node](const ecc::net::Message& m) {
                     Scope s(Layer::kNodeDispatch, /*remote_parent=*/true);
                     auto r = node->Dispatch(m);
                     s.set_ok(r.ok());
                     return r;
                   });
  }
  return server;
}

ecc::net::RpcServer* TracedWiring::DispatcherFor(ecc::core::NodeId id,
                                                 ecc::net::RpcServer* node) {
  auto& dispatcher = dispatchers[id];
  if (!dispatcher) dispatcher = MakeTracingDispatcher(node);
  return dispatcher.get();
}

std::function<std::unique_ptr<ecc::net::Channel>(
    ecc::core::NodeId, ecc::net::RpcServer*, ecc::VirtualClock*)>
TracedLoopbackFactory(TracedWiring* wiring,
                      const ecc::net::NetworkModelOptions& net) {
  return [wiring, net](ecc::core::NodeId id, ecc::net::RpcServer* node,
                       ecc::VirtualClock* clock)
             -> std::unique_ptr<ecc::net::Channel> {
    return std::make_unique<TracingChannel>(
        std::make_unique<ecc::net::LoopbackChannel>(
            wiring->DispatcherFor(id, node), ecc::net::NetworkModel(net),
            clock),
        &wiring->wire_bytes);
  };
}

void TracingListener::OnInsert(ecc::core::Key k, std::string_view v) {
  Scope s(Layer::kDurabilityAppend);
  inner_->OnInsert(k, v);
}

void TracingListener::OnErase(ecc::core::Key k) {
  Scope s(Layer::kDurabilityAppend);
  inner_->OnErase(k);
}

void TracingListener::OnEraseRange(ecc::core::Key lo, ecc::core::Key hi) {
  Scope s(Layer::kDurabilityAppend);
  inner_->OnEraseRange(lo, hi);
}

void TracingMaintenance::Tick() {
  Scope s(Layer::kDurabilityTick);
  inner_->Tick();
}

}  // namespace e2e
