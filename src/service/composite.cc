#include "service/composite.h"

#include <cassert>

#include "net/wire.h"

namespace ecc::service {

CachedStage::CachedStage(Service* service, ResultCache* cache,
                         const sfc::Linearizer* linearizer)
    : service_(service), cache_(cache), linearizer_(linearizer) {
  assert(service != nullptr);
  assert(cache == nullptr || linearizer != nullptr);
}

StatusOr<std::string> CachedStage::Materialize(
    const sfc::GeoTemporalQuery& q, VirtualClock* clock) {
  if (cache_ != nullptr) {
    auto key = linearizer_->EncodeQuery(q);
    if (!key.ok()) return key.status();
    auto cached = cache_->Lookup(*key);
    if (cached.ok()) {
      ++hits_;
      return cached;
    }
    ++misses_;
    auto result = service_->Invoke(q, clock);
    if (!result.ok()) return result.status();
    cache_->Store(*key, result->payload);
    return std::move(result->payload);
  }
  ++misses_;
  auto result = service_->Invoke(q, clock);
  if (!result.ok()) return result.status();
  return std::move(result->payload);
}

std::string BundleCompose(const std::vector<std::string>& parts) {
  net::WireWriter w;
  w.PutVarint(parts.size());
  for (const std::string& part : parts) w.PutBytes(part);
  return w.TakeBuffer();
}

StatusOr<std::vector<std::string>> BundleDecompose(
    const std::string& bundle) {
  net::WireReader r(bundle);
  std::uint64_t count = 0;
  if (Status s = r.GetVarint(count); !s.ok()) return s;
  if (count > r.remaining()) {  // each part costs >= 1 wire byte
    return Status::InvalidArgument("part count exceeds payload");
  }
  std::vector<std::string> parts;
  parts.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string part;
    if (Status s = r.GetBytes(part); !s.ok()) return s;
    parts.push_back(std::move(part));
  }
  return parts;
}

CompositeService::CompositeService(std::string name, ComposeFn compose)
    : name_(std::move(name)), compose_(std::move(compose)) {
  assert(compose_ != nullptr);
}

void CompositeService::AddStage(CachedStage stage) {
  const std::lock_guard<std::mutex> g(mutex_);
  stages_.push_back(std::move(stage));
}

StatusOr<ServiceResult> CompositeService::Invoke(
    const sfc::GeoTemporalQuery& q, VirtualClock* clock) {
  const std::lock_guard<std::mutex> g(mutex_);
  if (stages_.empty()) {
    return Status::FailedPrecondition("composite has no stages");
  }
  ++invocations_;
  const TimePoint start =
      clock != nullptr ? clock->now() : TimePoint::Epoch();
  std::vector<std::string> parts;
  parts.reserve(stages_.size());
  for (CachedStage& stage : stages_) {
    auto part = stage.Materialize(q, clock);
    if (!part.ok()) return part.status();
    parts.push_back(std::move(*part));
  }
  ServiceResult result;
  result.payload = compose_(parts);
  result.exec_time =
      clock != nullptr ? clock->now() - start : Duration::Zero();
  return result;
}

std::uint64_t CompositeService::invocations() const {
  const std::lock_guard<std::mutex> g(mutex_);
  return invocations_;
}

}  // namespace ecc::service
