#include "service/service.h"

#include "service/shoreline.h"
#include "service/water_level.h"

namespace ecc::service {

ShorelineService::ShorelineService(ShorelineServiceOptions opts)
    : opts_(opts), lin_(opts.grid), rng_(opts.seed) {}

StatusOr<ServiceResult> ShorelineService::Invoke(
    const sfc::GeoTemporalQuery& q, VirtualClock* clock) {
  auto cell = lin_.Quantize(q);
  if (!cell.ok()) return cell.status();

  // Terrain identity is the spatial cell; the time slot selects the tide.
  const std::uint64_t terrain_seed =
      SplitMix64((static_cast<std::uint64_t>(cell->x) << 32) ^ cell->y ^
                 opts_.seed);
  const CoastalTerrainModel ctm = GenerateCtm(terrain_seed, opts_.ctm);
  const WaterLevelModel tide(terrain_seed);
  const auto level = static_cast<float>(tide.LevelAt(q.epoch_days));

  const std::vector<Segment> segs = ExtractShoreline(ctm, level);

  ServiceResult result;
  result.payload = EncodeShoreline(segs, ctm.width(), ctm.height(),
                                   opts_.max_result_bytes);
  // Execution cost: base plus jitter, never below half the base.
  double jitter_s = 0.0;
  {
    const std::lock_guard<std::mutex> g(mutex_);
    ++invocations_;
    jitter_s = rng_.Normal(0.0, opts_.exec_jitter.seconds());
  }
  const Duration jitter = Duration::Seconds(jitter_s);
  Duration cost = opts_.base_exec_time + jitter;
  if (cost < opts_.base_exec_time * 0.5) cost = opts_.base_exec_time * 0.5;
  result.exec_time = cost;
  if (clock != nullptr) clock->Advance(cost);
  return result;
}

std::uint64_t ShorelineService::invocations() const {
  const std::lock_guard<std::mutex> g(mutex_);
  return invocations_;
}

SyntheticService::SyntheticService(std::string name, Duration exec_time,
                                   std::size_t payload_bytes)
    : name_(std::move(name)),
      exec_time_(exec_time),
      payload_bytes_(payload_bytes) {}

StatusOr<ServiceResult> SyntheticService::Invoke(
    const sfc::GeoTemporalQuery& q, VirtualClock* clock) {
  invocations_.fetch_add(1, std::memory_order_relaxed);
  ServiceResult result;
  // Deterministic, query-dependent payload.
  const auto tag = static_cast<std::uint64_t>(q.longitude * 1e3) ^
                   (static_cast<std::uint64_t>(q.latitude * 1e3) << 20) ^
                   (static_cast<std::uint64_t>(q.epoch_days * 24.0) << 40);
  std::uint64_t h = SplitMix64(tag);
  result.payload.reserve(payload_bytes_);
  while (result.payload.size() < payload_bytes_) {
    h = SplitMix64(h);
    const char c = static_cast<char>('a' + (h % 26));
    result.payload.push_back(c);
  }
  result.exec_time = exec_time_;
  if (clock != nullptr) clock->Advance(exec_time_);
  return result;
}

}  // namespace ecc::service
