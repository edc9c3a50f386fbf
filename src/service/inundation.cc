#include "service/inundation.h"

#include <algorithm>
#include <cmath>

#include "net/wire.h"
#include "service/water_level.h"

namespace ecc::service {

InundationMap ComputeInundation(const CoastalTerrainModel& ctm,
                                float water_level) {
  InundationMap map;
  map.width = ctm.width();
  map.height = ctm.height();
  map.water_level = water_level;

  // Row-major RLE, alternating dry/wet starting dry, plus depth moments.
  bool current_wet = false;
  std::uint32_t run = 0;
  std::uint64_t wet_cells = 0;
  double depth_sum = 0.0;
  float max_depth = 0.0f;
  for (std::uint32_t y = 0; y < ctm.height(); ++y) {
    for (std::uint32_t x = 0; x < ctm.width(); ++x) {
      const float elev = ctm.At(x, y);
      const bool wet = elev < water_level;
      if (wet) {
        const float depth = water_level - elev;
        max_depth = std::max(max_depth, depth);
        depth_sum += depth;
        ++wet_cells;
      }
      if (wet == current_wet) {
        ++run;
      } else {
        map.runs.push_back(run);
        current_wet = wet;
        run = 1;
      }
    }
  }
  map.runs.push_back(run);
  const auto total =
      static_cast<std::uint64_t>(ctm.width()) * ctm.height();
  map.submerged_fraction =
      static_cast<double>(wet_cells) / static_cast<double>(total);
  map.max_depth = max_depth;
  map.mean_depth = wet_cells == 0
                       ? 0.0f
                       : static_cast<float>(depth_sum /
                                            static_cast<double>(wet_cells));
  return map;
}

namespace {
constexpr std::uint32_t kMagic = 0x464c4431;  // "FLD1"
}  // namespace

std::string EncodeInundation(const InundationMap& map,
                             std::size_t max_bytes) {
  net::WireWriter w;
  w.PutU32(kMagic);
  w.PutU32(map.width);
  w.PutU32(map.height);
  w.PutDouble(map.water_level);
  w.PutDouble(map.max_depth);
  w.PutDouble(map.mean_depth);
  w.PutDouble(map.submerged_fraction);
  // Emit runs until the budget would be exceeded; a truncated mask keeps
  // the statistics (which is what composite consumers mostly read).
  net::WireWriter runs;
  std::size_t emitted = 0;
  for (std::uint32_t r : map.runs) {
    runs.PutVarint(r);
    ++emitted;
    if (w.size() + runs.size() + 10 > max_bytes) break;
  }
  w.PutVarint(emitted);
  std::string out = w.TakeBuffer();
  out += runs.buffer();
  return out;
}

StatusOr<InundationMap> DecodeInundation(const std::string& blob) {
  net::WireReader r(blob);
  std::uint32_t magic = 0;
  if (Status s = r.GetU32(magic); !s.ok()) return s;
  if (magic != kMagic) return Status::InvalidArgument("bad flood magic");
  InundationMap map;
  double level = 0, max_depth = 0, mean_depth = 0;
  if (Status s = r.GetU32(map.width); !s.ok()) return s;
  if (Status s = r.GetU32(map.height); !s.ok()) return s;
  if (Status s = r.GetDouble(level); !s.ok()) return s;
  if (Status s = r.GetDouble(max_depth); !s.ok()) return s;
  if (Status s = r.GetDouble(mean_depth); !s.ok()) return s;
  if (Status s = r.GetDouble(map.submerged_fraction); !s.ok()) return s;
  map.water_level = static_cast<float>(level);
  map.max_depth = static_cast<float>(max_depth);
  map.mean_depth = static_cast<float>(mean_depth);
  std::uint64_t count = 0;
  if (Status s = r.GetVarint(count); !s.ok()) return s;
  if (count > r.remaining()) {  // each run costs >= 1 wire byte
    return Status::InvalidArgument("run count exceeds payload");
  }
  map.runs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t run = 0;
    if (Status s = r.GetVarint(run); !s.ok()) return s;
    map.runs.push_back(static_cast<std::uint32_t>(run));
  }
  return map;
}

InundationService::InundationService(InundationServiceOptions opts)
    : opts_(opts), lin_(opts.grid), rng_(opts.seed) {}

StatusOr<ServiceResult> InundationService::Invoke(
    const sfc::GeoTemporalQuery& q, VirtualClock* clock) {
  auto cell = lin_.Quantize(q);
  if (!cell.ok()) return cell.status();

  // Same terrain identity scheme as the shoreline service, so composite
  // workflows see a coherent world.
  const std::uint64_t terrain_seed =
      SplitMix64((static_cast<std::uint64_t>(cell->x) << 32) ^ cell->y ^
                 0x5ea5ULL);
  const CoastalTerrainModel ctm = GenerateCtm(terrain_seed, opts_.ctm);
  const WaterLevelModel tide(terrain_seed);
  const auto level =
      static_cast<float>(tide.LevelAt(q.epoch_days) + opts_.surge_m);

  const InundationMap map = ComputeInundation(ctm, level);

  ServiceResult result;
  result.payload = EncodeInundation(map, opts_.max_result_bytes);
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

std::uint64_t InundationService::invocations() const {
  const std::lock_guard<std::mutex> g(mutex_);
  return invocations_;
}

}  // namespace ecc::service
