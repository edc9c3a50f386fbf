// Inundation mapping service: a second concrete service for composite
// workflows.
//
// The paper motivates the cache with disaster-response mashups where
// "services can be strung together like building-blocks".  Shoreline
// extraction answers "where is the waterline"; inundation mapping answers
// "which cells are under water, and how deep" — for the same CTM and tide
// substrate.  Output is a compact run-length-encoded flood mask plus depth
// statistics, sized like the paper's derived results (~1 kB).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/time.h"
#include "service/ctm.h"
#include "service/service.h"
#include "sfc/linearizer.h"

namespace ecc::service {

/// Decoded inundation summary.
struct InundationMap {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  float water_level = 0.0f;
  float max_depth = 0.0f;
  float mean_depth = 0.0f;       ///< over submerged cells
  double submerged_fraction = 0.0;
  /// Run-length encoding of the flood mask in row-major order:
  /// alternating (dry run, wet run) lengths, starting dry.
  std::vector<std::uint32_t> runs;
};

/// Compute the map directly (the service's kernel, exposed for tests).
[[nodiscard]] InundationMap ComputeInundation(const CoastalTerrainModel& ctm,
                                              float water_level);

/// Compact binary encoding (RLE runs as varints).
[[nodiscard]] std::string EncodeInundation(const InundationMap& map,
                                           std::size_t max_bytes = 1024);
[[nodiscard]] StatusOr<InundationMap> DecodeInundation(
    const std::string& blob);

struct InundationServiceOptions {
  Duration base_exec_time = Duration::Seconds(17);
  Duration exec_jitter = Duration::Seconds(1.5);
  CtmGeneratorOptions ctm;
  std::size_t max_result_bytes = 1024;
  std::uint64_t seed = 0xf100dULL;
  sfc::LinearizerOptions grid;
  /// Storm surge added on top of the tide (scenario knob).
  double surge_m = 0.0;
};

/// CTM + tide + flood-mask extraction, deterministic per cell/time slot.
class InundationService final : public Service {
 public:
  explicit InundationService(InundationServiceOptions opts = {});

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] StatusOr<ServiceResult> Invoke(
      const sfc::GeoTemporalQuery& q, VirtualClock* clock) override;
  [[nodiscard]] std::uint64_t invocations() const override;

  [[nodiscard]] const sfc::Linearizer& linearizer() const { return lin_; }

 private:
  std::string name_ = "inundation-mapping";
  InundationServiceOptions opts_;
  sfc::Linearizer lin_;
  /// Guards the jitter draw and the counter only; CTM generation and the
  /// flood mask run unlocked.
  mutable std::mutex mutex_;
  Rng rng_;
  std::uint64_t invocations_ = 0;
};

}  // namespace ecc::service
