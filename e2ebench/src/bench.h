// The end-to-end benchmark's shared measurement loop.
//
// A workload builds its stack from the public API (set-up), then runs
// timed passes.  A pass is a fixed schedule of closed-loop queries drawn
// from the seed, so its modelled (virtual-clock) figures repeat exactly;
// passes on fresh stacks repeat until --seconds is spent.  After a pass
// the clock stops and the outputs are checked: every record left in the
// cache must equal the service's deterministic output for its key, and the
// outcome counts must reconcile with the coordinator's and the service's
// own counters.  Any mismatch fails the run before a number is printed.
//
// RunBenchmark drives one workload:
//   --trace 0: measure passes for --seconds, building each pass's stack
//              several times first (setup_s is the median build), and
//              print the end-to-end metrics;
//   --trace 1: measure untraced for half of --seconds, rebuild with the
//              tracing decorators, measure the other half, require the two
//              halves' modelled figures to be bit-identical, and print the
//              per-layer metrics with the tracing overhead.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/elastic_cache.h"
#include "core/types.h"
#include "service/service.h"
#include "sfc/linearizer.h"

namespace e2e {

/// Service that the paper's cost model charges for every uncached query.
inline constexpr double kServiceSeconds = 23.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for on-disk state (WAL, snapshots); must exist.
  std::string workdir = ".";
};

/// Counter deltas of the elastic cache over a pass.
struct ElasticDelta {
  std::uint64_t splits = 0;
  std::uint64_t records_migrated = 0;
  std::uint64_t bytes_migrated = 0;
  std::uint64_t node_allocations = 0;
  std::uint64_t node_removals = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_failures = 0;
  std::uint64_t put_failures = 0;

  static ElasticDelta Between(const ecc::core::CacheStats& before,
                              const ecc::core::CacheStats& after);
  void Add(const ElasticDelta& o);
};

/// Wall-clock figures of one pass.  The end-to-end metrics are their
/// medians over a run's passes, so interference from outside that slows
/// one pass moves one value, not the figure.
struct PassFigures {
  double qps = 0;
  double hit_p50_us = 0;
  double hit_p99_us = 0;
  double miss_p50_us = 0;
  double miss_p99_us = 0;
};

/// What one timed pass did, or (after Add) what a run's passes did.
struct PassResult {
  std::uint64_t passes = 0;  ///< passes added up here
  std::uint64_t attempted = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< queries that invoked the service
  std::uint64_t failed = 0;  ///< shed, refused, errored

  // One pass's wall-clock samples, reduced to `figures` before Add.
  std::uint64_t timed_queries = 0;  ///< queries in the throughput window
  double timed_s = 0;               ///< its wall time
  std::vector<float> hit_us;        ///< wall latency of each hit
  std::vector<float> miss_us;       ///< wall latency of each miss
  std::vector<PassFigures> figures;
  std::uint64_t hit_samples = 0;
  std::uint64_t miss_samples = 0;

  double virt_speedup = 0;
  double virt_cost_usd = 0;
  /// Modelled outcomes that must repeat bit for bit on every pass of the
  /// run, traced or not (the decorators must not perturb the model).
  std::vector<double> signature;

  // Facts for the per-layer report.
  ElasticDelta elastic;
  std::size_t nodes_max = 0;
  std::uint64_t launches = 0;
  double node_hours = 0;
  double disk_bytes = 0;
  double live_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t service_invocations = 0;

  void Add(PassResult&& o);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build a ready-to-run stack (set-up: timed for setup_s).  `traced`
  /// installs the tracing decorators.
  virtual ecc::Status Build(bool traced) = 0;
  /// Destroy the stack built last.
  virtual void Teardown() = 0;
  /// One timed pass of the workload's fixed schedule on the built stack,
  /// then its output check.  The stack is spent afterwards.
  virtual ecc::StatusOr<PassResult> RunPass() = 0;
  /// True when no traced call crosses threads (see Tracer::Enable).
  [[nodiscard]] virtual bool in_process() const = 0;
};

/// Expected service output per key, computed outside any timing by a
/// private service instance built like the stack's, and memoized.
class ExpectedOutputs {
 public:
  ExpectedOutputs(std::unique_ptr<ecc::service::Service> reference,
                  const ecc::sfc::Linearizer* linearizer)
      : reference_(std::move(reference)), linearizer_(linearizer) {}

  [[nodiscard]] const std::string& For(ecc::core::Key k);

 private:
  std::unique_ptr<ecc::service::Service> reference_;
  const ecc::sfc::Linearizer* linearizer_;
  std::unordered_map<ecc::core::Key, std::string> memo_;
};

/// Compare every resident record of `cache` byte for byte with
/// `expected`, and check each lives on the node its key routes to.
/// Sets `*live_bytes` to the payload bytes checked.
[[nodiscard]] ecc::Status CheckResident(const ecc::core::ElasticCache& cache,
                                        ExpectedOutputs& expected,
                                        std::uint64_t* live_bytes);

/// A directory created with mkdtemp under `parent`, removed with all its
/// contents on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] bool ok() const { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// CPUs this process may run on (what nproc prints), at least 1.
[[nodiscard]] std::size_t UsableCpus();

/// Restrict the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may use.  Returns that CPU, or -1 when the
/// affinity cannot be set (the run then stays unpinned).
int PinToOneCpu();

/// Print nproc, the 1-minute load average, build type and compiler.
void PrintHostFacts();

/// Bytes of regular files under `dir`, recursively.
[[nodiscard]] std::uint64_t DirectoryBytes(const std::string& dir);

/// Linearizer grid whose KeySpace() is `keyspace` (a power of two).
[[nodiscard]] ecc::sfc::LinearizerOptions GridFor(std::uint64_t keyspace);

std::unique_ptr<Workload> MakePaperPhased(const Args& args);
std::unique_ptr<Workload> MakeTcpDurable(const Args& args);
std::unique_ptr<Workload> MakeHotRead(const Args& args);

/// Drive `w` as the header comment describes and print the report; the
/// last stdout line is the result object.  Returns the process exit code.
int RunBenchmark(const Args& args, Workload& w);

}  // namespace e2e
