// Span tracing for the end-to-end benchmark.
//
// The benchmark times the system from outside: decorators installed through
// the stack's existing seams (see decorators.h) open one span per call into
// a layer's public functions.  A span records its layer, start, end, parent
// span and query id.  Spans live in per-thread in-memory buffers and are
// reduced to per-layer aggregates only when the timed phase is over (or,
// for long concurrent runs, when a thread's buffer fills between queries),
// so no I/O happens while anything is being timed.
//
// A span's self time is its duration minus the part of its interval that
// its children cover (the union of the child intervals, clipped to the
// parent), computed by SelfTimes() on the collected span tree.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Ns = std::int64_t;

[[nodiscard]] inline Ns NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layer boundaries the benchmark times.
enum class Layer : std::uint8_t {
  kCoordinator,       ///< ProcessKey / ProcessKeyAs (a query's root span)
  kEndStep,           ///< EndTimeStep (a slice close's root span)
  kBackendGet,        ///< CacheBackend::Get
  kBackendPut,        ///< CacheBackend::Put
  kBackendEvict,      ///< CacheBackend::EvictKeys / ExtractKeys
  kBackendContract,   ///< CacheBackend::TryContract
  kNetCall,           ///< net::Channel::Call
  kNodeDispatch,      ///< the node's RpcServer::Dispatch
  kServiceInvoke,     ///< service::Service::Invoke
  kDurabilityAppend,  ///< ShardMutationListener callbacks (WAL appends)
  kDurabilityTick,    ///< MaintenanceTask::Tick (fsync batch, compaction)
  kCount,
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span
  std::uint64_t query = 0;   ///< 0: not inside a query (e.g. a slice close)
  Ns start = 0;
  Ns end = 0;
  Layer layer = Layer::kCoordinator;
  bool ok = true;            ///< outcome bit (a Get that hit)
  std::uint32_t value = 0;   ///< a count the call returned (records evicted)
};

/// Self time of every span, index-aligned with `spans`: duration minus the
/// union of its children's intervals clipped to its own.  Children whose
/// parent is not in `spans` are ignored.
[[nodiscard]] std::vector<Ns> SelfTimes(const std::vector<Span>& spans);

/// The highest percentile of {99.9, 99, 90, 50} that has at least ten of
/// `n` samples beyond it; 0 when even the median lacks that support.
[[nodiscard]] double HighestSupportedPercentile(std::size_t n);

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`, which it sorts
/// in place.  0 for an empty vector.
[[nodiscard]] double Percentile(std::vector<float>& samples, double p);

/// `p` clamped to what `n` samples support (see HighestSupportedPercentile),
/// falling back to the median when nothing is supported.
[[nodiscard]] double SupportedPercentile(std::vector<float>& samples,
                                         double p);

/// Per-layer reduction of the collected spans.
struct LayerAgg {
  std::uint64_t count = 0;
  std::uint64_t ok = 0;
  std::uint64_t value_sum = 0;
  double busy_s = 0;  ///< summed durations
  double self_s = 0;  ///< summed self times
  std::vector<float> dur_us;
  std::vector<float> self_us;
};

struct TraceSummary {
  LayerAgg layers[static_cast<std::size_t>(Layer::kCount)];
  std::uint64_t spans = 0;

  [[nodiscard]] LayerAgg& at(Layer l) {
    return layers[static_cast<std::size_t>(l)];
  }
  /// Fold `spans` (a set closed under parenthood) into the aggregates.
  void Add(const std::vector<Span>& spans);
};

/// Process-wide span recorder.  Disabled, every Scope is one relaxed load.
class Tracer {
 public:
  static Tracer& Get();

  /// Start recording.  `fold_early` lets a thread reduce its own buffer
  /// whenever a root span closes with the buffer full; only valid when no
  /// span crosses threads (every in-process workload).
  void Enable(bool fold_early);
  void Disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Reduce every buffered span into `summary`'s aggregates and clear the
  /// buffers.  Call only while no span is open on any thread.
  void Drain(TraceSummary* summary);

  /// RAII span.  `remote_parent` marks a boundary reached over a wire
  /// (node dispatch): with no open span on this thread, it parents to the
  /// caller's in-flight Channel::Call published by SetWireParent.
  class Scope {
   public:
    explicit Scope(Layer layer, bool remote_parent = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_ok(bool ok) { ok_ = ok; }
    void set_value(std::uint32_t v) { value_ = v; }
    [[nodiscard]] std::uint64_t id() const { return id_; }
    [[nodiscard]] std::uint64_t query() const { return query_; }

   private:
    Layer layer_;
    bool active_ = false;
    bool ok_ = true;
    std::uint32_t value_ = 0;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t query_ = 0;
    Ns start_ = 0;
  };

  /// Publish the span of an in-flight call whose server side runs on
  /// another thread (a TCP server loop).  Sequential callers only.
  void SetWireParent(std::uint64_t span, std::uint64_t query) {
    wire_parent_.store(span, std::memory_order_release);
    wire_query_.store(query, std::memory_order_release);
  }

 private:
  struct Frame {
    std::uint64_t id;
    std::uint64_t query;
  };
  struct ThreadBuf {
    std::uint64_t thread_tag = 0;
    std::uint64_t next_seq = 0;
    std::vector<Frame> stack;  ///< owner thread only
    std::mutex mutex;          ///< guards spans
    std::vector<Span> spans;
  };

  Tracer() = default;
  ThreadBuf& Local();
  void Close(ThreadBuf& buf, const Span& span, bool root);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> fold_early_{false};
  std::atomic<std::uint64_t> next_query_{1};
  std::atomic<std::uint64_t> wire_parent_{0};
  std::atomic<std::uint64_t> wire_query_{0};

  std::mutex registry_mutex_;  ///< guards buffers_, next_tag_, early_
  std::vector<std::shared_ptr<ThreadBuf>> buffers_;
  std::uint64_t next_tag_ = 1;
  TraceSummary early_;  ///< reductions made by fold_early threads
};

}  // namespace e2e
