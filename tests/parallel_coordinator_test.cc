// Tests for the multi-threaded query front-end: single-flight determinism
// (K concurrent misses on one key -> exactly one service invocation),
// coalescing accounting, batch reports, virtual-time scaling, the
// quiesced time-step machinery, the per-worker window slices against a
// directly fed SlidingWindow, and totals read while workers run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cloudsim/provider.h"
#include "core/elastic_cache.h"
#include "core/parallel_coordinator.h"
#include "core/sliding_window.h"
#include "core/striped_backend.h"
#include "policy/policy.h"
#include "service/service.h"

namespace ecc::core {
namespace {

constexpr std::uint64_t kKeyspace = 1u << 11;  // matches the 4+3 bit grid

sfc::LinearizerOptions Grid() {
  sfc::LinearizerOptions opts;
  opts.spatial_bits = 4;
  opts.time_bits = 3;
  return opts;
}

/// A service whose Invoke blocks until released, so a test can hold a miss
/// in flight while followers pile onto the single-flight table.
class BlockingService final : public service::Service {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }

  [[nodiscard]] StatusOr<service::ServiceResult> Invoke(
      const sfc::GeoTemporalQuery& /*q*/, VirtualClock* clock) override {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return released_; });
    }
    if (clock != nullptr) clock->Advance(Duration::Seconds(23));
    service::ServiceResult r;
    r.payload = std::string(100, 'v');
    r.exec_time = Duration::Seconds(23);
    return r;
  }

  [[nodiscard]] std::uint64_t invocations() const override {
    return invocations_.load(std::memory_order_relaxed);
  }

  void Release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::string name_ = "blocking";
  std::atomic<std::uint64_t> invocations_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
};

struct Fixture {
  explicit Fixture(std::size_t workers, service::Service* svc = nullptr,
                   ParallelCoordinatorOptions copts = {})
      : provider(
            [] {
              cloudsim::CloudOptions o;
              o.boot_mean = Duration::Seconds(60);
              o.seed = 3;
              return o;
            }(),
            &clock),
        cache(
            [&] {
              ElasticCacheOptions o;
              o.node_capacity_bytes = 256 * RecordSize(0, std::size_t{128});
              o.ring.range = kKeyspace;
              return o;
            }(),
            &provider, &clock),
        striped(&cache, /*stripes=*/8),
        synthetic("svc", Duration::Seconds(23), 100),
        linearizer(Grid()),
        coordinator(
            [&] {
              copts.workers = workers;
              return copts;
            }(),
            &striped, svc != nullptr ? svc : &synthetic, &linearizer) {}

  VirtualClock clock;
  cloudsim::CloudProvider provider;
  ElasticCache cache;
  StripedBackend striped;
  service::SyntheticService synthetic;
  sfc::Linearizer linearizer;
  ParallelCoordinator coordinator;
};

TEST(ParallelCoordinatorTest, MissThenHitOnOneWorker) {
  Fixture f(/*workers=*/1);
  const ParallelQueryResult first = f.coordinator.ProcessKeyAs(0, 5);
  EXPECT_EQ(first.path, QueryPath::kMiss);
  EXPECT_GE(first.latency.seconds(), 23.0 * 0.9);
  EXPECT_EQ(f.synthetic.invocations(), 1u);

  const ParallelQueryResult second = f.coordinator.ProcessKeyAs(0, 5);
  EXPECT_EQ(second.path, QueryPath::kHit);
  EXPECT_LT(second.latency.seconds(), 1.0);
  EXPECT_EQ(f.synthetic.invocations(), 1u);
  EXPECT_EQ(f.coordinator.total_queries(), 2u);
  EXPECT_EQ(f.coordinator.total_hits(), 1u);
  EXPECT_EQ(f.coordinator.total_misses(), 1u);
}

// The determinism guarantee the ISSUE gates on: K >= 8 simultaneous misses
// on one key cause exactly one service::Service invocation.  The blocking
// service pins the leader inside Invoke until every follower has joined
// the flight, so the coalescing really is concurrent, not accidental
// serialization.
TEST(ParallelCoordinatorTest, EightConcurrentMissesInvokeServiceOnce) {
  constexpr std::size_t kThreads = 8;
  BlockingService blocking;
  Fixture f(kThreads, &blocking);

  std::vector<std::thread> threads;
  std::vector<ParallelQueryResult> results(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&f, &results, i] {
      results[i] = f.coordinator.ProcessKeyAs(i, 42);
    });
  }

  // Wait until all seven followers have registered on the flight.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (f.coordinator.coalesced_hits() < kThreads - 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(f.coordinator.coalesced_hits(), kThreads - 1)
      << "followers failed to coalesce before the deadline";
  EXPECT_EQ(blocking.invocations(), 1u);  // leader is inside the only call

  blocking.Release();
  for (auto& t : threads) t.join();

  EXPECT_EQ(blocking.invocations(), 1u);
  EXPECT_EQ(f.coordinator.total_misses(), 1u);
  EXPECT_EQ(f.coordinator.coalesced_hits(), kThreads - 1);
  std::size_t leaders = 0, followers = 0;
  for (const auto& r : results) {
    if (r.path == QueryPath::kMiss) ++leaders;
    if (r.path == QueryPath::kCoalesced) ++followers;
  }
  EXPECT_EQ(leaders, 1u);
  EXPECT_EQ(followers, kThreads - 1);
  // The landed result serves later queries from the cache.
  EXPECT_EQ(f.coordinator.ProcessKeyAs(0, 42).path, QueryPath::kHit);
}

TEST(ParallelCoordinatorTest, BatchOfIdenticalColdKeysInvokesOnce) {
  Fixture f(/*workers=*/4);
  const std::vector<Key> keys(64, Key{7});
  const ParallelBatchReport report = f.coordinator.RunKeys(keys);
  EXPECT_EQ(report.queries, 64u);
  EXPECT_EQ(report.service_invocations, 1u);
  EXPECT_EQ(f.synthetic.invocations(), 1u);
  EXPECT_EQ(report.hits + report.coalesced + report.misses, 64u);
  EXPECT_EQ(report.misses, 1u);
}

TEST(ParallelCoordinatorTest, HitHeavyBatchScalesWithWorkers) {
  // Same warm working set, same query stream; the 4-worker batch must
  // finish in under half the 1-worker virtual makespan.
  std::vector<Key> warm;
  for (Key k = 0; k < 64; ++k) warm.push_back(k);
  std::vector<Key> stream;
  for (std::size_t i = 0; i < 1024; ++i) stream.push_back(warm[i % 64]);

  auto run = [&](std::size_t workers) {
    Fixture f(workers);
    for (Key k : warm) {
      EXPECT_TRUE(f.striped.Put(k, std::string(100, 'w')).ok());
    }
    const ParallelBatchReport r = f.coordinator.RunKeys(stream);
    EXPECT_EQ(r.hits, stream.size());
    return r.makespan;
  };
  const Duration serial = run(1);
  const Duration parallel4 = run(4);
  EXPECT_GT(serial, Duration::Zero());
  EXPECT_LT(parallel4 * 2.0, serial);
}

TEST(ParallelCoordinatorTest, EndTimeStepEvictsAndReportsLikeSequential) {
  ParallelCoordinatorOptions copts;
  copts.window.slices = 3;
  copts.window.alpha = 0.9;
  copts.contraction_epsilon = 0;
  Fixture f(/*workers=*/2, nullptr, copts);

  (void)f.coordinator.ProcessKeyAs(0, 7);
  (void)f.coordinator.ProcessKeyAs(1, 7);
  (void)f.coordinator.ProcessKeyAs(0, 9);
  const TimeStepReport report = f.coordinator.EndTimeStep();
  EXPECT_EQ(report.step_queries, 3u);
  EXPECT_EQ(report.step_hits, 1u);
  EXPECT_EQ(report.step_misses, 2u);
  ASSERT_EQ(f.cache.TotalRecords(), 2u);

  // Age both keys out of the window with no further references.
  std::size_t evicted = 0;
  for (int i = 0; i < 4; ++i) evicted += f.coordinator.EndTimeStep().evicted;
  EXPECT_EQ(evicted, 2u);
  EXPECT_EQ(f.cache.TotalRecords(), 0u);
}

TEST(ParallelCoordinatorTest, ProcessQueryEncodesThroughLinearizer) {
  Fixture f(/*workers=*/1);
  const sfc::GeoTemporalQuery q{10.0, 20.0, 100.0};
  auto first = f.coordinator.ProcessQueryAs(0, q);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->path, QueryPath::kMiss);
  auto second = f.coordinator.ProcessQueryAs(0, q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->path, QueryPath::kHit);
  EXPECT_FALSE(f.coordinator.ProcessQueryAs(0, {999.0, 0.0, 0.0}).ok());
}

/// Blocks like BlockingService but FAILS its first invocation after
/// release (Unavailable, full 23 s charged), succeeding from then on —
/// the shape of a transient backing-service outage under single-flight.
class FailingOnceService final : public service::Service {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }

  [[nodiscard]] StatusOr<service::ServiceResult> Invoke(
      const sfc::GeoTemporalQuery& /*q*/, VirtualClock* clock) override {
    const std::uint64_t attempt =
        invocations_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return released_; });
    }
    if (clock != nullptr) clock->Advance(Duration::Seconds(23));
    if (attempt == 0) return Status::Unavailable("injected service outage");
    service::ServiceResult r;
    r.payload = std::string(100, 'v');
    r.exec_time = Duration::Seconds(23);
    return r;
  }

  [[nodiscard]] std::uint64_t invocations() const override {
    return invocations_.load(std::memory_order_relaxed);
  }

  void Release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::string name_ = "failing-once";
  std::atomic<std::uint64_t> invocations_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
};

// Regression: when the single-flight leader's service call fails, its
// followers must stay kCoalesced without being charged the failed call's
// 23 s (they never invoked anything — charging both the leader and every
// follower would double-count the outage).  Nothing is cached, so the
// key's next query elects a fresh leader and re-invokes the service.
TEST(ParallelCoordinatorTest, CoalescedFollowersNotChargedWhenLeaderFails) {
  constexpr std::size_t kThreads = 4;
  FailingOnceService failing;
  Fixture f(kThreads, &failing);

  std::vector<std::thread> threads;
  std::vector<ParallelQueryResult> results(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&f, &results, i] {
      results[i] = f.coordinator.ProcessKeyAs(i, 42);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (f.coordinator.coalesced_hits() < kThreads - 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(f.coordinator.coalesced_hits(), kThreads - 1)
      << "followers failed to coalesce before the deadline";

  failing.Release();
  for (auto& t : threads) t.join();

  EXPECT_EQ(f.coordinator.service_failures(), 1u);
  EXPECT_EQ(failing.invocations(), 1u);  // one leader, one failed call
  std::size_t leaders = 0;
  for (const ParallelQueryResult& r : results) {
    if (r.path == QueryPath::kMiss) {
      ++leaders;
      // Only the leader's clock carries the failed call's cost.
      EXPECT_GE(r.latency.seconds(), 23.0 * 0.9);
    } else {
      ASSERT_EQ(r.path, QueryPath::kCoalesced);
      EXPECT_LT(r.latency.seconds(), 1.0)
          << "follower charged for the leader's failed service call";
    }
  }
  EXPECT_EQ(leaders, 1u);
  EXPECT_EQ(f.cache.TotalRecords(), 0u);  // a failure is never cached

  // The failure did not poison the key: a fresh leader re-invokes, and the
  // landed result then serves hits.
  const ParallelQueryResult retry = f.coordinator.ProcessKeyAs(0, 42);
  EXPECT_EQ(retry.path, QueryPath::kMiss);
  EXPECT_EQ(failing.invocations(), 2u);
  EXPECT_EQ(f.coordinator.service_failures(), 1u);
  EXPECT_EQ(f.coordinator.ProcessKeyAs(1, 42).path, QueryPath::kHit);
}

/// A service whose Invoke waits (up to `timeout`) until `want` callers are
/// inside it at once, and records the most it ever saw together.
class RendezvousService final : public service::Service {
 public:
  RendezvousService(std::size_t want, std::chrono::milliseconds timeout)
      : want_(want), timeout_(timeout) {}

  [[nodiscard]] const std::string& name() const override { return name_; }

  [[nodiscard]] StatusOr<service::ServiceResult> Invoke(
      const sfc::GeoTemporalQuery& /*q*/, VirtualClock* clock) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++invocations_;
      ++inside_;
      peak_ = std::max(peak_, inside_);
      cv_.notify_all();
      cv_.wait_for(lock, timeout_, [this] { return peak_ >= want_; });
      --inside_;
    }
    if (clock != nullptr) clock->Advance(Duration::Seconds(23));
    service::ServiceResult r;
    r.payload = std::string(100, 'r');
    r.exec_time = Duration::Seconds(23);
    return r;
  }

  [[nodiscard]] std::uint64_t invocations() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return invocations_;
  }

  [[nodiscard]] std::size_t peak_inside() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }

 private:
  std::string name_ = "rendezvous";
  const std::size_t want_;
  const std::chrono::milliseconds timeout_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t invocations_ = 0;
  std::size_t inside_ = 0;
  std::size_t peak_ = 0;
};

/// Two workers miss on distinct keys at the same moment.
void TwoDistinctKeyLeaders(ParallelCoordinator& coordinator) {
  std::thread a([&coordinator] { (void)coordinator.ProcessKeyAs(0, 11); });
  std::thread b([&coordinator] { (void)coordinator.ProcessKeyAs(1, 12); });
  a.join();
  b.join();
}

// With overload protection off (the default) nothing serializes service
// calls: leaders of distinct keys are inside Invoke together.  The service
// holds the first caller until the second arrives, so a front end that
// serialized them would show a peak of one (after the timeout).
TEST(ParallelCoordinatorTest, DistinctKeyLeadersInvokeConcurrently) {
  RendezvousService rendezvous(/*want=*/2, std::chrono::seconds(10));
  Fixture f(/*workers=*/2, &rendezvous);
  TwoDistinctKeyLeaders(f.coordinator);
  EXPECT_EQ(rendezvous.peak_inside(), 2u);
  EXPECT_EQ(rendezvous.invocations(), 2u);
  EXPECT_EQ(f.coordinator.total_misses(), 2u);
}

// An admission queue models a one-at-a-time service: its single slot keeps
// the same two leaders out of Invoke together.
// Overload protection keeps the one-at-a-time service slot whether the
// queue is bounded or not (queue_limit 0).
TEST(ParallelCoordinatorTest, AdmissionQueueSlotSerializesLeaders) {
  for (const std::size_t queue_limit : {std::size_t{2}, std::size_t{0}}) {
    SCOPED_TRACE(queue_limit);
    RendezvousService rendezvous(/*want=*/2, std::chrono::milliseconds(200));
    ParallelCoordinatorOptions copts;
    copts.overload.enabled = true;
    copts.overload.admission.queue_limit = queue_limit;
    Fixture f(/*workers=*/2, &rendezvous, copts);
    ASSERT_NE(f.coordinator.admission(), nullptr);
    TwoDistinctKeyLeaders(f.coordinator);
    EXPECT_EQ(rendezvous.peak_inside(), 1u);
    EXPECT_EQ(rendezvous.invocations(), 2u);
    EXPECT_EQ(f.coordinator.total_misses(), 2u);
  }
}

TEST(ParallelCoordinatorTest, WorkerHistogramsRecordLatencies) {
  Fixture f(/*workers=*/2);
  (void)f.coordinator.ProcessKeyAs(0, 1);  // miss: ~23 s
  (void)f.coordinator.ProcessKeyAs(0, 1);  // hit: ~lookup cost
  (void)f.coordinator.ProcessKeyAs(1, 1);  // hit on the other worker
  const Histogram merged = f.coordinator.MergedLatency();
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_GE(merged.max(), 20e6);  // the miss, in microseconds
  EXPECT_LE(merged.min(), 100.0);  // a hit
  EXPECT_GT(f.coordinator.WorkerTime(0).micros(), 0);
  EXPECT_GT(f.coordinator.WorkerTime(1).micros(), 0);
}

/// Evicts exactly the decay candidates, as the paper's rule does, and
/// keeps each boundary's candidate list in the order it was handed over.
class RecordingPolicy final : public policy::ElasticityPolicy {
 public:
  [[nodiscard]] std::string Name() const override { return "recording"; }
  [[nodiscard]] std::vector<Key> SelectEvictions(
      const std::vector<Key>& decay_candidates,
      const policy::PolicyContext& /*ctx*/) override {
    evicted.push_back(decay_candidates);
    return decay_candidates;
  }
  [[nodiscard]] bool ShouldContract(
      const policy::PolicyContext& /*ctx*/) override {
    return false;
  }

  std::vector<std::vector<Key>> evicted;  ///< one entry per EndTimeStep
};

ParallelCoordinatorOptions WindowOptions(policy::ElasticityPolicy* policy) {
  ParallelCoordinatorOptions copts;
  copts.window.slices = 3;
  copts.window.alpha = 0.9;
  copts.contraction_epsilon = 0;
  copts.policy = policy;
  return copts;
}

/// Step `step`'s queries: keys drift upward, so a key leaves the stream
/// for good and is evicted once its last slice expires; repeats within a
/// step give counts above one.
std::vector<Key> StepKeys(std::size_t step, std::size_t n) {
  std::vector<Key> keys;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL * (step + 1);
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    keys.push_back(static_cast<Key>(step * 16 + (x >> 33) % 48));
  }
  return keys;
}

// One worker: the folded window is the window the worker's queries would
// have built directly — same counts, same scores, and the same eviction
// candidates in the same order at every boundary.
TEST(ParallelCoordinatorTest, OneWorkerWindowMatchesDirectSlidingWindow) {
  RecordingPolicy recorder;
  const ParallelCoordinatorOptions copts = WindowOptions(&recorder);
  Fixture f(/*workers=*/1, nullptr, copts);
  SlidingWindow reference(copts.window);
  std::vector<std::vector<Key>> reference_evicted;

  constexpr std::size_t kSteps = 8;
  for (std::size_t step = 0; step < kSteps; ++step) {
    for (const Key k : StepKeys(step, 60)) {
      (void)f.coordinator.ProcessKeyAs(0, k);
      reference.RecordQuery(k);
    }
    (void)f.coordinator.EndTimeStep();
    reference_evicted.push_back(reference.AdvanceSlice().evicted);
  }
  // Part of a step that is still filling, read through window().
  for (const Key k : StepKeys(kSteps, 20)) {
    (void)f.coordinator.ProcessKeyAs(0, k);
    reference.RecordQuery(k);
  }

  ASSERT_EQ(recorder.evicted.size(), kSteps);
  std::size_t evicted = 0;
  for (std::size_t step = 0; step < kSteps; ++step) {
    EXPECT_EQ(recorder.evicted[step], reference_evicted[step])
        << "boundary " << step;
    evicted += reference_evicted[step].size();
  }
  EXPECT_GT(evicted, 0u);
  const SlidingWindow& window = f.coordinator.window();
  ASSERT_EQ(window.ActiveSlices(), reference.ActiveSlices());
  for (Key k = 0; k < (kSteps + 1) * 16 + 48; ++k) {
    for (std::size_t i = 1; i <= reference.ActiveSlices(); ++i) {
      EXPECT_EQ(window.CountInSlice(k, i), reference.CountInSlice(k, i))
          << "key " << k << " slice " << i;
    }
    EXPECT_EQ(window.Lambda(k), reference.Lambda(k)) << "key " << k;
  }
}

struct WindowRun {
  std::vector<TimeStepReport> reports;
  std::vector<std::vector<Key>> evicted;
};

bool SameReport(const TimeStepReport& a, const TimeStepReport& b) {
  return a.step_queries == b.step_queries && a.step_hits == b.step_hits &&
         a.step_misses == b.step_misses &&
         a.step_query_time == b.step_query_time && a.evicted == b.evicted &&
         a.spilled == b.spilled && a.contracted == b.contracted &&
         a.window_slices == b.window_slices;
}

/// Four workers through RunKeys over a preloaded cache (every query hits,
/// so no worker's virtual time depends on how the threads interleave).
/// Checks each batch's slice-1 counts against the per-key sums.
WindowRun RunFourWorkerSteps() {
  RecordingPolicy recorder;
  Fixture f(/*workers=*/4, nullptr, WindowOptions(&recorder));
  constexpr std::size_t kSteps = 8;
  for (Key k = 0; k < kSteps * 16 + 48; ++k) {
    EXPECT_TRUE(f.striped.Put(k, std::string(100, 'w')).ok());
  }
  WindowRun run;
  for (std::size_t step = 0; step < kSteps; ++step) {
    const std::vector<Key> keys = StepKeys(step, 200);
    const ParallelBatchReport batch = f.coordinator.RunKeys(keys);
    EXPECT_EQ(batch.hits, keys.size());
    std::unordered_map<Key, std::uint32_t> expect;
    for (const Key k : keys) ++expect[k];
    const SlidingWindow& window = f.coordinator.window();
    for (const auto& [k, count] : expect) {
      EXPECT_EQ(window.CountInSlice(k, 1), count) << "key " << k;
    }
    run.reports.push_back(f.coordinator.EndTimeStep());
  }
  run.evicted = recorder.evicted;
  return run;
}

// N workers: the window holds every worker's counts, and the boundary's
// eviction order no longer depends on thread scheduling.
TEST(ParallelCoordinatorTest, RunKeysWindowCountsAndReportsRepeat) {
  const WindowRun first = RunFourWorkerSteps();
  const WindowRun second = RunFourWorkerSteps();
  ASSERT_EQ(first.reports.size(), second.reports.size());
  std::size_t evicted = 0;
  for (std::size_t i = 0; i < first.reports.size(); ++i) {
    EXPECT_TRUE(SameReport(first.reports[i], second.reports[i]))
        << "boundary " << i;
    evicted += first.reports[i].evicted;
  }
  EXPECT_GT(evicted, 0u);
  EXPECT_EQ(first.evicted, second.evicted);
}

// The totals are sums of per-worker books that their workers keep writing;
// a reader polling them mid-batch sees each total only grow, and the final
// sums reconcile with the batch.
TEST(ParallelCoordinatorTest, TotalsReadableWhileWorkersRun) {
  Fixture f(/*workers=*/4);
  for (Key k = 0; k < 64; ++k) {
    ASSERT_TRUE(f.striped.Put(k, std::string(100, 'w')).ok());
  }
  std::vector<Key> stream;
  for (std::size_t i = 0; i < 20000; ++i) stream.push_back(i % 64);

  std::atomic<bool> done{false};
  std::uint64_t polls = 0;
  bool monotone = true;
  std::thread poller([&] {
    std::uint64_t last_queries = 0;
    std::uint64_t last_hits = 0;
    while (!done.load()) {
      const std::uint64_t queries = f.coordinator.total_queries();
      const std::uint64_t hits = f.coordinator.total_hits();
      monotone = monotone && queries >= last_queries && hits >= last_hits;
      last_queries = queries;
      last_hits = hits;
      ++polls;
    }
  });
  const ParallelBatchReport report = f.coordinator.RunKeys(stream);
  done.store(true);
  poller.join();

  EXPECT_GT(polls, 0u);
  EXPECT_TRUE(monotone);
  EXPECT_EQ(report.hits, stream.size());
  EXPECT_EQ(f.coordinator.total_queries(), stream.size());
  EXPECT_EQ(f.coordinator.total_hits(), stream.size());
  EXPECT_EQ(f.coordinator.total_misses() + f.coordinator.coalesced_hits(),
            0u);
  const TimeStepReport step = f.coordinator.EndTimeStep();
  EXPECT_EQ(step.step_queries, stream.size());
  EXPECT_EQ(step.step_hits, stream.size());
}

}  // namespace
}  // namespace ecc::core
