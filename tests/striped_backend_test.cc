// Tests for the striped thread-safe backend: sequential parity with the
// bare elastic cache, the no-split fast path + exclusive split fallback,
// concurrent access smoke, and writer progress on a node that readers keep
// busy (the heavy interleavings live in parallel_stress_test.cc, which the
// TSan CI job gates).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloudsim/provider.h"
#include "core/elastic_cache.h"
#include "core/striped_backend.h"
#include "core/types.h"
#include "net/rpc.h"

namespace ecc::core {
namespace {

constexpr std::uint64_t kKeyspace = 1u << 11;

struct Fixture {
  explicit Fixture(std::size_t records_per_node = 64)
      : provider(
            [] {
              cloudsim::CloudOptions o;
              o.boot_mean = Duration::Seconds(60);
              o.seed = 7;
              return o;
            }(),
            &clock),
        cache(
            [&] {
              ElasticCacheOptions o;
              o.node_capacity_bytes =
                  records_per_node * RecordSize(0, std::size_t{128});
              o.ring.range = kKeyspace;
              return o;
            }(),
            &provider, &clock),
        striped(&cache, /*stripes=*/8) {}

  VirtualClock clock;
  cloudsim::CloudProvider provider;
  ElasticCache cache;
  StripedBackend striped;
};

std::string Val(Key k) { return "value-" + std::to_string(k) + "-payload"; }

TEST(StripedBackendTest, PutGetParity) {
  Fixture f;
  EXPECT_EQ(f.striped.Name(), "gba-elastic+striped");
  for (Key k = 0; k < 40; ++k) {
    ASSERT_TRUE(f.striped.Put(k, Val(k)).ok());
  }
  for (Key k = 0; k < 40; ++k) {
    auto got = f.striped.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k;
    EXPECT_EQ(*got, Val(k));
  }
  EXPECT_FALSE(f.striped.Get(1000).ok());
  EXPECT_EQ(f.striped.TotalRecords(), 40u);
  EXPECT_EQ(f.striped.stats().puts, 40u);
  EXPECT_EQ(f.striped.stats().hits, 40u);
  EXPECT_EQ(f.striped.stats().misses, 1u);
}

TEST(StripedBackendTest, OverflowFallsBackToSplitPath) {
  Fixture f(/*records_per_node=*/16);
  // Push well past one node's capacity: the fast path must hand overflowing
  // inserts to the exclusive GBA path, which splits and allocates.
  const std::size_t n = 64;
  for (Key k = 0; k < n; ++k) {
    ASSERT_TRUE(f.striped.Put(k * (kKeyspace / n), Val(k)).ok());
  }
  EXPECT_GT(f.striped.NodeCount(), 1u);
  EXPECT_GT(f.striped.stats().splits, 0u);
  EXPECT_EQ(f.striped.TotalRecords(), n);
  for (Key k = 0; k < n; ++k) {
    EXPECT_TRUE(f.striped.Get(k * (kKeyspace / n)).ok()) << "key index " << k;
  }
}

TEST(StripedBackendTest, DuplicatePutIsIdempotent) {
  Fixture f;
  ASSERT_TRUE(f.striped.Put(5, Val(5)).ok());
  ASSERT_TRUE(f.striped.Put(5, Val(5)).ok());
  EXPECT_EQ(f.striped.TotalRecords(), 1u);
}

TEST(StripedBackendTest, EvictAndContractTakeExclusivePath) {
  Fixture f(/*records_per_node=*/16);
  const std::size_t n = 64;
  std::vector<Key> keys;
  for (Key k = 0; k < n; ++k) keys.push_back(k * (kKeyspace / n));
  for (Key k : keys) ASSERT_TRUE(f.striped.Put(k, Val(k)).ok());
  const std::size_t grown = f.striped.NodeCount();
  ASSERT_GT(grown, 1u);

  EXPECT_EQ(f.striped.EvictKeys(keys), n);
  EXPECT_EQ(f.striped.TotalRecords(), 0u);
  // Empty nodes merge pairwise under the churn threshold.
  EXPECT_TRUE(f.striped.TryContract());
  EXPECT_EQ(f.striped.NodeCount(), grown - 1);
}

TEST(StripedBackendTest, ConcurrentDisjointPutsAllLand) {
  Fixture f(/*records_per_node=*/64);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 64;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const Key k = static_cast<Key>(t * kPerThread + i) *
                      (kKeyspace / (kThreads * kPerThread));
        ASSERT_TRUE(f.striped.Put(k, Val(k)).ok());
        auto got = f.striped.Get(k);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, Val(k));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(f.striped.TotalRecords(), kThreads * kPerThread);
  EXPECT_EQ(f.striped.stats().puts, kThreads * kPerThread);
}

// Readers of one node share its stripe, but a writer queued on it must
// still get in: N threads loop Get over one node's keys while one writer
// lands K no-split Puts on the same node.  A lock that admits new readers
// past a waiting writer would park the writer for as long as the readers
// run, so the writer gets a deadline; the readers stop at that deadline
// either way, so a starved writer fails the test instead of hanging it.
TEST(StripedBackendTest, WriterProgressesWhileReadersShareTheStripe) {
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kPreloaded = 64;
  constexpr std::size_t kWrites = 200;
  VirtualClock clock;
  cloudsim::CloudProvider provider(
      [] {
        cloudsim::CloudOptions o;
        o.boot_mean = Duration::Seconds(60);
        o.seed = 7;
        return o;
      }(),
      &clock);
  // One node, sized so no write splits: every key shares one stripe, and
  // every Get and Put is exactly one call on the node's channel.
  net::LoopbackChannel* channel = nullptr;
  ElasticCacheOptions o;
  o.node_capacity_bytes = 4 * (kPreloaded + kWrites) * RecordSize(0, Val(0));
  o.ring.range = kKeyspace;
  o.channel_factory = [&channel, &o](NodeId, net::RpcServer* server,
                                     VirtualClock* c)
      -> std::unique_ptr<net::Channel> {
    auto made = std::make_unique<net::LoopbackChannel>(
        server, net::NetworkModel(o.net), c);
    if (c != nullptr) channel = made.get();  // the foreground channel
    return made;
  };
  ElasticCache cache(o, &provider, &clock);
  StripedBackend striped(&cache, /*stripes=*/8);
  ASSERT_EQ(striped.NodeCount(), 1u);
  ASSERT_NE(channel, nullptr);
  for (Key k = 0; k < kPreloaded; ++k) ASSERT_TRUE(striped.Put(k, Val(k)).ok());
  const std::uint64_t calls_before = channel->stats().calls;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> readers_started{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      readers_started.fetch_add(1);
      std::uint64_t n = 0;
      for (Key k = r; !stop.load(std::memory_order_relaxed);
           k = (k + 1) % kPreloaded) {
        auto got = striped.Get(k);
        if (!got.ok() || *got != Val(k)) wrong.fetch_add(1);
        ++n;
      }
      reads.fetch_add(n);
    });
  }
  while (readers_started.load() != kReaders) std::this_thread::yield();

  auto writer = std::async(std::launch::async, [&] {
    std::size_t landed = 0;
    for (Key k = kPreloaded; k < kPreloaded + kWrites; ++k) {
      if (striped.Put(k, Val(k)).ok()) ++landed;
    }
    return landed;
  });
  const bool finished =
      writer.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(finished) << "writer starved behind the readers";
  EXPECT_EQ(writer.get(), kWrites);

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(channel->stats().calls - calls_before, reads.load() + kWrites);
  EXPECT_EQ(cache.stats().splits, 0u);
  for (Key k = 0; k < kPreloaded + kWrites; ++k) {
    auto got = striped.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k;
    EXPECT_EQ(*got, Val(k));
  }
}

// The lock itself: two readers that always overlap — each holds its share
// until the other has taken one too — never leave the lock free, so a lock
// that admits new readers past a waiting writer parks the writer for good.
// A StripeLock queues the second reader behind the writer instead; the
// holder gives up waiting for it after 10 ms and lets the writer in.
TEST(StripedBackendTest, StripeLockAdmitsAWaitingWriterPastOverlappingReaders) {
  constexpr int kWrites = 20;
  StripeLock lock;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> acquired[2] = {0, 0};
  auto reader = [&](int me) {
    while (!stop.load()) {
      lock.lock_shared();
      // Snapshot before announcing, so the partner's next share is seen
      // even if it lands right after the announcement.
      const std::uint64_t partner = acquired[1 - me].load();
      acquired[me].fetch_add(1);
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
      while (acquired[1 - me].load() == partner && !stop.load() &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      lock.unlock_shared();
    }
  };
  std::thread a(reader, 0);
  std::thread b(reader, 1);
  while (acquired[0].load() < 100 || acquired[1].load() < 100) {
    std::this_thread::yield();
  }

  auto writer = std::async(std::launch::async, [&] {
    for (int i = 0; i < kWrites; ++i) {
      lock.lock();
      lock.unlock();
    }
  });
  const bool finished =
      writer.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  stop.store(true);
  a.join();
  b.join();
  writer.get();
  EXPECT_TRUE(finished) << "writer starved behind overlapping readers";
}

}  // namespace
}  // namespace ecc::core
