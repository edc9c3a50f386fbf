// hot-read: concurrent cache hits through the parallel front end.
//
// Set-up preloads 16K x 1000 B records (the even keys of a 32K key space,
// so they spread over every bucket) onto 4 nodes sized so nothing splits.
// A pass runs min(2, nproc) client threads, each driving one
// ParallelCoordinator::ProcessKeyAs worker index in a closed loop over a
// fixed Zipf(0.99) stream of resident keys; that hit phase is the
// throughput window.  The pass then closes with a fixed cold burst of
// 4 000 first-touch queries on odd keys (service call + insert, still no
// split), which gives the miss latencies.  The front tier is off and no
// slice closes, so the hit path does all the work.
#include <algorithm>
#include <thread>

#include "bench.h"
#include "cloudsim/provider.h"
#include "core/parallel_coordinator.h"
#include "core/striped_backend.h"
#include "decorators.h"
#include "tracer.h"
#include "workload/generator.h"

namespace e2e {

namespace {

using ecc::Status;
using ecc::StatusOr;
using ecc::core::Key;
using ecc::core::NodeId;
using ecc::core::QueryPath;

constexpr std::uint64_t kKeyspace = 1u << 15;
constexpr std::uint64_t kResident = kKeyspace / 2;
/// Two clients contend on the striped locks and leave CPUs free.  On a
/// shared host whose hypervisor now and then runs other guests on these
/// virtual CPUs, one client per CPU lets a preempted lock holder stall all
/// the others, which doubled the hit tail from run to run.
constexpr std::size_t kClients = 2;
constexpr std::size_t kHitsPerClient = 100000;
constexpr std::size_t kColdQueries = 4000;
constexpr std::size_t kNodes = 4;
constexpr std::size_t kRecordsPerNode = 8192;
constexpr std::size_t kValueBytes = 1000;

/// One client thread's share of a phase.
struct ClientLog {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t other = 0;  ///< coalesced, shed or stale: wrong here
  std::int64_t virt_us = 0;
  std::vector<float> us;
};

class HotRead final : public Workload {
 public:
  explicit HotRead(const Args& args);
  ~HotRead() override { Teardown(); }

  Status Build(bool traced) override;
  void Teardown() override { stack_.reset(); }
  StatusOr<PassResult> RunPass() override;
  [[nodiscard]] bool in_process() const override { return true; }

 private:
  struct Stack {
    TracedWiring wiring;
    ecc::VirtualClock clock;
    std::unique_ptr<ecc::cloudsim::CloudProvider> provider;
    std::unique_ptr<ecc::service::Service> service;
    std::unique_ptr<TracingService> traced_service;
    std::unique_ptr<ecc::core::ElasticCache> cache;
    std::unique_ptr<ecc::core::StripedBackend> striped;
    std::unique_ptr<TracingBackend> traced_backend;
    std::unique_ptr<ecc::core::ParallelCoordinator> coordinator;
  };

  [[nodiscard]] static std::unique_ptr<ecc::service::Service> MakeService();
  /// Run `clients_` threads, client c issuing keys[c] through worker c.
  /// Returns the wall seconds from release to the last client's finish.
  double RunPhase(const std::vector<std::vector<Key>>& keys,
                  std::vector<ClientLog>& logs);

  Args args_;
  std::size_t clients_;
  ecc::sfc::Linearizer linearizer_;
  std::vector<std::vector<Key>> hot_keys_;   ///< per client
  std::vector<std::vector<Key>> cold_keys_;  ///< per client
  ExpectedOutputs expected_;
  std::unique_ptr<Stack> stack_;
};

HotRead::HotRead(const Args& args)
    : args_(args),
      clients_(std::min<std::size_t>(UsableCpus(), kClients)),
      linearizer_(GridFor(kKeyspace)),
      expected_(MakeService(), &linearizer_) {
  // One Zipf stream (one popularity ranking) dealt out to the clients.
  ecc::workload::ZipfKeyGenerator zipf(kResident, 0.99, args_.seed ^ 0x21fULL);
  hot_keys_.resize(clients_);
  cold_keys_.resize(clients_);
  for (auto& keys : hot_keys_) {
    keys.reserve(kHitsPerClient);
    for (std::size_t i = 0; i < kHitsPerClient; ++i) {
      keys.push_back(2 * zipf.Next());
    }
  }
  // Distinct odd keys spread over the whole ring.
  for (std::size_t i = 0; i < kColdQueries; ++i) {
    cold_keys_[i % clients_].push_back(2 * (i * kResident / kColdQueries) + 1);
  }
}

std::unique_ptr<ecc::service::Service> HotRead::MakeService() {
  return std::make_unique<ecc::service::SyntheticService>(
      "synthetic-derived", ecc::Duration::Seconds(kServiceSeconds),
      kValueBytes);
}

Status HotRead::Build(bool traced) {
  Teardown();
  auto s = std::make_unique<Stack>();
  ecc::cloudsim::CloudOptions copts;
  s->provider =
      std::make_unique<ecc::cloudsim::CloudProvider>(copts, &s->clock);
  s->service = MakeService();

  ecc::core::ElasticCacheOptions eo;
  eo.node_capacity_bytes =
      kRecordsPerNode * ecc::core::RecordSize(0, kValueBytes);
  eo.initial_nodes = kNodes;
  eo.min_nodes = kNodes;
  eo.ring.range = kKeyspace;
  if (traced) eo.channel_factory = TracedLoopbackFactory(&s->wiring, eo.net);
  s->cache = std::make_unique<ecc::core::ElasticCache>(
      eo, s->provider.get(), &s->clock);
  s->striped = std::make_unique<ecc::core::StripedBackend>(s->cache.get());
  for (Key k = 0; k < kKeyspace; k += 2) {
    if (Status p = s->striped->Put(k, expected_.For(k)); !p.ok()) {
      stack_ = std::move(s);
      return p;
    }
  }
  if (s->cache->stats().splits != 0) {
    stack_ = std::move(s);
    return Status::Internal("preload split a node; nodes are undersized");
  }

  ecc::core::CacheBackend* backend = s->striped.get();
  ecc::service::Service* service = s->service.get();
  if (traced) {
    s->traced_backend = std::make_unique<TracingBackend>(backend);
    s->traced_service = std::make_unique<TracingService>(service);
    backend = s->traced_backend.get();
    service = s->traced_service.get();
  }
  ecc::core::ParallelCoordinatorOptions po;
  po.workers = clients_;
  po.contraction_epsilon = 0;
  po.provider = s->provider.get();
  s->coordinator = std::make_unique<ecc::core::ParallelCoordinator>(
      po, backend, service, &linearizer_);
  stack_ = std::move(s);
  return Status::Ok();
}

double HotRead::RunPhase(const std::vector<std::vector<Key>>& keys,
                         std::vector<ClientLog>& logs) {
  ecc::core::ParallelCoordinator& coord = *stack_->coordinator;
  logs.assign(clients_, ClientLog{});
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients_; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      log.us.reserve(keys[c].size());
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (const Key k : keys[c]) {
        const Ns q0 = NowNs();
        ecc::core::ParallelQueryResult res;
        {
          Tracer::Scope span(Layer::kCoordinator);
          res = coord.ProcessKeyAs(c, k);
        }
        log.us.push_back(
            static_cast<float>(static_cast<double>(NowNs() - q0) / 1e3));
        log.virt_us += res.latency.micros();
        if (res.path == QueryPath::kHit) {
          ++log.hits;
        } else if (res.path == QueryPath::kMiss) {
          ++log.misses;
        } else {
          ++log.other;
        }
      }
    });
  }
  while (ready.load() != clients_) std::this_thread::yield();
  const Ns t0 = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

StatusOr<PassResult> HotRead::RunPass() {
  Stack& s = *stack_;
  const ecc::core::CacheStats before = s.cache->stats();
  const std::uint64_t invoked_before = s.service->invocations();

  PassResult r;
  std::vector<ClientLog> hot;
  std::vector<ClientLog> cold;
  r.timed_s = RunPhase(hot_keys_, hot);
  (void)RunPhase(cold_keys_, cold);

  std::uint64_t wrong_path = 0;
  std::int64_t virt_us = 0;
  for (ClientLog& log : hot) {
    r.hits += log.hits;
    r.timed_queries += log.hits + log.misses + log.other;
    wrong_path += log.misses + log.other;  // every hot key is resident
    virt_us += log.virt_us;
    r.hit_us.insert(r.hit_us.end(), log.us.begin(), log.us.end());
  }
  for (ClientLog& log : cold) {
    r.misses += log.misses;
    wrong_path += log.hits + log.other;  // every cold key is first-touch
    virt_us += log.virt_us;
    r.miss_us.insert(r.miss_us.end(), log.us.begin(), log.us.end());
  }
  r.attempted = r.timed_queries + kColdQueries;
  r.failed = wrong_path;

  // Reconcile with the front end's and the service's own counters.
  ecc::core::ParallelCoordinator& coord = *s.coordinator;
  r.service_invocations = s.service->invocations() - invoked_before;
  if (coord.total_queries() != r.attempted ||
      coord.total_hits() + coord.total_misses() + coord.coalesced_hits() +
              coord.total_shed() + coord.total_stale() !=
          r.attempted ||
      r.service_invocations != coord.total_misses()) {
    return Status::Internal(
        "outcome counts do not reconcile with the front end and service");
  }
  r.elastic = ElasticDelta::Between(before, s.cache->stats());
  r.failed += r.elastic.put_failures;
  if (r.elastic.splits != 0) {
    return Status::Internal("a node split during hot-read");
  }

  const double mean_query_s =
      static_cast<double>(virt_us) / 1e6 / static_cast<double>(r.attempted);
  r.virt_speedup = kServiceSeconds / mean_query_s;
  r.virt_cost_usd = s.provider->AccruedCostDollars();
  r.signature = {static_cast<double>(r.hits), static_cast<double>(r.misses),
                 r.virt_speedup, r.virt_cost_usd};
  r.nodes_max = s.cache->NodeCount();
  const auto& alloc = s.provider->stats();
  r.launches = alloc.cold_allocations + alloc.warm_hits;
  r.node_hours = s.provider->TotalAllocatedNodeTime().hours();
  r.wire_bytes = s.wiring.wire_bytes.load();

  std::uint64_t live = 0;
  if (Status c = CheckResident(*s.cache, expected_, &live); !c.ok()) return c;
  r.live_bytes = static_cast<double>(live);
  return r;
}

}  // namespace

std::unique_ptr<Workload> MakeHotRead(const Args& args) {
  return std::make_unique<HotRead>(args);
}

}  // namespace e2e
