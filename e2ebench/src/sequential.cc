// The two sequential workloads: the paper's coordinator over a GBA
// ElasticCache, one query at a time, slices closed by EndTimeStep.
//
//   paper-phased  the paper's §IV.C query-intensive run over the real
//                 ShorelineService: 700 slices at R = 50 -> 250 -> 50,
//                 uniform over 32K keys, decay eviction (m = 100) and
//                 epsilon = 5 contraction over at least 2 nodes.
//   tcp-durable   every node behind an in-process TcpServer reached by a
//                 TcpChannel, WAL + snapshots fsynced at slice boundaries;
//                 2 nodes sized not to grow, uniform over 16K keys at 500
//                 queries per slice, m = 10.
#include <cstdio>
#include <map>

#include "bench.h"
#include "cloudsim/provider.h"
#include "core/coordinator.h"
#include "decorators.h"
#include "durability/durability.h"
#include "net/rpc.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"
#include "tracer.h"
#include "workload/generator.h"

namespace e2e {

namespace {

using ecc::Status;
using ecc::StatusOr;
using ecc::core::Key;
using ecc::core::NodeId;

constexpr std::size_t kValueBytes = 1000;

struct SequentialConfig {
  std::uint64_t keyspace = 0;
  std::size_t records_per_node = 0;
  std::size_t initial_nodes = 1;
  std::size_t min_nodes = 1;
  std::size_t window_slices = 0;
  std::vector<std::size_t> rates;  ///< queries per slice, one per slice
  bool shoreline = false;          ///< else the synthetic service
  bool tcp_durable = false;
};

class SequentialWorkload final : public Workload {
 public:
  SequentialWorkload(SequentialConfig cfg, const Args& args);
  ~SequentialWorkload() override { Teardown(); }

  Status Build(bool traced) override;
  void Teardown() override { stack_.reset(); }
  StatusOr<PassResult> RunPass() override;
  [[nodiscard]] bool in_process() const override { return !cfg_.tcp_durable; }

 private:
  /// One built stack.  The destructor tears down in dependency order: the
  /// coordinator, then every TcpServer (stopped while its node is alive),
  /// then the cache, and last the WAL directory.
  struct Stack {
    ~Stack() {
      coordinator.reset();
      for (auto& [id, server] : servers) server->Stop();
      cache.reset();
    }

    std::unique_ptr<TempDir> wal_dir;
    std::unique_ptr<ecc::durability::FleetDurability> durability;
    std::unique_ptr<TracingMaintenance> traced_maintenance;
    TracedWiring wiring;
    std::map<NodeId, std::unique_ptr<ecc::net::TcpServer>> servers;
    Status transport = Status::Ok();
    ecc::VirtualClock clock;
    std::unique_ptr<ecc::cloudsim::CloudProvider> provider;
    std::unique_ptr<ecc::service::Service> service;
    std::unique_ptr<TracingService> traced_service;
    std::unique_ptr<ecc::core::ElasticCache> cache;
    std::unique_ptr<TracingBackend> traced_backend;
    std::unique_ptr<ecc::core::Coordinator> coordinator;
  };

  [[nodiscard]] std::unique_ptr<ecc::service::Service> MakeService() const;
  /// Transport and durability seams for `s` (tcp-durable, or any traced
  /// run: a traced loopback rebuilds the default LoopbackChannel under the
  /// cache's NetworkModel, behind a forwarding dispatcher).
  Status Wire(Stack& s, bool traced, ecc::core::ElasticCacheOptions& eo);

  SequentialConfig cfg_;
  Args args_;
  ecc::sfc::Linearizer linearizer_;
  std::vector<Key> keys_;  ///< one pass's queries, in order
  ExpectedOutputs expected_;
  std::unique_ptr<Stack> stack_;
};

SequentialWorkload::SequentialWorkload(SequentialConfig cfg, const Args& args)
    : cfg_(std::move(cfg)),
      args_(args),
      linearizer_(GridFor(cfg_.keyspace)),
      expected_(MakeService(), &linearizer_) {
  if (cfg_.tcp_durable) {
    // Client and node-server threads share one CPU: a wire round trip then
    // costs the software path, not a wake-up of an idle virtual CPU, which
    // on a VM varies two-fold from run to run.
    std::printf("pinned: client and node servers share cpu %d\n",
                PinToOneCpu());
  }
  std::size_t total = 0;
  for (const std::size_t r : cfg_.rates) total += r;
  ecc::workload::UniformKeyGenerator gen(cfg_.keyspace,
                                         args_.seed ^ 0xabcULL);
  keys_.reserve(total);
  for (std::size_t i = 0; i < total; ++i) keys_.push_back(gen.Next());
}

std::unique_ptr<ecc::service::Service> SequentialWorkload::MakeService()
    const {
  const ecc::Duration cost = ecc::Duration::Seconds(kServiceSeconds);
  if (!cfg_.shoreline) {
    return std::make_unique<ecc::service::SyntheticService>(
        "synthetic-derived", cost, kValueBytes);
  }
  ecc::service::ShorelineServiceOptions so;
  so.base_exec_time = cost;
  so.ctm.width = 32;
  so.ctm.height = 32;
  so.grid = GridFor(cfg_.keyspace);
  so.max_result_bytes = kValueBytes;
  return std::make_unique<ecc::service::ShorelineService>(so);
}

Status SequentialWorkload::Wire(Stack& s, bool traced,
                                ecc::core::ElasticCacheOptions& eo) {
  if (!cfg_.tcp_durable) {
    if (traced) eo.channel_factory = TracedLoopbackFactory(&s.wiring, eo.net);
    return Status::Ok();
  }

  s.wal_dir = std::make_unique<TempDir>(args_.workdir);
  if (!s.wal_dir->ok()) {
    return Status::Unavailable("cannot create a WAL directory under " +
                               args_.workdir);
  }
  ecc::durability::DurabilityOptions dopts;
  dopts.dir = s.wal_dir->path();
  s.durability = std::make_unique<ecc::durability::FleetDurability>(dopts);
  auto attach = s.durability->Factory();
  if (traced) {
    eo.durability_factory =
        [attach](NodeId id, ecc::core::CacheNode* node)
        -> std::unique_ptr<ecc::core::ShardMutationListener> {
      auto handle = attach(id, node);
      if (!handle) return nullptr;
      auto listener = std::make_unique<TracingListener>(std::move(handle));
      node->BindMutationListener(listener.get());
      return listener;
    };
  } else {
    eo.durability_factory = attach;
  }

  // One server per node, shared by its foreground and background channels.
  Stack* st = &s;
  eo.channel_factory = [st, traced](NodeId id, ecc::net::RpcServer* rpc,
                                    ecc::VirtualClock* clock)
      -> std::unique_ptr<ecc::net::Channel> {
    auto& server = st->servers[id];
    if (!server) {
      ecc::net::RpcServer* target = rpc;
      if (traced) target = st->wiring.DispatcherFor(id, rpc);
      server = std::make_unique<ecc::net::TcpServer>(target);
      if (Status started = server->Start(); !started.ok()) {
        st->transport = started;
      }
    }
    ecc::net::TcpChannelOptions co;
    co.port = server->port();
    auto channel = std::make_unique<ecc::net::TcpChannel>(co, clock);
    if (!traced) return channel;
    return std::make_unique<TracingChannel>(std::move(channel),
                                            &st->wiring.wire_bytes);
  };
  return Status::Ok();
}

Status SequentialWorkload::Build(bool traced) {
  Teardown();
  auto s = std::make_unique<Stack>();
  ecc::cloudsim::CloudOptions copts;
  s->provider =
      std::make_unique<ecc::cloudsim::CloudProvider>(copts, &s->clock);
  s->service = MakeService();

  ecc::core::ElasticCacheOptions eo;
  eo.node_capacity_bytes =
      cfg_.records_per_node * ecc::core::RecordSize(0, kValueBytes);
  eo.initial_nodes = cfg_.initial_nodes;
  eo.ring.range = cfg_.keyspace;
  eo.min_nodes = cfg_.min_nodes;
  if (Status w = Wire(*s, traced, eo); !w.ok()) {
    stack_ = std::move(s);
    return w;
  }
  s->cache = std::make_unique<ecc::core::ElasticCache>(
      eo, s->provider.get(), &s->clock);
  if (Status t = s->transport; !t.ok()) {
    stack_ = std::move(s);
    return t;
  }

  ecc::core::CacheBackend* backend = s->cache.get();
  ecc::service::Service* service = s->service.get();
  if (traced) {
    s->traced_backend = std::make_unique<TracingBackend>(backend);
    s->traced_service = std::make_unique<TracingService>(service);
    backend = s->traced_backend.get();
    service = s->traced_service.get();
  }
  ecc::core::CoordinatorOptions co;
  co.window.slices = cfg_.window_slices;
  co.window.alpha = 0.99;
  co.window.threshold = -1.0;  // the per-(alpha, m) baseline
  co.contraction_epsilon = 5;
  co.provider = s->provider.get();
  s->coordinator = std::make_unique<ecc::core::Coordinator>(
      co, backend, service, &linearizer_, &s->clock);
  if (s->durability) {
    ecc::core::MaintenanceTask* task = s->durability.get();
    if (traced) {
      s->traced_maintenance = std::make_unique<TracingMaintenance>(task);
      task = s->traced_maintenance.get();
    }
    s->coordinator->AttachMaintenance(task);
  }
  stack_ = std::move(s);
  return Status::Ok();
}

StatusOr<PassResult> SequentialWorkload::RunPass() {
  Stack& s = *stack_;
  ecc::core::Coordinator& coord = *s.coordinator;
  const ecc::core::CacheStats before = s.cache->stats();
  const std::uint64_t invoked_before = s.service->invocations();

  PassResult r;
  r.nodes_max = s.cache->NodeCount();
  std::uint64_t refused = 0;
  std::size_t next = 0;
  r.hit_us.reserve(keys_.size());
  r.miss_us.reserve(keys_.size());
  const Ns t0 = NowNs();
  for (const std::size_t rate : cfg_.rates) {
    for (std::size_t j = 0; j < rate; ++j) {
      const Key k = keys_[next++];
      const Ns q0 = NowNs();
      ecc::core::QueryOutcome out;
      {
        Tracer::Scope span(Layer::kCoordinator);
        out = coord.ProcessKey(k);
      }
      const auto us = static_cast<float>(static_cast<double>(NowNs() - q0) /
                                         1e3);
      if (out.hit) {
        ++r.hits;
        r.hit_us.push_back(us);
      } else if (out.shed || out.stale) {
        ++refused;
      } else {
        ++r.misses;
        r.miss_us.push_back(us);
      }
    }
    {
      Tracer::Scope span(Layer::kEndStep);
      (void)coord.EndTimeStep();
    }
    r.nodes_max = std::max(r.nodes_max, s.cache->NodeCount());
  }
  r.timed_s = static_cast<double>(NowNs() - t0) / 1e9;
  r.timed_queries = next;
  r.attempted = next;

  // Reconcile the outcome counts with the system's own counters.
  r.service_invocations = s.service->invocations() - invoked_before;
  if (r.hits + r.misses + refused != r.attempted ||
      coord.total_queries() != r.attempted || coord.total_hits() != r.hits ||
      coord.shed_count() + coord.stale_serves() != refused ||
      r.service_invocations != r.misses) {
    return Status::Internal(
        "outcome counts do not reconcile with the coordinator and service");
  }
  r.elastic = ElasticDelta::Between(before, s.cache->stats());
  r.failed = refused + r.elastic.put_failures;

  const double mean_query_s = coord.total_query_time().seconds() /
                              static_cast<double>(r.attempted);
  r.virt_speedup = kServiceSeconds / mean_query_s;
  r.virt_cost_usd = s.provider->AccruedCostDollars();
  r.signature = {static_cast<double>(r.hits), static_cast<double>(r.misses),
                 r.virt_speedup, r.virt_cost_usd};
  const auto& alloc = s.provider->stats();
  r.launches = alloc.cold_allocations + alloc.warm_hits;
  r.node_hours = s.provider->TotalAllocatedNodeTime().hours();
  r.wire_bytes = s.wiring.wire_bytes.load();

  std::uint64_t live = 0;
  if (Status c = CheckResident(*s.cache, expected_, &live); !c.ok()) return c;
  r.live_bytes = static_cast<double>(live);
  if (s.wal_dir) {
    r.disk_bytes = static_cast<double>(DirectoryBytes(s.wal_dir->path()));
  }
  return r;
}

std::vector<std::size_t> Rates(const ecc::workload::RateSchedule& schedule,
                               std::size_t slices) {
  std::vector<std::size_t> rates;
  for (std::size_t step = 1; step <= slices; ++step) {
    rates.push_back(schedule.RateAt(step));
  }
  return rates;
}

}  // namespace

std::unique_ptr<Workload> MakePaperPhased(const Args& args) {
  SequentialConfig c;
  c.keyspace = 1u << 15;  // 32K inputs (§IV.C)
  c.records_per_node = 3500;
  c.initial_nodes = 1;
  c.min_nodes = 2;  // the cooperative cache never collapses to one node
  c.window_slices = 100;
  c.rates = Rates(*ecc::workload::PaperPhasedSchedule(), 700);
  c.shoreline = true;
  return std::make_unique<SequentialWorkload>(std::move(c), args);
}

std::unique_ptr<Workload> MakeTcpDurable(const Args& args) {
  SequentialConfig c;
  c.keyspace = 1u << 14;
  c.records_per_node = 8192;  // the window's live set fits: no split
  c.initial_nodes = 2;
  c.min_nodes = 2;
  c.window_slices = 10;
  c.rates = Rates(ecc::workload::ConstantRate(500), 100);
  c.tcp_durable = true;
  return std::make_unique<SequentialWorkload>(std::move(c), args);
}

}  // namespace e2e
