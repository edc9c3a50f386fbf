#include "bench.h"

#include <fcntl.h>
#include <sched.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "tracer.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

namespace {

/// Set-up repetitions before each pass: at least one, more while they fit
/// in kSetupBudgetS, at most kMaxSetups.  Spread over the run like the
/// passes, they sample the host as it drifts instead of its first second.
constexpr int kMaxSetups = 100;
constexpr double kSetupBudgetS = 0.02;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  PassResult total;
  std::vector<Metric> metrics;
};

std::size_t OpenDescriptors() {
  std::error_code ec;
  std::size_t n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/fd", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

/// Ticks all CPUs have spent so far, and the share of them the hypervisor
/// gave to other guests (steal), from /proc/stat.
struct CpuTicks {
  double total = 0;
  double steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  double field = 0;
  for (int i = 0; i < 8 && in >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

double Seconds(Ns ns) { return static_cast<double>(ns) / 1e9; }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void PrintResult(const PassResult& total, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(total.attempted) +
                    ", \"failed\": " + std::to_string(total.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Median over `figures` of one figure.
double MedianOf(const std::vector<PassFigures>& figures,
                double PassFigures::*figure) {
  std::vector<double> v;
  for (const PassFigures& f : figures) v.push_back(f.*figure);
  return Median(v);
}

/// Reduce a pass's wall-clock samples to its figures.  Fails when the
/// samples cannot support a p99 (ten of them beyond it).
ecc::Status ReduceSamples(PassResult* r) {
  for (const auto* us : {&r->hit_us, &r->miss_us}) {
    if (HighestSupportedPercentile(us->size()) < 99.0) {
      return ecc::Status::Internal(std::to_string(us->size()) +
                                   " latency samples in a pass cannot "
                                   "support a p99");
    }
  }
  PassFigures f;
  f.qps = Ratio(static_cast<double>(r->timed_queries), r->timed_s);
  f.hit_p50_us = Percentile(r->hit_us, 50);
  f.hit_p99_us = Percentile(r->hit_us, 99);
  f.miss_p50_us = Percentile(r->miss_us, 50);
  f.miss_p99_us = Percentile(r->miss_us, 99);
  r->figures = {f};
  r->hit_samples = r->hit_us.size();
  r->miss_samples = r->miss_us.size();
  r->hit_us = {};
  r->miss_us = {};
  return ecc::Status::Ok();
}

void PrintSamples(const PassResult& total) {
  std::printf("samples: %llu queries in %llu passes; hit latency %llu "
              "(%llu a pass), miss latency %llu (%llu a pass); "
              "failed_ratio=%.6g\n",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.passes),
              static_cast<unsigned long long>(total.hit_samples),
              static_cast<unsigned long long>(total.hit_samples /
                                              total.passes),
              static_cast<unsigned long long>(total.miss_samples),
              static_cast<unsigned long long>(total.miss_samples /
                                              total.passes),
              Ratio(static_cast<double>(total.failed),
                    static_cast<double>(total.attempted)));
  std::printf("per-pass throughput (1/s):");
  for (const PassFigures& f : total.figures) std::printf(" %.6g", f.qps);
  std::printf("\n");
}

/// Build an untraced stack up to kMaxSetups times, timing each build into
/// `setups`; the last one stays built.
ecc::Status TimedBuilds(Workload& w, std::vector<double>* setups) {
  double spent = 0;
  for (int i = 0;; ++i) {
    const Ns t0 = NowNs();
    ecc::Status s = w.Build(/*traced=*/false);
    const double dt = Seconds(NowNs() - t0);
    if (!s.ok()) return s;
    setups->push_back(dt);
    spent += dt;
    if (i + 1 >= kMaxSetups || spent >= kSetupBudgetS) {
      return ecc::Status::Ok();
    }
    w.Teardown();
  }
}

/// Timed passes, each on a freshly built stack, until `seconds` is spent.
/// With `setups`, the untraced builds before each pass are timed into it.
/// Every pass must reproduce the first one's modelled signature.
ecc::Status MeasurePasses(Workload& w, double seconds, bool traced,
                          PassResult* total,
                          std::vector<double>* setups = nullptr) {
  const Ns t0 = NowNs();
  for (int pass = 0;; ++pass) {
    ecc::Status built =
        setups != nullptr ? TimedBuilds(w, setups) : w.Build(traced);
    if (!built.ok()) {
      w.Teardown();
      return built;
    }
    if (traced) Tracer::Get().Enable(/*fold_early=*/w.in_process());
    auto r = w.RunPass();
    Tracer::Get().Disable();
    w.Teardown();
    if (!r.ok()) return r.status();
    if (!total->signature.empty() && total->signature != r->signature) {
      return ecc::Status::Internal(
          "modelled outcome differs between passes of one seed");
    }
    r->passes = 1;
    if (ecc::Status f = ReduceSamples(&*r); !f.ok()) return f;
    total->Add(std::move(*r));
    // Stop at the pass boundary nearest to `seconds`.
    const double spent = Seconds(NowNs() - t0);
    if (spent + spent / (pass + 1) / 2 >= seconds) return ecc::Status::Ok();
  }
}

ecc::Status EndToEnd(const Args& args, Workload& w, Report* report) {
  std::vector<double> setups;
  PassResult total;
  if (ecc::Status s = MeasurePasses(w, args.seconds, false, &total, &setups);
      !s.ok()) {
    return s;
  }
  std::vector<Metric> m;
  const std::vector<PassFigures>& f = total.figures;
  m.push_back({"throughput_qps", MedianOf(f, &PassFigures::qps), "1/s"});
  m.push_back({"hit_p50_us", MedianOf(f, &PassFigures::hit_p50_us), "us"});
  m.push_back({"hit_p99_us", MedianOf(f, &PassFigures::hit_p99_us), "us"});
  m.push_back({"miss_p50_us", MedianOf(f, &PassFigures::miss_p50_us), "us"});
  m.push_back({"miss_p99_us", MedianOf(f, &PassFigures::miss_p99_us), "us"});
  m.push_back({"hit_rate",
               Ratio(static_cast<double>(total.hits),
                     static_cast<double>(total.attempted)),
               "fraction"});
  // Virtual-clock model outputs, labelled as such in their units.
  m.push_back({"virt_speedup", total.virt_speedup, "x-modelled"});
  m.push_back({"virt_cost_usd", total.virt_cost_usd, "usd-modelled"});
  m.push_back({"setup_s", Median(setups), "s"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  std::sort(setups.begin(), setups.end());
  std::printf("setup: %zu repetitions, min %.6g s, median %.6g s, max %.6g s\n",
              setups.size(), setups.front(), Median(setups), setups.back());
  report->total = std::move(total);
  report->metrics = std::move(m);
  return ecc::Status::Ok();
}

/// The per-layer report of a traced run.  Counts, busy and self times are
/// per pass (every pass runs the same schedule); percentiles and ratios
/// pool all passes.
void AddLayerMetrics(TraceSummary& t, const PassResult& r,
                     std::vector<Metric>* out) {
  const auto passes = static_cast<double>(r.passes);
  auto add = [out](const char* name, double value, const char* unit) {
    out->push_back({name, value, unit});
  };
  // Per-pass totals.
  auto count = [&](const char* name, double n) {
    add(name, n / passes, "count/pass");
  };
  auto seconds = [&](const char* name, double s) {
    add(name, s / passes, "s/pass");
  };
  auto p_us = [&](const char* name, LayerAgg& a, double p) {
    add(name, SupportedPercentile(a.dur_us, p), "us");
  };
  auto p_ms = [&](const char* name, LayerAgg& a, double p) {
    add(name, SupportedPercentile(a.dur_us, p) / 1e3, "ms");
  };
  auto n = [](const LayerAgg& a) { return static_cast<double>(a.count); };
  const auto queries = static_cast<double>(r.attempted);

  LayerAgg& coord = t.at(Layer::kCoordinator);
  add("core.coordinator.self_us_p50", SupportedPercentile(coord.self_us, 50),
      "us");
  add("core.coordinator.self_us_p99", SupportedPercentile(coord.self_us, 99),
      "us");
  seconds("core.coordinator.self_s", coord.self_s);

  LayerAgg& get = t.at(Layer::kBackendGet);
  count("core.backend.get.count", n(get));
  p_us("core.backend.get.us_p50", get, 50);
  p_us("core.backend.get.us_p99", get, 99);
  seconds("core.backend.get.busy_s", get.busy_s);
  add("core.backend.get.hit_ratio", Ratio(static_cast<double>(get.ok), n(get)),
      "fraction");

  LayerAgg& put = t.at(Layer::kBackendPut);
  count("core.backend.put.count", n(put));
  p_us("core.backend.put.us_p50", put, 50);
  p_us("core.backend.put.us_p99", put, 99);
  seconds("core.backend.put.busy_s", put.busy_s);

  LayerAgg& evict = t.at(Layer::kBackendEvict);
  count("core.backend.evict.records", static_cast<double>(evict.value_sum));
  seconds("core.backend.evict.busy_s", evict.busy_s);
  LayerAgg& contract = t.at(Layer::kBackendContract);
  count("core.backend.contract.count", n(contract));
  seconds("core.backend.contract.busy_s", contract.busy_s);

  const ElasticDelta& e = r.elastic;
  count("core.elastic.splits", static_cast<double>(e.splits));
  count("core.elastic.records_migrated",
        static_cast<double>(e.records_migrated));
  add("core.elastic.bytes_migrated",
      static_cast<double>(e.bytes_migrated) / passes, "B/pass");
  count("core.elastic.node_allocations",
        static_cast<double>(e.node_allocations));
  count("core.elastic.node_removals", static_cast<double>(e.node_removals));
  add("core.elastic.nodes_max", static_cast<double>(r.nodes_max), "count");
  count("core.elastic.rpc_retries", static_cast<double>(e.rpc_retries));
  count("core.elastic.rpc_failures", static_cast<double>(e.rpc_failures));

  LayerAgg& step = t.at(Layer::kEndStep);
  count("core.end_step.count", n(step));
  p_ms("core.end_step.ms_p50", step, 50);
  p_ms("core.end_step.ms_p90", step, 90);
  seconds("core.end_step.self_s", step.self_s);

  LayerAgg& call = t.at(Layer::kNetCall);
  count("net.call.count", n(call));
  p_us("net.call.us_p50", call, 50);
  p_us("net.call.us_p99", call, 99);
  seconds("net.call.self_s", call.self_s);
  add("net.calls_per_query", Ratio(n(call), queries), "calls/query");
  add("net.bytes_per_query",
      Ratio(static_cast<double>(r.wire_bytes), queries), "B/query");

  LayerAgg& dispatch = t.at(Layer::kNodeDispatch);
  p_us("core.node.dispatch.us_p50", dispatch, 50);
  seconds("core.node.dispatch.busy_s", dispatch.busy_s);

  LayerAgg& svc = t.at(Layer::kServiceInvoke);
  count("service.invoke.count", n(svc));
  p_us("service.invoke.us_p50", svc, 50);
  p_us("service.invoke.us_p99", svc, 99);
  seconds("service.invoke.busy_s", svc.busy_s);
  add("service.invokes_per_miss",
      Ratio(n(svc), static_cast<double>(r.misses)), "ratio");

  LayerAgg& append = t.at(Layer::kDurabilityAppend);
  count("durability.append.count", n(append));
  p_us("durability.append.us_p50", append, 50);
  seconds("durability.append.busy_s", append.busy_s);
  LayerAgg& tick = t.at(Layer::kDurabilityTick);
  p_ms("durability.tick.ms_p50", tick, 50);
  seconds("durability.tick.busy_s", tick.busy_s);
  add("durability.disk_bytes_per_live_byte",
      Ratio(r.disk_bytes, r.live_bytes), "ratio");

  count("cloudsim.launches", static_cast<double>(r.launches));
  add("cloudsim.node_hours", r.node_hours / passes, "h/pass");
}

ecc::Status PerLayer(const Args& args, Workload& w, Report* report) {
  // Half the budget untraced, half traced; at least one pass each.
  PassResult untraced;
  if (ecc::Status s = MeasurePasses(w, args.seconds / 2, false, &untraced);
      !s.ok()) {
    return s;
  }
  PassResult traced;
  if (ecc::Status s = MeasurePasses(w, args.seconds / 2, true, &traced);
      !s.ok()) {
    return s;
  }
  TraceSummary summary;
  Tracer::Get().Drain(&summary);
  if (traced.signature != untraced.signature) {
    return ecc::Status::Internal(
        "the traced run's modelled outcome differs from the untraced run's");
  }
  std::printf("trace guard: hit_rate, virt_speedup and virt_cost_usd of the "
              "traced run are bit-identical to the untraced run's "
              "(virt_speedup=%.17g virt_cost_usd=%.17g)\n",
              traced.virt_speedup, traced.virt_cost_usd);

  const double untraced_qps = MedianOf(untraced.figures, &PassFigures::qps);
  const double traced_qps = MedianOf(traced.figures, &PassFigures::qps);
  std::vector<Metric> m;
  AddLayerMetrics(summary, traced, &m);
  m.push_back({"trace.untraced_qps", untraced_qps, "1/s"});
  m.push_back({"trace.traced_qps", traced_qps, "1/s"});
  m.push_back({"trace.qps_ratio", Ratio(traced_qps, untraced_qps), "ratio"});
  std::printf("trace: %llu spans; tracing overhead: traced %.6g q/s vs "
              "untraced %.6g q/s\n",
              static_cast<unsigned long long>(summary.spans), traced_qps,
              untraced_qps);

  report->total = std::move(untraced);
  report->total.Add(std::move(traced));
  report->metrics = std::move(m);
  return ecc::Status::Ok();
}

}  // namespace

ElasticDelta ElasticDelta::Between(const ecc::core::CacheStats& before,
                                   const ecc::core::CacheStats& after) {
  ElasticDelta d;
  d.splits = after.splits - before.splits;
  d.records_migrated = after.records_migrated - before.records_migrated;
  d.bytes_migrated = after.bytes_migrated - before.bytes_migrated;
  d.node_allocations = after.node_allocations - before.node_allocations;
  d.node_removals = after.node_removals - before.node_removals;
  d.rpc_retries = after.rpc_retries - before.rpc_retries;
  d.rpc_failures = after.rpc_failures - before.rpc_failures;
  d.put_failures = after.put_failures - before.put_failures;
  return d;
}

void ElasticDelta::Add(const ElasticDelta& o) {
  splits += o.splits;
  records_migrated += o.records_migrated;
  bytes_migrated += o.bytes_migrated;
  node_allocations += o.node_allocations;
  node_removals += o.node_removals;
  rpc_retries += o.rpc_retries;
  rpc_failures += o.rpc_failures;
  put_failures += o.put_failures;
}

void PassResult::Add(PassResult&& o) {
  if (signature.empty()) {
    // Modelled figures are per pass (every pass repeats them).
    signature = o.signature;
    virt_speedup = o.virt_speedup;
    virt_cost_usd = o.virt_cost_usd;
  }
  passes += o.passes;
  attempted += o.attempted;
  hits += o.hits;
  misses += o.misses;
  failed += o.failed;
  figures.insert(figures.end(), o.figures.begin(), o.figures.end());
  hit_samples += o.hit_samples;
  miss_samples += o.miss_samples;
  elastic.Add(o.elastic);
  nodes_max = std::max(nodes_max, o.nodes_max);
  launches += o.launches;
  node_hours += o.node_hours;
  disk_bytes += o.disk_bytes;
  live_bytes += o.live_bytes;
  wire_bytes += o.wire_bytes;
  service_invocations += o.service_invocations;
}

const std::string& ExpectedOutputs::For(ecc::core::Key k) {
  auto it = memo_.find(k);
  if (it != memo_.end()) return it->second;
  auto r = reference_->Invoke(linearizer_->CellCenter(k), /*clock=*/nullptr);
  return memo_.emplace(k, r.ok() ? std::move(r->payload) : std::string())
      .first->second;
}

ecc::Status CheckResident(const ecc::core::ElasticCache& cache,
                          ExpectedOutputs& expected,
                          std::uint64_t* live_bytes) {
  const ecc::core::Key last = cache.options().ring.range - 1;
  std::size_t records = 0;
  *live_bytes = 0;
  for (const ecc::core::NodeId id : cache.NodeIds()) {
    const ecc::core::CacheNode* node = cache.GetNode(id);
    if (node == nullptr) return ecc::Status::Internal("node vanished");
    for (const auto& [k, v] : node->SweepRange(0, last)) {
      auto owner = cache.OwnerOf(k);
      if (!owner.ok() || *owner != id) {
        return ecc::Status::Internal("key " + std::to_string(k) +
                                     " is not on the node it routes to");
      }
      if (v != expected.For(k)) {
        return ecc::Status::Internal("key " + std::to_string(k) +
                                     ": cached bytes differ from the "
                                     "service's output");
      }
      ++records;
      *live_bytes += v.size();
    }
  }
  if (records != cache.TotalRecords()) {
    return ecc::Status::Internal("resident record count does not reconcile");
  }
  return ecc::Status::Ok();
}

TempDir::TempDir(const std::string& parent) {
  std::string tmpl = parent + "/walXXXXXX";
  if (mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
}

TempDir::~TempDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  if (ec) {
    std::fprintf(stderr, "e2ebench: cannot remove %s: %s\n", path_.c_str(),
                 ec.message().c_str());
  }
}

std::size_t UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

int PinToOneCpu() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
  }
  return -1;
}

void PrintHostFacts() {
  double load[1] = {0};
  if (getloadavg(load, 1) != 1) load[0] = -1;
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  std::printf("host: nproc=%zu load1=%.2f build=%s compiler=gcc-%s "
              "GLIBC_TUNABLES=%s\n",
              UsableCpus(), load[0], E2E_BUILD_TYPE, __VERSION__,
              tunables != nullptr ? tunables : "");
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    std::error_code size_ec;
    if (entry.is_regular_file(size_ec)) {
      const auto size = entry.file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

ecc::sfc::LinearizerOptions GridFor(std::uint64_t keyspace) {
  // 2 * spatial_bits + time_bits == log2(keyspace), with 2-3 time bits
  // (the paper's keys are linearized coordinates plus a date).
  unsigned log2 = 0;
  while ((1ull << log2) < keyspace) ++log2;
  ecc::sfc::LinearizerOptions opts;
  opts.time_bits = log2 % 2 == 0 ? 2 : 3;
  opts.spatial_bits = (log2 - opts.time_bits) / 2;
  return opts;
}

int RunBenchmark(const Args& args, Workload& w) {
  // Write back what earlier runs left dirty on the work directory's file
  // system, so set-up's file creation does not queue behind it.
  if (const int dir = ::open(args.workdir.c_str(), O_RDONLY | O_DIRECTORY);
      dir >= 0) {
    (void)::syncfs(dir);
    ::close(dir);
  }
  const std::size_t fds_before = OpenDescriptors();
  const CpuTicks ticks_before = ReadCpuTicks();
  Report report;
  ecc::Status s = args.trace ? PerLayer(args, w, &report)
                             : EndToEnd(args, w, &report);
  // Every stack is torn down by now: its sockets and files must be closed.
  if (const std::size_t fds = OpenDescriptors(); s.ok() && fds > fds_before) {
    s = ecc::Status::Internal(std::to_string(fds - fds_before) +
                              " file descriptors left open after teardown");
  }
  if (!s.ok()) {
    std::fprintf(stderr, "e2ebench: %s: %s\n", args.workload.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  const CpuTicks ticks = ReadCpuTicks();
  std::printf("host: hypervisor steal took %.3g%% of CPU time during the "
              "run\n",
              100 * Ratio(ticks.steal - ticks_before.steal,
                          ticks.total - ticks_before.total));
  PrintSamples(report.total);
  PrintResult(report.total, report.metrics);
  return 0;
}

}  // namespace e2e
