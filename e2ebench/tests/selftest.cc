// Tests of the benchmark's own arithmetic: percentile selection and
// self-time computation.  Run by `python3 e2ebench/run.py --selftest`;
// exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "../src/tracer.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using e2e::Layer;
using e2e::Span;

Span Make(std::uint64_t id, std::uint64_t parent, e2e::Ns start,
          e2e::Ns end, Layer layer = Layer::kCoordinator) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  s.layer = layer;
  return s;
}

void TestHighestSupportedPercentile() {
  // Ten samples strictly beyond the nearest-rank percentile.
  CHECK(e2e::HighestSupportedPercentile(0) == 0.0);
  CHECK(e2e::HighestSupportedPercentile(19) == 0.0);
  CHECK(e2e::HighestSupportedPercentile(20) == 50.0);
  CHECK(e2e::HighestSupportedPercentile(99) == 50.0);
  CHECK(e2e::HighestSupportedPercentile(100) == 90.0);
  CHECK(e2e::HighestSupportedPercentile(999) == 90.0);
  CHECK(e2e::HighestSupportedPercentile(1000) == 99.0);
  CHECK(e2e::HighestSupportedPercentile(9999) == 99.0);
  CHECK(e2e::HighestSupportedPercentile(10000) == 99.9);
  CHECK(e2e::HighestSupportedPercentile(1000000) == 99.9);
}

void TestPercentile() {
  std::vector<float> v;
  for (int i = 1000; i >= 1; --i) v.push_back(static_cast<float>(i));
  CHECK(e2e::Percentile(v, 50) == 500.0);
  CHECK(e2e::Percentile(v, 99) == 990.0);  // 10 samples beyond it
  CHECK(e2e::Percentile(v, 100) == 1000.0);
  std::vector<float> empty;
  CHECK(e2e::Percentile(empty, 50) == 0.0);

  // A p99 request on 100 samples is clamped to p90, the highest supported.
  std::vector<float> small;
  for (int i = 1; i <= 100; ++i) small.push_back(static_cast<float>(i));
  CHECK(e2e::SupportedPercentile(small, 99) == 90.0);
  // Too few samples for anything: fall back to the median.
  std::vector<float> tiny = {3, 1, 2};
  CHECK(e2e::SupportedPercentile(tiny, 99) == 2.0);
}

void TestSelfTimes() {
  // root [0, 100)
  //   a [10, 40)            child of root
  //     a1 [15, 25)         child of a
  //   b [30, 60)            child of root, overlaps a on [30, 40)
  //   c [90, 130)           child of root, runs past root's end
  // remote [50, 55)         parent not in the set: a root of its own
  // d [200, 210)            separate root, no children
  const std::vector<Span> spans = {
      Make(1, 0, 0, 100),   Make(2, 1, 10, 40), Make(3, 2, 15, 25),
      Make(4, 1, 30, 60),   Make(5, 1, 90, 130), Make(6, 99, 50, 55),
      Make(7, 0, 200, 210),
  };
  const std::vector<e2e::Ns> self = e2e::SelfTimes(spans);
  CHECK(self.size() == spans.size());
  // root: children cover [10, 60) and [90, 100) -> 60 of 100.
  CHECK(self[0] == 40);
  CHECK(self[1] == 20);  // a: 30 minus a1's 10
  CHECK(self[2] == 10);
  CHECK(self[3] == 30);  // b: no children
  CHECK(self[4] == 40);  // c: its own full duration
  CHECK(self[5] == 5);
  CHECK(self[6] == 10);

  // The reduction sums durations and self times per layer.
  std::vector<Span> traced = {
      Make(10, 0, 0, 1000, Layer::kCoordinator),
      Make(11, 10, 100, 400, Layer::kBackendGet),
      Make(12, 11, 150, 350, Layer::kNetCall),
      Make(13, 12, 200, 300, Layer::kNodeDispatch),
  };
  traced[1].ok = false;
  e2e::TraceSummary summary;
  summary.Add(traced);
  CHECK(summary.spans == 4);
  CHECK(summary.at(Layer::kCoordinator).count == 1);
  CHECK(std::fabs(summary.at(Layer::kCoordinator).self_s - 700e-9) < 1e-15);
  CHECK(summary.at(Layer::kCoordinator).self_us.size() == 1);
  CHECK(std::fabs(summary.at(Layer::kBackendGet).busy_s - 300e-9) < 1e-15);
  CHECK(std::fabs(summary.at(Layer::kBackendGet).self_s - 100e-9) < 1e-15);
  CHECK(summary.at(Layer::kBackendGet).ok == 0);
  CHECK(std::fabs(summary.at(Layer::kNetCall).self_s - 100e-9) < 1e-15);
  CHECK(std::fabs(summary.at(Layer::kNodeDispatch).self_s - 100e-9) < 1e-15);
}

void TestScopesBuildATree() {
  e2e::Tracer& t = e2e::Tracer::Get();
  {
    e2e::Tracer::Scope off(Layer::kCoordinator);  // disabled: not recorded
  }
  t.Enable(/*fold_early=*/false);
  {
    e2e::Tracer::Scope root(Layer::kCoordinator);
    CHECK(root.query() != 0);
    e2e::Tracer::Scope get(Layer::kBackendGet);
    CHECK(get.query() == root.query());
    get.set_ok(false);
  }
  {
    e2e::Tracer::Scope step(Layer::kEndStep);
    CHECK(step.query() == 0);  // a slice close is not a query
  }
  t.Disable();
  e2e::TraceSummary summary;
  t.Drain(&summary);
  CHECK(summary.spans == 3);
  CHECK(summary.at(Layer::kCoordinator).count == 1);
  CHECK(summary.at(Layer::kBackendGet).count == 1);
  CHECK(summary.at(Layer::kBackendGet).ok == 0);
  CHECK(summary.at(Layer::kEndStep).count == 1);
  const auto& coord = summary.at(Layer::kCoordinator);
  CHECK(coord.self_s <= coord.busy_s);
}

}  // namespace

int main() {
  TestHighestSupportedPercentile();
  TestPercentile();
  TestSelfTimes();
  TestScopesBuildATree();
  if (failures != 0) {
    std::fprintf(stderr, "e2ebench selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("e2ebench selftest: all checks passed\n");
  return 0;
}
