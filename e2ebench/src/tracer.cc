#include "tracer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace e2e {

namespace {

/// A thread reduces its own buffer once it holds this many spans.
constexpr std::size_t kEarlyFoldSpans = 1u << 16;

/// Only root layers keep per-span self-time samples (their percentiles are
/// reported); every layer keeps duration samples.
bool KeepsSelfSamples(Layer l) {
  return l == Layer::kCoordinator || l == Layer::kEndStep;
}

void Merge(LayerAgg& into, LayerAgg&& from) {
  into.count += from.count;
  into.ok += from.ok;
  into.value_sum += from.value_sum;
  into.busy_s += from.busy_s;
  into.self_s += from.self_s;
  into.dur_us.insert(into.dur_us.end(), from.dur_us.begin(),
                     from.dur_us.end());
  into.self_us.insert(into.self_us.end(), from.self_us.begin(),
                      from.self_us.end());
}

void MergeSummary(TraceSummary& into, TraceSummary&& from) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    Merge(into.layers[i], std::move(from.layers[i]));
  }
  into.spans += from.spans;
}

}  // namespace

std::vector<Ns> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  // (parent index, child index), grouped by parent, children by start.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  edges.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    const auto it = index.find(spans[i].parent);
    if (it != index.end()) edges.emplace_back(it->second, i);
  }
  std::sort(edges.begin(), edges.end(), [&spans](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return spans[a.second].start < spans[b.second].start;
  });

  std::vector<Ns> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (std::size_t e = 0; e < edges.size();) {
    const std::size_t p = edges[e].first;
    const Ns lo = spans[p].start;
    const Ns hi = spans[p].end;
    Ns covered = 0;
    Ns run_start = 0;
    Ns run_end = 0;
    bool in_run = false;
    for (; e < edges.size() && edges[e].first == p; ++e) {
      const Span& c = spans[edges[e].second];
      const Ns s = std::max(c.start, lo);
      const Ns t = std::min(c.end, hi);
      if (t <= s) continue;
      if (in_run && s <= run_end) {
        run_end = std::max(run_end, t);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = s;
      run_end = t;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[p] -= covered;
  }
  return self;
}

double HighestSupportedPercentile(std::size_t n) {
  // Tenths of a percent, so the rank arithmetic stays in integers.
  for (const std::uint64_t p10 : {999u, 990u, 900u, 500u}) {
    const std::uint64_t rank = (p10 * n + 999) / 1000;  // ceil(p * n)
    if (n >= rank + 10) return static_cast<double>(p10) / 10.0;
  }
  return 0.0;
}

double Percentile(std::vector<float>& samples, double p) {
  if (samples.empty()) return 0.0;
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double SupportedPercentile(std::vector<float>& samples, double p) {
  const double top = HighestSupportedPercentile(samples.size());
  return Percentile(samples, top == 0.0 ? 50.0 : std::min(p, top));
}

void TraceSummary::Add(const std::vector<Span>& spans_in) {
  const std::vector<Ns> self = SelfTimes(spans_in);
  for (std::size_t i = 0; i < spans_in.size(); ++i) {
    const Span& s = spans_in[i];
    LayerAgg& a = at(s.layer);
    const Ns dur = s.end - s.start;
    ++a.count;
    a.ok += s.ok ? 1 : 0;
    a.value_sum += s.value;
    a.busy_s += static_cast<double>(dur) / 1e9;
    a.self_s += static_cast<double>(self[i]) / 1e9;
    a.dur_us.push_back(static_cast<float>(static_cast<double>(dur) / 1e3));
    if (KeepsSelfSamples(s.layer)) {
      a.self_us.push_back(
          static_cast<float>(static_cast<double>(self[i]) / 1e3));
    }
  }
  spans += spans_in.size();
}

Tracer& Tracer::Get() {
  // Never destroyed: server threads may still hold their buffer pointers
  // while static destructors run.
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable(bool fold_early) {
  fold_early_.store(fold_early, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_release); }

Tracer::ThreadBuf& Tracer::Local() {
  thread_local ThreadBuf* local = nullptr;
  if (local == nullptr) {
    auto buf = std::make_shared<ThreadBuf>();
    const std::lock_guard<std::mutex> g(registry_mutex_);
    buf->thread_tag = next_tag_++;
    buffers_.push_back(buf);
    local = buf.get();
  }
  return *local;
}

void Tracer::Close(ThreadBuf& buf, const Span& span, bool root) {
  std::vector<Span> batch;
  {
    const std::lock_guard<std::mutex> g(buf.mutex);
    buf.spans.push_back(span);
    if (!root || !fold_early_.load(std::memory_order_relaxed) ||
        buf.spans.size() < kEarlyFoldSpans) {
      return;
    }
    batch.swap(buf.spans);
  }
  TraceSummary part;
  part.Add(batch);
  const std::lock_guard<std::mutex> g(registry_mutex_);
  MergeSummary(early_, std::move(part));
}

void Tracer::Drain(TraceSummary* summary) {
  std::vector<Span> all;
  TraceSummary early;
  {
    const std::lock_guard<std::mutex> g(registry_mutex_);
    for (const auto& buf : buffers_) {
      const std::lock_guard<std::mutex> bg(buf->mutex);
      all.insert(all.end(), buf->spans.begin(), buf->spans.end());
      buf->spans.clear();
      buf->spans.shrink_to_fit();
    }
    early = std::move(early_);
    early_ = TraceSummary{};
  }
  summary->Add(all);
  MergeSummary(*summary, std::move(early));
}

Tracer::Scope::Scope(Layer layer, bool remote_parent) : layer_(layer) {
  Tracer& t = Get();
  if (!t.enabled()) return;
  active_ = true;
  ThreadBuf& buf = t.Local();
  if (!buf.stack.empty()) {
    parent_ = buf.stack.back().id;
    query_ = buf.stack.back().query;
  } else if (remote_parent) {
    parent_ = t.wire_parent_.load(std::memory_order_acquire);
    query_ = t.wire_query_.load(std::memory_order_acquire);
  } else if (layer == Layer::kCoordinator) {
    query_ = t.next_query_.fetch_add(1, std::memory_order_relaxed);
  }
  id_ = (buf.thread_tag << 40) | ++buf.next_seq;
  buf.stack.push_back(Frame{id_, query_});
  start_ = NowNs();
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  const Ns end = NowNs();
  Tracer& t = Get();
  ThreadBuf& buf = t.Local();
  buf.stack.pop_back();
  Span s;
  s.id = id_;
  s.parent = parent_;
  s.query = query_;
  s.start = start_;
  s.end = end;
  s.layer = layer_;
  s.ok = ok_;
  s.value = value_;
  t.Close(buf, s, buf.stack.empty());
}

}  // namespace e2e
