#include "core/sliding_window.h"

#include <cassert>
#include <cmath>
#include <unordered_set>
#include <utility>

namespace ecc::core {

namespace {
// alpha^(m-1) computed by repeated multiplication — the exact operation
// sequence Lambda() uses for its weights, so a key queried once in the
// oldest in-window slice scores *exactly* the baseline threshold and is
// kept ("will not evict any key queried even just once in the span of the
// sliding window").  std::pow can differ in the last ulp and break that.
double BaselineThreshold(double alpha, std::size_t m) {
  double t = 1.0;
  for (std::size_t i = 1; i < m; ++i) t *= alpha;
  return t;
}
}  // namespace

SlidingWindow::SlidingWindow(SlidingWindowOptions opts) : opts_(opts) {
  assert(opts_.alpha > 0.0 && opts_.alpha < 1.0);
  if (opts_.threshold >= 0.0) {
    threshold_ = opts_.threshold;
  } else if (opts_.slices > 0) {
    threshold_ = BaselineThreshold(opts_.alpha, opts_.slices);
  } else {
    threshold_ = 0.0;  // infinite window: nothing is ever scored
  }
  window_.emplace_front();  // the filling slice
}

void SlidingWindow::RecordQuery(Key k) { ++window_.front()[k]; }

void SlidingWindow::MergeIntoCurrent(Slice&& counts) {
  Slice& current = window_.front();
  if (current.empty()) {
    current = std::move(counts);
    return;
  }
  for (const auto& [k, count] : counts) current[k] += count;
}

SliceExpiry SlidingWindow::AdvanceSlice() {
  // The filling slice closes and becomes t_1; a fresh filling slice opens.
  // window_ = [filling, t_1, t_2, ..., t_m]; everything beyond t_m is
  // "t_{m+1}": expired, scored against the retained window.
  SliceExpiry result;
  window_.emplace_front();
  if (infinite()) return result;

  while (window_.size() > opts_.slices + 1) {
    Slice expired = std::move(window_.back());
    window_.pop_back();
    ++result.expired_slices;
    for (const auto& [k, count] : expired) {
      ++result.scored;
      if (Lambda(k) < threshold_) result.evicted.push_back(k);
    }
    // Only one slice expires per advance in steady state; the loop also
    // drains surplus slices after a Resize shrink, scoring each.
  }
  return result;
}

double SlidingWindow::Lambda(Key k) const {
  // The filling slice shares t_1's weight (recent queries are rewarded
  // immediately); completed slice i gets alpha^(i-1).
  double score = 0.0;
  double weight = 1.0;
  bool filling = true;
  for (const Slice& slice : window_) {
    const auto it = slice.find(k);
    if (it != slice.end()) score += weight * it->second;
    if (filling) {
      filling = false;  // t_1 keeps weight 1; decay starts after it
    } else {
      weight *= opts_.alpha;
    }
  }
  return score;
}

std::uint32_t SlidingWindow::CountInSlice(Key k, std::size_t i) const {
  assert(i >= 1);
  if (i > window_.size()) return 0;
  const Slice& slice = window_[i - 1];
  const auto it = slice.find(k);
  return it == slice.end() ? 0 : it->second;
}

std::size_t SlidingWindow::DistinctKeys() const {
  std::unordered_set<Key> keys;
  for (const Slice& slice : window_) {
    for (const auto& [k, count] : slice) keys.insert(k);
  }
  return keys.size();
}

void SlidingWindow::Resize(std::size_t new_slices) {
  opts_.slices = new_slices;
  if (opts_.slices > 0 && opts_.threshold < 0.0) {
    threshold_ = BaselineThreshold(opts_.alpha, opts_.slices);
  }
}

}  // namespace ecc::core
