// Temporal sliding window with exponential-decay eviction scoring
// (paper §III.B, Fig. 2).
//
// The window T = (t_1, ..., t_m) holds the keys queried in each of the m
// most recent time slices (t_1 = the slice currently filling).  When a
// slice expires past t_m, every key recorded in the expired slice gets an
// eviction score over the still-in-window slices,
//
//   lambda(k) = sum_{i=1..m} alpha^{i-1} * |{k in t_i}|
//
// and keys with lambda(k) < T_lambda are designated for global eviction.
// The baseline threshold alpha^{m-1} keeps any key queried at least once
// anywhere in the window.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/types.h"

namespace ecc::core {

struct SlidingWindowOptions {
  /// Window length m in time slices.  0 means infinite: nothing ever
  /// expires (the Fig. 3 configuration).
  std::size_t slices = 0;
  /// Decay alpha in (0, 1).
  double alpha = 0.99;
  /// Eviction threshold T_lambda; negative selects the baseline
  /// alpha^(m-1).
  double threshold = -1.0;
};

/// Result of one slice expiry.
struct SliceExpiry {
  /// Keys whose score fell below threshold (candidates for eviction).
  std::vector<Key> evicted;
  /// Distinct keys in the expired slice (scored population).
  std::size_t scored = 0;
  /// Number of slices that fell out of the window (usually 0 while the
  /// window is filling, then 1; more only right after a Resize shrink).
  std::size_t expired_slices = 0;
};

class SlidingWindow {
 public:
  /// Query counts of one slice, by key.
  using Slice = std::unordered_map<Key, std::uint32_t>;

  explicit SlidingWindow(SlidingWindowOptions opts);

  [[nodiscard]] const SlidingWindowOptions& options() const { return opts_; }
  [[nodiscard]] bool infinite() const { return opts_.slices == 0; }
  [[nodiscard]] double EffectiveThreshold() const { return threshold_; }

  /// Record one query for `k` in the current slice t_1.
  void RecordQuery(Key k);

  /// Add counts recorded elsewhere (one worker's private slice) to the
  /// current slice, as if each query had been RecordQuery'd.  An empty
  /// current slice takes `counts` whole, so a single recorder leaves the
  /// exact map RecordQuery would have built — and AdvanceSlice scores its
  /// keys in the same order.
  void MergeIntoCurrent(Slice&& counts);

  /// Close the current slice and open a new one.  If a slice fell out of
  /// the window, score its keys and report eviction candidates.
  SliceExpiry AdvanceSlice();

  /// Current eviction score of `k` over the in-window slices.
  [[nodiscard]] double Lambda(Key k) const;

  /// Occurrences of `k` in slice i (1-based, 1 = newest); 0 if absent.
  [[nodiscard]] std::uint32_t CountInSlice(Key k, std::size_t i) const;

  /// Number of slices currently held (completed + the filling one).
  [[nodiscard]] std::size_t ActiveSlices() const { return window_.size(); }

  /// Distinct keys across the whole window.
  [[nodiscard]] std::size_t DistinctKeys() const;

  /// Change the window length in-flight (dynamic window extension).
  /// Shrinking expires surplus old slices on the next AdvanceSlice calls;
  /// growing simply allows the deque to lengthen.  No-op for infinite.
  void Resize(std::size_t new_slices);

 private:
  SlidingWindowOptions opts_;
  double threshold_;
  /// front() = the filling slice, then t_1 (newest completed) ... t_m
  /// (oldest retained) toward back().
  std::deque<Slice> window_;
};

}  // namespace ecc::core
