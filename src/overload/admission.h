// Bounded admission queue for pending misses, and the one service slot
// they wait for.
//
// Under overload the queue models a service that runs one call at a time:
// an admitted leader waits in StartService() for the single slot and
// frees it in Exit().  Without the bound, a miss storm would pile
// unbounded leaders behind that slot at ~23 s apiece.  A leader takes a
// ticket *before* it waits; when the pending count is at the limit the
// queue either refuses the newcomer (kRejectNew) or revokes the oldest
// still-waiting ticket to make room (kDropOldest — freshest work wins, the
// policy a flash crowd wants).  A revoked leader waiting in StartService()
// is woken and told to shed instead of invoking the service.
//
// The parallel front end builds a queue whenever overload protection is
// on (queue_limit 0 = unbounded, still one slot).  With protection off
// there is no queue and no slot: leaders of distinct keys invoke the
// (concurrency-safe, see service.h) service in parallel.
//
// Thread-safe; every operation but StartService()'s wait is a short
// mutex-guarded section.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_set>

#include "common/time.h"

namespace ecc::overload {

enum class AdmissionPolicy {
  kRejectNew,   ///< full queue refuses the arriving miss
  kDropOldest,  ///< full queue revokes the oldest waiting miss instead
};

[[nodiscard]] const char* AdmissionPolicyName(AdmissionPolicy p);

struct AdmissionOptions {
  /// Maximum pending misses (waiting + in service).  0 = unbounded.
  std::size_t queue_limit = 0;
  AdmissionPolicy policy = AdmissionPolicy::kRejectNew;
};

struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;    ///< newcomers refused (kRejectNew or no
                                 ///< droppable waiter under kDropOldest)
  std::uint64_t dropped = 0;     ///< waiting tickets revoked (kDropOldest)
  std::uint64_t peak_depth = 0;  ///< high-water pending count
};

class AdmissionQueue {
 public:
  using Ticket = std::uint64_t;
  static constexpr Ticket kRejected = 0;

  explicit AdmissionQueue(AdmissionOptions opts = {});

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Ask to join the pending-miss queue.  Returns a ticket (> 0) on
  /// admission, kRejected when shed.  May revoke another waiter under
  /// kDropOldest.
  [[nodiscard]] Ticket Enter();

  /// Block until the single service slot is free and take it (true), or
  /// until `t` is revoked while waiting (false — the holder must shed,
  /// not call).
  [[nodiscard]] bool StartService(Ticket t);

  /// The service call finished (only after StartService returned true);
  /// frees the slot for the next waiter.
  void Exit(Ticket t);

  /// The holder no longer needs the slot (e.g. the double-checked cache
  /// lookup hit); valid for waiting or revoked tickets.
  void Cancel(Ticket t);

  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] AdmissionStats stats() const;
  [[nodiscard]] const AdmissionOptions& options() const { return opts_; }

 private:
  const AdmissionOptions opts_;
  mutable std::mutex mutex_;
  /// Signalled when the slot frees up or a waiting ticket is revoked.
  std::condition_variable slot_cv_;
  Ticket next_ = 1;
  std::deque<Ticket> waiting_;         ///< admission order, front = oldest
  std::unordered_set<Ticket> revoked_;
  std::size_t in_service_ = 0;  ///< 0 or 1: the single service slot
  AdmissionStats stats_;
};

}  // namespace ecc::overload
