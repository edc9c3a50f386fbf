#include "overload/admission.h"

#include <algorithm>

namespace ecc::overload {

const char* AdmissionPolicyName(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::kRejectNew: return "reject_new";
    case AdmissionPolicy::kDropOldest: return "drop_oldest";
  }
  return "unknown";
}

AdmissionQueue::AdmissionQueue(AdmissionOptions opts) : opts_(opts) {}

AdmissionQueue::Ticket AdmissionQueue::Enter() {
  const std::lock_guard<std::mutex> g(mutex_);
  const std::size_t depth = waiting_.size() + in_service_;
  if (opts_.queue_limit > 0 && depth >= opts_.queue_limit) {
    if (opts_.policy == AdmissionPolicy::kRejectNew || waiting_.empty()) {
      // Under kDropOldest an empty waiting set means the only pending miss
      // is in service — nothing is revocable, so the newcomer sheds after
      // all.
      ++stats_.rejected;
      return kRejected;
    }
    revoked_.insert(waiting_.front());
    waiting_.pop_front();
    ++stats_.dropped;
    slot_cv_.notify_all();  // the revoked waiter must shed now
  }
  const Ticket t = next_++;
  waiting_.push_back(t);
  ++stats_.admitted;
  stats_.peak_depth =
      std::max<std::uint64_t>(stats_.peak_depth, waiting_.size() + in_service_);
  return t;
}

bool AdmissionQueue::StartService(Ticket t) {
  std::unique_lock<std::mutex> lock(mutex_);
  slot_cv_.wait(lock,
                [&] { return in_service_ == 0 || revoked_.count(t) > 0; });
  if (revoked_.erase(t) > 0) return false;
  const auto it = std::find(waiting_.begin(), waiting_.end(), t);
  if (it != waiting_.end()) waiting_.erase(it);
  in_service_ = 1;
  return true;
}

void AdmissionQueue::Exit(Ticket t) {
  (void)t;
  const std::lock_guard<std::mutex> g(mutex_);
  in_service_ = 0;
  slot_cv_.notify_all();
}

void AdmissionQueue::Cancel(Ticket t) {
  const std::lock_guard<std::mutex> g(mutex_);
  if (revoked_.erase(t) > 0) return;
  const auto it = std::find(waiting_.begin(), waiting_.end(), t);
  if (it != waiting_.end()) waiting_.erase(it);
}

std::size_t AdmissionQueue::depth() const {
  const std::lock_guard<std::mutex> g(mutex_);
  return waiting_.size() + in_service_;
}

AdmissionStats AdmissionQueue::stats() const {
  const std::lock_guard<std::mutex> g(mutex_);
  return stats_;
}

}  // namespace ecc::overload
