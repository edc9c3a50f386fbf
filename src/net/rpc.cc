#include "net/rpc.h"

#include <algorithm>

namespace ecc::net {

void RpcServer::Handle(MsgType type, Handler handler) {
  handlers_[type] = std::move(handler);
}

StatusOr<Message> RpcServer::Dispatch(const Message& request) const {
  const auto it = handlers_.find(request.type);
  if (it == handlers_.end()) {
    return Status::Unavailable(std::string("no handler for ") +
                               MsgTypeName(request.type));
  }
  return it->second(request);
}

LoopbackChannel::LoopbackChannel(RpcServer* server, NetworkModel model,
                                 VirtualClock* clock)
    : server_(server), model_(model), clock_(clock) {}

ChannelStats LoopbackChannel::stats() const {
  ChannelStats s;
  s.calls = calls_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  s.time_on_wire =
      Duration::Micros(wire_micros_.load(std::memory_order_relaxed));
  return s;
}

StatusOr<Message> LoopbackChannel::Call(const Message& request) {
  const CallFault fault = NextFault(request.type);
  if (fault.kind != CallFaultKind::kNone) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }

  // "Transmit" the request: charge the bytes its frame would occupy.
  const std::size_t request_bytes = request.WireSize();
  const Duration request_time = model_.TransferTime(request_bytes);
  if (clock_ != nullptr) clock_->Advance(request_time);
  bytes_sent_.fetch_add(request_bytes, std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  wire_micros_.fetch_add(request_time.micros(), std::memory_order_relaxed);

  if (fault.kind == CallFaultKind::kDelay) {
    if (clock_ != nullptr) clock_->Advance(fault.delay);
    wire_micros_.fetch_add(fault.delay.micros(), std::memory_order_relaxed);
  }
  if (fault.kind == CallFaultKind::kDropRequest) {
    // The bytes left the sender but never arrived; the caller learns of the
    // loss only through its timeout (charged by the retry layer).
    return Status::Unavailable("injected fault: request lost");
  }

  // The server takes the request as it was handed over; the tag check is
  // the one a frame parser would make.
  if (!IsKnownMsgType(static_cast<std::uint8_t>(request.type))) {
    return Status::InvalidArgument("unknown message type tag");
  }
  auto response = server_->Dispatch(request);
  if (!response.ok()) return response.status();

  if (fault.kind == CallFaultKind::kDropResponse) {
    // The handler ran — server-side state changed — but the answer is gone.
    return Status::Unavailable("injected fault: response lost");
  }

  // "Transmit" the response back.
  const std::size_t response_bytes = response->WireSize();
  const Duration response_time = model_.TransferTime(response_bytes);
  if (clock_ != nullptr) clock_->Advance(response_time);
  bytes_received_.fetch_add(response_bytes, std::memory_order_relaxed);
  wire_micros_.fetch_add(response_time.micros(), std::memory_order_relaxed);
  return response;  // moved out, never copied
}

StatusOr<Message> CallWithRetry(Channel& channel, const Message& request,
                                const RetryPolicy& policy,
                                RetryStats* stats, obs::TraceLog* trace,
                                Deadline deadline) {
  const std::size_t attempts = std::max<std::size_t>(1, policy.max_attempts);
  const auto now = [&channel] {
    return channel.clock() != nullptr ? channel.clock()->now()
                                      : TimePoint::Epoch();
  };
  Duration backoff = policy.initial_backoff;
  Status last = Status::Unavailable("no attempt made");
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (deadline.Expired()) {
      // No attempt is allowed to *start* past the deadline; the overshoot
      // is whatever the in-flight attempt (timeout included) already burned.
      if (stats != nullptr) ++stats->deadline_clipped;
      obs::Emit(trace,
                obs::DeadlineExceededEvent(
                    now(), obs::kNoKey,
                    deadline.clock->now() - deadline.at));
      return Status::DeadlineExceeded("retry budget clipped by deadline");
    }
    if (stats != nullptr) {
      ++stats->attempts;
      if (attempt > 0) ++stats->retries;
    }
    if (attempt > 0) {
      obs::Emit(trace,
                obs::RpcRetryEvent(now(), channel.endpoint(), attempt));
    }
    auto response = channel.Call(request);
    if (response.ok()) return response;
    if (response.status().code() != StatusCode::kUnavailable) {
      // A definitive answer (malformed frame, handler rejection) — the
      // transport worked; retrying cannot change it.
      return response.status();
    }
    last = response.status();
    // The attempt is only known dead after the detection timeout elapses
    // (clamped to the deadline budget — there is no point waiting out a
    // timeout the caller will not honor).
    const Duration timeout =
        std::min(policy.attempt_timeout, deadline.Remaining());
    channel.Wait(timeout);
    if (stats != nullptr) stats->time_waiting += timeout;
    if (attempt + 1 < attempts) {
      const Duration wait = std::min(backoff, deadline.Remaining());
      channel.Wait(wait);
      if (stats != nullptr) {
        stats->time_waiting += wait;
        stats->time_backing_off += wait;
      }
      backoff = std::min(policy.max_backoff,
                         backoff * policy.backoff_multiplier);
    }
  }
  if (stats != nullptr) ++stats->exhausted;
  obs::Emit(trace, obs::RpcFailureEvent(now(), channel.endpoint(), attempts));
  return last;
}

}  // namespace ecc::net
