// In-process RPC with simulated transfer cost.
//
// An RpcServer dispatches framed Messages to per-type handlers.  A
// LoopbackChannel is the simulator's net::Channel (see channel.h): each
// Call hands the request Message itself to the server — no serialization,
// no checksum — and charges the network model for request and response
// transfer on the shared virtual clock from each message's WireSize(),
// exactly the bytes Serialize() would produce.  Virtual time and
// ChannelStats are therefore what a byte-stream transport would report;
// only the codec's wall-clock cost is gone.  Codec and checksum coverage
// lives in net_test/net_fuzz_test and in the socketpair and TCP
// transports, which always serialize.
//
// Fault injection: a channel may carry a CallInterceptor (see src/fault/),
// which gets to see every Call and can drop the request before dispatch,
// drop the response after dispatch (the server-side effect HAPPENED — the
// nastiest partial failure), or add wire delay.  Lost messages surface as
// Status::Unavailable, which callers treat as retryable.
//
// Retry: CallWithRetry wraps any Channel's Call with a per-attempt
// detection timeout and bounded exponential backoff, both burned through
// Channel::Wait (virtual-clock charge on simulated transports, a real
// sleep on wall-clock ones).  Retrying after a dropped *response* re-sends
// a request the server already executed, so every mutating handler must be
// idempotent (PUT/MIGRATE treat duplicates as accepted; ERASE of an absent
// key is a no-op).
//
// Thread-safety: a LoopbackChannel takes concurrent callers — its stats
// are relaxed atomics, as on the real transports — but the server's
// handlers touch whatever state they are bound to (a CacheNode's shard)
// without locks.  GET is read-only apart from atomic counters
// (RpcServer::Dispatch and the B+-Tree Find are const), so any number of
// reads of one node may run together; a mutating call (PUT, MIGRATE,
// ERASE, ...) needs the node to itself.  The striped backend enforces this
// with one reader/writer stripe per cache node (striped_backend.h).  The
// clock pointer is safe to share (the VirtualClock is atomic); an
// interceptor must be internally synchronized (FaultInjector is).  Real
// transports (socket_channel.h, tcp_channel.h) are internally synchronized
// and take concurrent callers directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "common/status.h"
#include "common/time.h"
#include "net/channel.h"
#include "net/message.h"
#include "net/netmodel.h"
#include "obs/trace.h"

namespace ecc::net {

class RpcServer {
 public:
  using Handler = std::function<StatusOr<Message>(const Message&)>;

  /// Register the handler for one request type; overwrites any previous.
  void Handle(MsgType type, Handler handler);

  /// Dispatch a raw request.  Unknown types yield Unavailable.
  [[nodiscard]] StatusOr<Message> Dispatch(const Message& request) const;

 private:
  std::map<MsgType, Handler> handlers_;
};

class LoopbackChannel final : public Channel {
 public:
  /// The channel charges transfer time to `clock` (not owned); pass nullptr
  /// to skip time accounting (pure unit tests, background migrations).
  LoopbackChannel(RpcServer* server, NetworkModel model,
                  VirtualClock* clock);

  /// Full round trip: charge request transfer, dispatch `request` as is,
  /// charge response transfer, move the response out.  Unavailable if an
  /// interceptor drops either direction; InvalidArgument for a message tag
  /// the protocol does not define, as a frame parser would answer.
  [[nodiscard]] StatusOr<Message> Call(const Message& request) override;

  [[nodiscard]] ChannelStats stats() const override;
  [[nodiscard]] const NetworkModel& model() const { return model_; }
  [[nodiscard]] VirtualClock* clock() const override { return clock_; }

 private:
  RpcServer* server_;
  NetworkModel model_;
  VirtualClock* clock_;
  // Relaxed atomics, as on the real transports: concurrent readers of one
  // node share this channel.
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
  std::atomic<std::int64_t> wire_micros_{0};
};

/// Timeout + bounded-exponential-backoff policy for CallWithRetry.
struct RetryPolicy {
  /// Total tries, including the first (>= 1).
  std::size_t max_attempts = 4;
  /// Time a lost message costs before the caller gives up on the attempt
  /// (detection timeout, burned per failed attempt via Channel::Wait).
  Duration attempt_timeout = Duration::Millis(50);
  /// First backoff; doubles (times `backoff_multiplier`) per retry, capped
  /// at `max_backoff`.
  Duration initial_backoff = Duration::Millis(5);
  double backoff_multiplier = 2.0;
  Duration max_backoff = Duration::Millis(200);
};

struct RetryStats {
  std::uint64_t attempts = 0;   ///< calls issued (first try included)
  std::uint64_t retries = 0;    ///< attempts beyond the first
  std::uint64_t exhausted = 0;  ///< calls that failed every attempt
  /// Calls abandoned because the caller's deadline expired before the next
  /// attempt could start.
  std::uint64_t deadline_clipped = 0;
  Duration time_waiting;      ///< timeout + backoff burned waiting
  /// Backoff-only portion of time_waiting (detection timeouts excluded).
  /// Deadline accounting needs the split: backoff is time the caller chose
  /// to burn, timeouts are time the network forced on it.
  Duration time_backing_off;
};

/// Issue `request` through `channel` — any transport — retrying transient
/// (Unavailable) failures per `policy`.  Timeouts and backoff are burned
/// through the channel's Wait (virtual-clock charge or real sleep);
/// `stats`, when given, accumulates across calls.  Handler-level errors
/// other than Unavailable are returned immediately (they are answers, not
/// transport loss).  After the retry budget the last Unavailable status
/// surfaces to the caller.  A non-null `trace` receives one kRpcRetry
/// event per attempt beyond the first and a kRpcFailure when the budget is
/// exhausted, stamped from the channel's clock (epoch when the channel
/// carries none) and labeled with the channel's endpoint.
///
/// An active `deadline` (see common/time.h) clips the retry budget: no
/// attempt starts once the deadline has expired on *its own* clock (the
/// call returns DeadlineExceeded and emits a kDeadlineExceeded trace
/// event), and timeout/backoff waits are clamped to the remaining budget
/// so a retry loop can overshoot the deadline by at most the one attempt
/// already in flight.
[[nodiscard]] StatusOr<Message> CallWithRetry(Channel& channel,
                                              const Message& request,
                                              const RetryPolicy& policy,
                                              RetryStats* stats = nullptr,
                                              obs::TraceLog* trace = nullptr,
                                              Deadline deadline = {});

}  // namespace ecc::net
