// TCP client channel: the deployable net::Channel.
//
// A TcpChannel speaks the length-framed Message protocol to one host:port
// endpoint (a TcpServer, or any process serving the same frames) over a
// pool of real kernel connections.  Call() borrows an idle connection —
// opening one when the pool is dry — writes the framed request, blocks for
// the framed response under a wall-clock IO timeout, and returns the
// connection to the pool.  A response of up to 4 KiB of payload is read
// with one read(); anything after the frame closes the connection.  Concurrent callers each borrow their own
// connection, so calls genuinely overlap on the wire (beng-proxy's `stock`
// idiom: a keyed stock of reusable connections, borrowed per request).
//
// Failure semantics match the simulated transport: a dead peer, refused
// connect, IO timeout, or injected drop surfaces as Status::Unavailable
// (retryable); handler rejections arrive as kError frames carrying the
// remote status code + message and are reconstructed verbatim (so a
// non-retryable InvalidArgument stays non-retryable across the wire);
// malformed responses are InvalidArgument.  A connection that saw any
// error is closed, never pooled again.
//
// Two pool pathologies are handled explicitly.  (1) Staleness: a pooled
// connection can outlive its peer — the server restarts, or a healed
// partition RSTs the link — so its next borrow dies instantly with
// EPIPE/ECONNRESET/EOF even though the endpoint is healthy again.  Call()
// detects the peer-gone first use of a reused connection, flushes the idle
// pool (every pooled fd predates the same restart), redials once after a
// short backoff, and resends — safe because the protocol is idempotent and
// the retry layer would resend on Unavailable anyway.  (2) Exhaustion:
// open connections are capped at max_connections; when every slot is
// borrowed (each borrower waiting out its IO timeout against a black-holed
// peer) a new caller waits at most pool_wait_timeout for a slot and then
// fails with Unavailable instead of blocking unboundedly.
//
// Fault injection: BindInterceptor works as on every channel — request
// drops never touch the kernel, response drops complete the round trip
// server-side and discard the answer, delays wait out `delay` first.  This
// is what lets the crash/retry suites run against real sockets.
//
// Time: pass a VirtualClock to charge retry pacing (and injected delays)
// to virtual time — the transport-parametrized tests do this so loopback
// and TCP share exact accounting.  Without a clock the channel is
// wall-clock: Wait() really sleeps, as a deployed fleet needs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "net/channel.h"
#include "net/framing.h"
#include "net/message.h"

namespace ecc::net {

struct TcpChannelOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Idle connections kept for reuse; extras close on release.
  std::size_t max_pool_size = 4;
  /// Wall-clock cap on each connect/read/write (SO_RCVTIMEO/SO_SNDTIMEO).
  Duration io_timeout = Duration::Seconds(5);
  std::size_t max_frame_bytes = 64u << 20;
  /// Hard cap on connections open at once (idle + borrowed); 0 = unlimited.
  /// When every slot is borrowed — e.g. the peer is black-holed and each
  /// borrower is waiting out its IO timeout — new callers wait at most
  /// `pool_wait_timeout` for a slot, then fail with Unavailable.  Without
  /// the cap a partition turns into one new socket per caller; without the
  /// wait bound it turns into callers parked forever on a mutex.
  std::size_t max_connections = 32;
  Duration pool_wait_timeout = Duration::Millis(250);
  /// Pause before redialing when a pooled connection proves stale (the
  /// peer restarted or a partition reset it under us).
  Duration stale_reconnect_backoff = Duration::Millis(2);
};

class TcpChannel final : public Channel {
 public:
  /// Connections open lazily on first Call.  `clock` (not owned, may be
  /// nullptr) switches Wait/delay charging to virtual time.
  explicit TcpChannel(TcpChannelOptions opts, VirtualClock* clock = nullptr);

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  /// Closes pooled connections.  Callers must have finished their Calls.
  ~TcpChannel() override;

  /// Full round trip over a pooled connection.  Thread-safe.
  [[nodiscard]] StatusOr<Message> Call(const Message& request) override;

  [[nodiscard]] VirtualClock* clock() const override { return clock_; }

  /// Virtual-clock charge when a clock is attached, real sleep otherwise.
  void Wait(Duration d) override;

  [[nodiscard]] ChannelStats stats() const override;

  // --- Introspection (tests, fleet telemetry) ----------------------------

  [[nodiscard]] std::size_t idle_connections() const;
  [[nodiscard]] std::uint64_t connections_opened() const {
    return connections_opened_.load(std::memory_order_relaxed);
  }
  /// Calls that detected a dead pooled connection and transparently
  /// redialed + resent instead of surfacing Unavailable.
  [[nodiscard]] std::uint64_t stale_reconnects() const {
    return stale_reconnects_.load(std::memory_order_relaxed);
  }
  /// Acquisitions that gave up after `pool_wait_timeout` at the cap.
  [[nodiscard]] std::uint64_t pool_exhausted_failures() const {
    return pool_exhausted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const TcpChannelOptions& options() const { return opts_; }

 private:
  /// Pop an idle pooled connection (sets *reused) or dial a new one,
  /// waiting up to pool_wait_timeout for a slot under max_connections.
  [[nodiscard]] StatusOr<int> AcquireConnection(bool* reused);
  /// Return a healthy connection to the pool (closes it when full).
  void ReleaseConnection(int fd);
  /// Close a connection and free its slot for waiting acquirers.
  void CloseConnection(int fd);
  /// Close every idle connection (they share the dead peer's epoch).
  void FlushIdle();
  /// One write+read round trip on `fd`; `io_fail` reports the raw IO
  /// outcome of a failed response read.
  [[nodiscard]] StatusOr<Message> RoundTrip(int fd, const Message& request,
                                            bool* write_failed,
                                            framing::IoResult* io_fail);

  TcpChannelOptions opts_;
  VirtualClock* clock_ = nullptr;

  mutable std::mutex pool_mutex_;
  std::condition_variable pool_cv_;
  std::vector<int> idle_;
  std::size_t open_count_ = 0;  ///< idle + borrowed + being dialed

  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
  std::atomic<std::int64_t> wire_micros_{0};
  std::atomic<std::uint64_t> connections_opened_{0};
  std::atomic<std::uint64_t> stale_reconnects_{0};
  std::atomic<std::uint64_t> pool_exhausted_{0};
};

}  // namespace ecc::net
