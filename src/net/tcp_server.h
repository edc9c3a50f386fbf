// Epoll-based non-blocking TCP server for the cache wire protocol.
//
// One TcpServer binds a listening socket and serves length-framed Messages
// (the exact Message::Serialize layout) to any number of concurrent
// connections, dispatching each complete request frame through an
// RpcServer and writing the framed response back.  Dispatch failures
// travel as kError frames, exactly like the loopback and socketpair
// transports, so CallWithRetry semantics are identical across wires.
//
// Event-loop architecture (beng-proxy's src/event idiom, scaled down):
//   * a dedicated accept loop owns the listening socket behind its own
//     epoll, accepts non-blocking, and hands each new connection to an IO
//     loop round-robin through an eventfd-signaled inbox;
//   * `io_threads` IO loops each run epoll_wait over their connections
//     with level-triggered read/write readiness: reads accumulate into a
//     per-connection buffer until at least one complete frame is present
//     (a short read ends the pass; later bytes wake the loop again),
//     writes drain a pending-output buffer and arm EPOLLOUT only while
//     output remains (re-armed only when that changes).
//
// Frame hardening: headers are validated (known tag, bounded length)
// before any payload allocation; a connection that sends a malformed
// header is counted in frame_errors and closed — the rest of the fleet is
// unaffected.
//
// Dispatch synchronization: handlers registered on an RpcServer are not
// required to be thread-safe (a CacheNode mutates its shard), so the
// server serializes Dispatch calls behind one mutex even with several IO
// loops.  IO, framing, and syscalls still run concurrently; only the
// handler body is serialized.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/message.h"
#include "net/rpc.h"

namespace ecc::net {

struct TcpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = let the kernel pick an ephemeral port; read it back via port().
  std::uint16_t port = 0;
  /// Event loops servicing established connections (>= 1).
  std::size_t io_threads = 1;
  int listen_backlog = 128;
  /// Frames above this are protocol violations; the connection is closed.
  std::size_t max_frame_bytes = 64u << 20;
};

/// Point-in-time counters (relaxed atomics; safe to poll while serving).
struct TcpServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_served = 0;
  std::uint64_t frame_errors = 0;
  /// Transient accept failures survived (EMFILE/ENFILE/ECONNABORTED…): the
  /// server logged, backed off, and kept serving instead of dying.
  std::uint64_t accept_soft_errors = 0;
};

class TcpServer {
 public:
  /// `dispatch` is not owned and must outlive the server.
  explicit TcpServer(RpcServer* dispatch, TcpServerOptions opts = {});

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Stops and joins if still running.
  ~TcpServer();

  /// Bind, listen, and launch the accept + IO loops.  InvalidArgument on a
  /// bad bind address, Unavailable when the port cannot be bound.
  [[nodiscard]] Status Start();

  /// Idempotent clean shutdown: stop accepting, wake every loop, join the
  /// threads, close every connection.
  void Stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// The bound port (resolves an ephemeral request); 0 before Start.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] TcpServerStats stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::string in;        ///< bytes read, not yet framed
    std::string out;       ///< response bytes not yet written
    std::size_t out_off = 0;
    bool want_out = false;  ///< EPOLLOUT is armed (output is pending)
  };

  /// One IO loop: an epoll set, an eventfd to interrupt epoll_wait, and an
  /// inbox of freshly accepted descriptors awaiting registration.
  struct IoLoop {
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;
    std::mutex inbox_mutex;
    std::vector<int> inbox;
    std::unordered_map<int, Connection> conns;
  };

  void AcceptLoop();
  void RunIoLoop(IoLoop& loop);
  /// Drain readable bytes, dispatch complete frames, queue responses.
  /// False when the connection must close (EOF, error, malformed frame).
  bool HandleReadable(IoLoop& loop, Connection& conn);
  /// Flush pending output; arms/disarms EPOLLOUT.  False on a dead peer.
  bool FlushWrites(IoLoop& loop, Connection& conn);
  void CloseConnection(IoLoop& loop, int fd);

  RpcServer* dispatch_;
  TcpServerOptions opts_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int accept_epoll_fd_ = -1;
  int accept_wake_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::size_t next_loop_ = 0;
  std::atomic<bool> running_{false};
  /// Handlers are not thread-safe by contract; see header comment.
  std::mutex dispatch_mutex_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> frames_served_{0};
  std::atomic<std::uint64_t> frame_errors_{0};
  std::atomic<std::uint64_t> accept_soft_errors_{0};
};

}  // namespace ecc::net
