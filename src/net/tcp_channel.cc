#include "net/tcp_channel.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "net/framing.h"

namespace ecc::net {

namespace {

/// Payload bytes the first response read() takes along with the header:
/// enough for a GET answer carrying a record of a few KiB.
constexpr std::size_t kInlinePayloadBytes = 4096;

Status LostRead(framing::IoResult r, const char* what,
                framing::IoResult* io_fail) {
  *io_fail = r;
  return Status::Unavailable(r == framing::IoResult::kTimeout
                                 ? "read timed out"
                                 : what);
}

/// Read one response frame, usually with a single read(): a pooled
/// connection carries one call at a time, so this response is the only
/// thing in flight on it.  Statuses and `io_fail` are framing::ReadFrame's;
/// bytes past an intact frame are InvalidArgument, so the caller closes the
/// connection instead of pooling a stream it cannot trust.
StatusOr<Message> ReadResponse(int fd, std::size_t max_frame_bytes,
                               framing::IoResult* io_fail) {
  *io_fail = framing::IoResult::kOk;
  char buf[kFrameHeaderBytes + kInlinePayloadBytes];
  ssize_t r = 0;
  do {
    r = ::read(fd, buf, sizeof(buf));
  } while (r < 0 && errno == EINTR);
  if (r == 0) {
    *io_fail = framing::IoResult::kEof;
    return Status::NotFound("connection closed");
  }
  if (r < 0) {
    return LostRead(errno == EAGAIN || errno == EWOULDBLOCK
                        ? framing::IoResult::kTimeout
                        : framing::IoResult::kError,
                    "read failed", io_fail);
  }
  std::size_t got = static_cast<std::size_t>(r);
  if (got < kFrameHeaderBytes) {
    const framing::IoResult h =
        framing::ReadFull(fd, buf + got, kFrameHeaderBytes - got);
    if (h != framing::IoResult::kOk) {
      // Part of the header already arrived, so EOF here is a torn frame.
      return LostRead(h == framing::IoResult::kEof ? framing::IoResult::kError
                                                   : h,
                      "read failed", io_fail);
    }
    got = kFrameHeaderBytes;
  }
  std::uint32_t len = 0;
  if (Status s = ValidateFrameHeader(buf, max_frame_bytes, &len); !s.ok()) {
    return s;
  }
  const std::size_t frame = kFrameHeaderBytes + len;
  if (got > frame) {
    // A length field damaged on the wire fails the frame's checksum, which
    // is retryable loss like any other corruption; an intact frame with
    // bytes after it means the stream is out of step with the calls.
    auto parsed = Message::Deserialize(std::string_view(buf, frame));
    if (!parsed.ok()) return parsed.status();
    return Status::InvalidArgument("bytes past the response frame");
  }
  if (got == frame) return Message::Deserialize(std::string_view(buf, frame));
  std::string wire(frame, '\0');
  std::memcpy(wire.data(), buf, got);
  const framing::IoResult rest =
      framing::ReadFull(fd, wire.data() + got, frame - got);
  if (rest != framing::IoResult::kOk) {
    return LostRead(rest, "truncated frame", io_fail);
  }
  return Message::Deserialize(wire);
}

void SetIoTimeout(int fd, Duration timeout) {
  if (timeout <= Duration::Zero()) return;
  timeval tv{};
  tv.tv_sec = timeout.micros() / 1000000;
  tv.tv_usec = timeout.micros() % 1000000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

TcpChannel::TcpChannel(TcpChannelOptions opts, VirtualClock* clock)
    : opts_(std::move(opts)), clock_(clock) {}

TcpChannel::~TcpChannel() {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  for (int fd : idle_) ::close(fd);
  open_count_ -= idle_.size();
  idle_.clear();
}

void TcpChannel::Wait(Duration d) {
  if (clock_ != nullptr) {
    clock_->Advance(d);
  } else if (d > Duration::Zero()) {
    std::this_thread::sleep_for(std::chrono::microseconds(d.micros()));
  }
}

ChannelStats TcpChannel::stats() const {
  ChannelStats s;
  s.calls = calls_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  s.time_on_wire =
      Duration::Micros(wire_micros_.load(std::memory_order_relaxed));
  return s;
}

std::size_t TcpChannel::idle_connections() const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  return idle_.size();
}

StatusOr<int> TcpChannel::AcquireConnection(bool* reused) {
  *reused = false;
  {
    std::unique_lock<std::mutex> lock(pool_mutex_);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(opts_.pool_wait_timeout.micros());
    while (true) {
      if (!idle_.empty()) {
        const int fd = idle_.back();
        idle_.pop_back();
        *reused = true;
        return fd;
      }
      if (opts_.max_connections == 0 || open_count_ < opts_.max_connections) {
        ++open_count_;  // slot reserved; released on close or dial failure
        break;
      }
      // Every slot is borrowed.  Wait for a release, but only for a
      // bounded interval: with the peer black-holed the borrowers are all
      // waiting out their IO timeouts, and an unbounded wait here would
      // hang every new caller for the duration of the outage.
      if (pool_cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
          idle_.empty() && open_count_ >= opts_.max_connections) {
        pool_exhausted_.fetch_add(1, std::memory_order_relaxed);
        return Status::Unavailable(
            "connection pool exhausted (" +
            std::to_string(opts_.max_connections) + " in flight to " +
            opts_.host + ":" + std::to_string(opts_.port) + ")");
      }
    }
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  const auto release_slot = [this] {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    --open_count_;
    pool_cv_.notify_one();
  };
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    release_slot();
    return Status::InvalidArgument("bad endpoint host: " + opts_.host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    release_slot();
    return Status::Unavailable("socket() failed");
  }
  // SO_SNDTIMEO bounds connect() as well as writes, so a black-holed peer
  // cannot park the dialer past the IO timeout.
  SetIoTimeout(fd, opts_.io_timeout);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    release_slot();
    return Status::Unavailable("connect to " + opts_.host + ":" +
                               std::to_string(opts_.port) + " failed");
  }
  connections_opened_.fetch_add(1, std::memory_order_relaxed);
  return fd;
}

void TcpChannel::ReleaseConnection(int fd) {
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    if (idle_.size() < opts_.max_pool_size) {
      idle_.push_back(fd);
      pool_cv_.notify_one();
      return;
    }
  }
  CloseConnection(fd);
}

void TcpChannel::CloseConnection(int fd) {
  ::close(fd);
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  --open_count_;
  pool_cv_.notify_one();
}

void TcpChannel::FlushIdle() {
  std::vector<int> doomed;
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    doomed.swap(idle_);
    open_count_ -= doomed.size();
    if (!doomed.empty()) pool_cv_.notify_all();
  }
  for (const int fd : doomed) ::close(fd);
}

StatusOr<Message> TcpChannel::Call(const Message& request) {
  const CallFault fault = NextFault(request.type);
  if (fault.kind != CallFaultKind::kNone) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }
  if (fault.kind == CallFaultKind::kDelay) {
    Wait(fault.delay);
    wire_micros_.fetch_add(fault.delay.micros(), std::memory_order_relaxed);
  }
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (fault.kind == CallFaultKind::kDropRequest) {
    // The bytes "left the caller" but never touch the kernel; the loss is
    // only observable through the retry layer's timeout.
    bytes_sent_.fetch_add(request.WireSize(), std::memory_order_relaxed);
    return Status::Unavailable("injected fault: request lost");
  }

  bool reused = false;
  auto fd = AcquireConnection(&reused);
  if (!fd.ok()) return fd.status();

  StatusOr<Message> response = Status::Unavailable("never attempted");
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool write_failed = false;
    framing::IoResult io_fail = framing::IoResult::kOk;
    response = RoundTrip(*fd, request, &write_failed, &io_fail);
    if (response.ok()) {
      ReleaseConnection(*fd);
      break;
    }

    // A connection that saw loss or a frame error is never reused: the
    // stream may be mid-frame and would corrupt the next caller.
    CloseConnection(*fd);
    if (response.status().code() == StatusCode::kInvalidArgument) {
      return response.status();  // malformed response: an answer, not loss
    }

    // Stale pooled connection: the peer restarted (or a healed partition
    // reset the link) after this fd was pooled, so its first use dies with
    // EPIPE/ECONNRESET/EOF.  The endpoint itself may be perfectly healthy
    // — redial once and resend rather than surfacing Unavailable.  Only an
    // immediate peer-gone failure qualifies: a *timeout* means the peer
    // holds the request, and resending is the retry layer's call, not
    // ours.  The whole idle pool predates the same restart, so flush it.
    const bool peer_gone = io_fail == framing::IoResult::kEof ||
                           io_fail == framing::IoResult::kError;
    const bool stale = reused && attempt == 0 && peer_gone;
    if (!stale) {
      if (write_failed) return response.status();
      return Status::Unavailable("read failed: " +
                                 response.status().ToString());
    }
    FlushIdle();
    stale_reconnects_.fetch_add(1, std::memory_order_relaxed);
    Wait(opts_.stale_reconnect_backoff);
    fd = AcquireConnection(&reused);
    if (!fd.ok()) return fd.status();
  }
  if (!response.ok()) {
    return Status::Unavailable("read failed: " + response.status().ToString());
  }

  bytes_received_.fetch_add(response->WireSize(), std::memory_order_relaxed);
  if (fault.kind == CallFaultKind::kDropResponse) {
    // The server executed — its state changed — but the answer is gone.
    return Status::Unavailable("injected fault: response lost");
  }
  if (response->type == MsgType::kError) {
    return DecodeErrorFrame(*response);
  }
  return response;
}

StatusOr<Message> TcpChannel::RoundTrip(int fd, const Message& request,
                                        bool* write_failed,
                                        framing::IoResult* io_fail) {
  const auto wire_start = std::chrono::steady_clock::now();
  std::uint64_t sent = 0;
  const auto wrote = framing::WriteFrame(fd, request, &sent);
  bytes_sent_.fetch_add(sent, std::memory_order_relaxed);
  if (wrote != framing::IoResult::kOk) {
    // `io_fail` carries the write outcome: only a hard error
    // (EPIPE/ECONNRESET — the peer is *gone*) marks the connection stale;
    // a send timeout means the peer is merely black-holed and a redial
    // would stall just the same.
    *write_failed = true;
    *io_fail = wrote;
    return Status::Unavailable("write failed");
  }
  auto response = ReadResponse(fd, opts_.max_frame_bytes, io_fail);
  const auto wire_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - wire_start)
                           .count();
  wire_micros_.fetch_add(wire_us, std::memory_order_relaxed);
  return response;
}

}  // namespace ecc::net
