#include "durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32c.h"
#include "common/log.h"
#include "net/wire.h"

namespace ecc::durability {

namespace {

/// File header: u32 magic + u32 format version, written at creation.
constexpr std::uint32_t kWalMagic = 0x4C574345;  // "ECWL" on disk
/// 1 was the headerless FNV-1a log; 2 checksums records with CRC32C.
constexpr std::uint32_t kWalVersion = 2;
constexpr std::size_t kFileHeaderBytes = 4 + 4;

/// Record header: u32 body length + u32 CRC32C of the body.
constexpr std::size_t kRecordHeaderBytes = 4 + 4;

/// Lengths above this are corruption, not data (a shard record is bounded
/// by node capacity, far below this).
constexpr std::uint32_t kMaxRecordBodyBytes = 64u << 20;

std::string EncodeBody(const WalRecord& r) {
  net::WireWriter w;
  w.PutU8(static_cast<std::uint8_t>(r.op));
  w.PutU64(r.key);
  switch (r.op) {
    case WalRecord::Op::kPut:
      w.PutBytes(r.value);
      break;
    case WalRecord::Op::kErase:
      break;
    case WalRecord::Op::kEraseRange:
      w.PutU64(r.hi);
      break;
  }
  return w.TakeBuffer();
}

Status DecodeBody(std::string_view body, WalRecord* out) {
  net::WireReader r(body);
  std::uint8_t op = 0;
  if (Status s = r.GetU8(op); !s.ok()) return s;
  if (op < static_cast<std::uint8_t>(WalRecord::Op::kPut) ||
      op > static_cast<std::uint8_t>(WalRecord::Op::kEraseRange)) {
    return Status::InvalidArgument("unknown wal op");
  }
  out->op = static_cast<WalRecord::Op>(op);
  if (Status s = r.GetU64(out->key); !s.ok()) return s;
  switch (out->op) {
    case WalRecord::Op::kPut:
      if (Status s = r.GetBytes(out->value); !s.ok()) return s;
      break;
    case WalRecord::Op::kErase:
      break;
    case WalRecord::Op::kEraseRange:
      if (Status s = r.GetU64(out->hi); !s.ok()) return s;
      break;
  }
  if (!r.exhausted()) return Status::InvalidArgument("trailing record bytes");
  return Status::Ok();
}

Status SysError(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status WriteAll(int fd, const char* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, buf + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return SysError("wal write");
    }
    done += static_cast<std::size_t>(w);
  }
  return Status::Ok();
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string path) : path_(std::move(path)) {}

WriteAheadLog::~WriteAheadLog() { Close(); }

Status WriteAheadLog::Open() {
  if (fd_ >= 0) return Status::Ok();
  const int fd =
      ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return SysError("wal open " + path_);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status s = SysError("wal stat " + path_);
    ::close(fd);
    return s;
  }
  // An empty file is a new log (or one whose creation was cut short): its
  // header goes out with the first record, in the same write.  A file
  // with content must be a log in this format; never append to another.
  header_pending_ = st.st_size == 0;
  if (!header_pending_) {
    const std::string header = FileHeader();
    char got[kFileHeaderBytes] = {};
    if (::pread(fd, got, sizeof(got), 0) != static_cast<ssize_t>(sizeof(got)) ||
        std::memcmp(got, header.data(), sizeof(got)) != 0) {
      ::close(fd);
      return Status::InvalidArgument("wal " + path_ + ": unknown format");
    }
  }
  fd_ = fd;
  return Status::Ok();
}

void WriteAheadLog::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string WriteAheadLog::FileHeader() {
  net::WireWriter w;
  w.PutU32(kWalMagic);
  w.PutU32(kWalVersion);
  return w.TakeBuffer();
}

std::string WriteAheadLog::EncodeRecord(const WalRecord& r) {
  const std::string body = EncodeBody(r);
  net::WireWriter w;
  w.PutU32(static_cast<std::uint32_t>(body.size()));
  w.PutU32(common::Crc32c(body));
  std::string out = w.TakeBuffer();
  out += body;
  return out;
}

Status WriteAheadLog::Append(const WalRecord& r) {
  if (fd_ < 0) return Status::FailedPrecondition("wal not open");
  std::string frame = header_pending_ ? FileHeader() : std::string();
  frame += EncodeRecord(r);
  if (Status s = WriteAll(fd_, frame.data(), frame.size()); !s.ok()) {
    return s;
  }
  header_pending_ = false;
  ++appended_;
  ++unsynced_;
  bytes_appended_ += frame.size();
  return Status::Ok();
}

Status WriteAheadLog::Sync() {
  if (fd_ < 0 || unsynced_ == 0) return Status::Ok();
  if (::fdatasync(fd_) != 0) {
    return Status::Internal(std::string("wal fdatasync: ") +
                            std::strerror(errno));
  }
  unsynced_ = 0;
  return Status::Ok();
}

Status WriteAheadLog::Reset() {
  if (fd_ < 0) return Status::FailedPrecondition("wal not open");
  // Keep the file header (if written): the log stays a valid, empty log.
  const off_t keep = header_pending_ ? 0 : static_cast<off_t>(kFileHeaderBytes);
  if (::ftruncate(fd_, keep) != 0) {
    return SysError("wal truncate");
  }
  unsynced_ = 0;
  return Status::Ok();
}

StatusOr<WalReplayStats> WriteAheadLog::Replay(
    const std::string& path,
    const std::function<Status(const WalRecord&)>& apply,
    bool truncate_torn_tail) {
  WalReplayStats stats;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return stats;  // no log yet: empty, not an error
    return Status::Internal("wal open " + path + ": " +
                            std::strerror(errno));
  }
  std::string data;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal(std::string("wal read: ") +
                              std::strerror(errno));
    }
    if (r == 0) break;
    data.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);

  // The file header.  A log in another format (the headerless FNV-1a log,
  // or a foreign file) is refused and left as it is: cutting it as a torn
  // tail would destroy every record in it.  An empty file is a log with no
  // record yet; a prefix of our own header is a first write cut short, and
  // its bytes are dropped like any torn tail.
  const std::string header = FileHeader();
  std::size_t off = 0;
  const bool own_format =
      data.size() >= kFileHeaderBytes
          ? data.compare(0, kFileHeaderBytes, header) == 0
          : header.compare(0, data.size(), data) == 0;
  if (!own_format) {
    return Status::InvalidArgument("wal " + path +
                                   ": unknown format (no ECWL v2 header)");
  }
  if (data.size() >= kFileHeaderBytes) off = kFileHeaderBytes;

  // Walk frames; the first bad one (short header, implausible length, bad
  // checksum, undecodable body) ends the valid prefix.
  while (off + kRecordHeaderBytes <= data.size()) {
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::memcpy(&len, data.data() + off, sizeof(len));
    std::memcpy(&crc, data.data() + off + 4, sizeof(crc));
    if (len > kMaxRecordBodyBytes ||
        off + kRecordHeaderBytes + len > data.size()) {
      break;  // torn tail (or garbage length)
    }
    const std::string_view body(data.data() + off + kRecordHeaderBytes, len);
    if (common::Crc32c(body) != crc) break;  // bit damage
    WalRecord rec;
    if (!DecodeBody(body, &rec).ok()) break;
    if (Status s = apply(rec); !s.ok()) return s;
    off += kRecordHeaderBytes + len;
    ++stats.records;
  }
  stats.bytes_kept = off;
  stats.bytes_truncated = data.size() - off;
  stats.torn = stats.bytes_truncated > 0;
  if (stats.torn && truncate_torn_tail) {
    if (::truncate(path.c_str(), static_cast<off_t>(off)) != 0) {
      return Status::Internal(std::string("wal tail truncate: ") +
                              std::strerror(errno));
    }
    ECC_LOG_WARN("wal: %s: dropped torn tail (%llu bytes after %llu records)",
                 path.c_str(),
                 static_cast<unsigned long long>(stats.bytes_truncated),
                 static_cast<unsigned long long>(stats.records));
  }
  return stats;
}

}  // namespace ecc::durability
