#include "durability/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "common/crc32c.h"
#include "net/wire.h"

namespace ecc::durability {

namespace {

/// "ECS2" on disk: CRC32C snapshots.
constexpr std::uint32_t kSnapshotMagic = 0x32534345;
/// The retired FNV-1a format's magic.
constexpr std::uint32_t kRetiredSnapshotMagic = 0x45435353;
constexpr std::size_t kSnapshotHeaderBytes = 4 + 4 + 4;

Status SysError(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status WriteAll(int fd, const char* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, buf + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return SysError("snapshot write");
    }
    done += static_cast<std::size_t>(w);
  }
  return Status::Ok();
}

/// fsync the directory so the rename itself survives power loss.
Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return SysError("snapshot opendir " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return SysError("snapshot fsync dir " + dir);
  return Status::Ok();
}

}  // namespace

Status WriteSnapshotFile(const std::string& dir, const std::string& payload) {
  const std::string tmp = dir + "/snapshot.tmp";
  const std::string live = dir + "/" + kSnapshotFileName;

  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return SysError("snapshot open " + tmp);

  net::WireWriter w;
  w.PutU32(kSnapshotMagic);
  w.PutU32(static_cast<std::uint32_t>(payload.size()));
  w.PutU32(common::Crc32c(payload));
  const std::string header = w.TakeBuffer();

  Status s = WriteAll(fd, header.data(), header.size());
  if (s.ok()) s = WriteAll(fd, payload.data(), payload.size());
  if (s.ok() && ::fsync(fd) != 0) s = SysError("snapshot fsync " + tmp);
  ::close(fd);
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), live.c_str()) != 0) {
    const Status rs = SysError("snapshot rename " + tmp);
    ::unlink(tmp.c_str());
    return rs;
  }
  return SyncDir(dir);
}

StatusOr<std::string> LoadSnapshotFile(const std::string& dir) {
  const std::string live = dir + "/" + kSnapshotFileName;
  const int fd = ::open(live.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no snapshot in " + dir);
    return SysError("snapshot open " + live);
  }
  std::string data;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return SysError("snapshot read " + live);
    }
    if (r == 0) break;
    data.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);

  net::WireReader r(data);
  std::uint32_t magic = 0;
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  if (Status s = r.GetU32(magic); !s.ok()) return s;
  if (magic == kRetiredSnapshotMagic) {
    return Status::FailedPrecondition("snapshot in the retired FNV-1a format: " +
                                      live);
  }
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a snapshot file: " + live);
  }
  if (Status s = r.GetU32(len); !s.ok()) return s;
  if (Status s = r.GetU32(crc); !s.ok()) return s;
  if (data.size() != kSnapshotHeaderBytes + len) {
    return Status::InvalidArgument("snapshot length mismatch: " + live);
  }
  std::string payload = data.substr(kSnapshotHeaderBytes);
  if (common::Crc32c(payload) != crc) {
    return Status::InvalidArgument("snapshot checksum mismatch: " + live);
  }
  return payload;
}

}  // namespace ecc::durability
