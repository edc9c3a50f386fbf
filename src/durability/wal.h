// Append-only write-ahead log for one cache shard.
//
// On disk: an 8-byte file header (u32 magic "ECWL" + u32 format version,
// currently 2), written with the log's first record, then records.  Record
// framing follows the wire idiom from src/net (framing.h/message.h): each
// record is `u32 length | u32 CRC32C | body`, little-endian, with the
// checksum (common/crc32c.h) taken over the body bytes.  The body is a
// WireWriter encoding of one shard mutation (put / erase / erase-range).
// A log without the header — the version-1 headerless FNV-1a format, or
// any foreign file — is refused with InvalidArgument by both Open() and
// Replay(), and left exactly as it is.
//
// Durability contract:
//   * Append() issues the full write(2) before returning, so once a PUT
//     response leaves the node the record is in the kernel — a SIGKILL
//     cannot lose an acknowledged write.
//   * Sync() batches fdatasync(2) for power-loss durability; callers run
//     it at quiesced slice boundaries (core::MaintenanceTask), not per
//     append.
//   * Replay() is torn-tail tolerant: a record with a short header, an
//     implausible length, a checksum mismatch, or an undecodable body ends
//     the replay at the last valid record — a partial record is never
//     served — and (by default) the file is truncated there so the next
//     append starts from a clean tail.  A file header cut short at
//     creation counts as a torn tail of an empty log.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"

namespace ecc::durability {

/// One logged shard mutation.
struct WalRecord {
  enum class Op : std::uint8_t {
    kPut = 1,
    kErase = 2,
    kEraseRange = 3,
  };

  Op op = Op::kPut;
  std::uint64_t key = 0;  ///< kEraseRange: range lo
  std::uint64_t hi = 0;   ///< kEraseRange only (inclusive)
  std::string value;      ///< kPut only
};

/// Outcome of one Replay() pass.
struct WalReplayStats {
  std::uint64_t records = 0;          ///< records decoded and applied
  std::uint64_t bytes_kept = 0;       ///< file prefix covered by them
                                      ///< (file header included)
  std::uint64_t bytes_truncated = 0;  ///< torn/corrupt tail discarded
  bool torn = false;                  ///< replay ended at a bad record
};

class WriteAheadLog {
 public:
  explicit WriteAheadLog(std::string path);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Open (creating if absent) for appends; the first Append() of an
  /// empty file writes the file header with its record.  InvalidArgument
  /// when the existing file is not a log in this format.  Idempotent.
  Status Open();
  void Close();
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Write one framed record fully into the kernel; Internal on IO error.
  Status Append(const WalRecord& r);

  /// fdatasync if any append landed since the last sync (fsync batching).
  Status Sync();

  /// Truncate to an empty log, file header kept (after a snapshot made
  /// the log redundant).
  Status Reset();

  [[nodiscard]] std::uint64_t appended() const { return appended_; }
  [[nodiscard]] std::uint64_t bytes_appended() const {
    return bytes_appended_;
  }
  [[nodiscard]] std::uint64_t unsynced() const { return unsynced_; }

  /// The file header every log starts with, and one record as its on-disk
  /// frame (exposed for torn-tail tests that build logs by hand).
  [[nodiscard]] static std::string FileHeader();
  [[nodiscard]] static std::string EncodeRecord(const WalRecord& r);

  /// Replay `path` oldest-first, calling `apply` per valid record.  A
  /// missing file is an empty log (ok, zero records); a file in another
  /// format is InvalidArgument and untouched.  The first invalid
  /// record ends the replay; with `truncate_torn_tail` the file is cut at
  /// the last valid byte so subsequent appends extend a clean log.  An
  /// `apply` failure aborts with that status (the tail is left alone).
  static StatusOr<WalReplayStats> Replay(
      const std::string& path,
      const std::function<Status(const WalRecord&)>& apply,
      bool truncate_torn_tail = true);

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t appended_ = 0;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t unsynced_ = 0;
  bool header_pending_ = false;  ///< file is empty: header not yet written
};

}  // namespace ecc::durability
