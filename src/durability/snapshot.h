// Atomic on-disk snapshots of one shard.
//
// A snapshot file wraps a CacheNode::SerializeShard() blob in the same
// header idiom as the WAL: `u32 magic | u32 length | u32 CRC32C | payload`
// (common/crc32c.h).  The magic doubles as the format version: files
// starting "ECS2" carry CRC32C.  A file in the retired format (magic
// 0x45435353, FNV-1a checksums) is not damage: it is refused with
// FailedPrecondition, so recovery stops instead of falling back to the
// WAL and later compacting over it, and it is never modified.  Writes go
// through a temp file + fsync + rename-into-place + directory fsync, so a
// crash at any point leaves either the old snapshot or the new one —
// never a partial file under the live name.
#pragma once

#include <string>

#include "common/status.h"

namespace ecc::durability {

/// Live snapshot file name inside a node's durability directory.
inline constexpr char kSnapshotFileName[] = "snapshot.ecc";

/// Write `payload` (a SerializeShard blob) as `dir`/snapshot.ecc,
/// atomically replacing any previous snapshot.
Status WriteSnapshotFile(const std::string& dir, const std::string& payload);

/// Load the snapshot payload from `dir`/snapshot.ecc.  NotFound when no
/// snapshot exists; FailedPrecondition when it is in the retired format;
/// InvalidArgument when the header or checksum is bad (a damaged snapshot
/// is never served).
StatusOr<std::string> LoadSnapshotFile(const std::string& dir);

}  // namespace ecc::durability
