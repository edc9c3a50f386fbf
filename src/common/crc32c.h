// CRC32C (Castagnoli, reflected polynomial 0x82F63B78): the one checksum
// behind wire frames (net/message.h), WAL records (durability/wal.h) and
// snapshot files (durability/snapshot.h).
//
// Unlike a multiplicative hash it guarantees detection of every burst
// error of 32 bits or fewer — in particular every single damaged byte.
// Crc32c() picks at run time (cpuid): on x86-64 CPUs with SSE4.2 it runs
// the crc32 instruction eight bytes at a time, elsewhere a portable
// slice-by-8 table walk.  Both produce identical values, which the tests
// check length by length.
#pragma once

#include <cstdint>
#include <string_view>

namespace ecc::common {

/// CRC32C of `bytes`.  `crc` continues an earlier checksum: Crc32c(a + b)
/// == Crc32c(b, Crc32c(a)).  Crc32c("123456789") == 0xE3069283.
[[nodiscard]] std::uint32_t Crc32c(std::string_view bytes,
                                   std::uint32_t crc = 0);

/// The slice-by-8 table path, on every host.
[[nodiscard]] std::uint32_t Crc32cPortable(std::string_view bytes,
                                           std::uint32_t crc = 0);

/// True when this CPU has the SSE4.2 crc32 instruction.
[[nodiscard]] bool Crc32cHardwareAvailable();

/// The SSE4.2 path.  Only valid when Crc32cHardwareAvailable().
[[nodiscard]] std::uint32_t Crc32cHardware(std::string_view bytes,
                                           std::uint32_t crc = 0);

}  // namespace ecc::common
