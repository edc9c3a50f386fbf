#include "common/crc32c.h"

#include <array>
#include <cstddef>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define ECC_CRC32C_X86 1
#endif

namespace ecc::common {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables: t[0] is the byte-at-a-time table; t[k][i] is the
/// CRC of byte i followed by k zero bytes.
constexpr Tables MakeTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1u) ? kPoly : 0u);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t Crc32cPortable(std::string_view bytes, std::uint32_t crc) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t c = ~crc;
  const Tables& t = kTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = (c >> 8) ^ t[0][(c ^ *p) & 0xffu];
  return ~c;
}

#ifdef ECC_CRC32C_X86

bool Crc32cHardwareAvailable() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
}

namespace {

std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

}  // namespace

__attribute__((target("sse4.2"))) std::uint32_t Crc32cHardware(
    std::string_view bytes, std::uint32_t crc) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, Load64(p));
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

#else  // !ECC_CRC32C_X86

bool Crc32cHardwareAvailable() { return false; }

std::uint32_t Crc32cHardware(std::string_view, std::uint32_t) {
  std::abort();  // callers must check Crc32cHardwareAvailable() first
}

#endif

std::uint32_t Crc32c(std::string_view bytes, std::uint32_t crc) {
  return Crc32cHardwareAvailable() ? Crc32cHardware(bytes, crc)
                                   : Crc32cPortable(bytes, crc);
}

}  // namespace ecc::common
