#include "eurochip/util/digest.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace eurochip::util {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3uLL;
constexpr std::uint64_t kLanePrime = 0xC2B2AE3D27D4EB4FuLL;

/// splitmix64 finalizer: full-avalanche mix of one 64-bit word.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15uLL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9uLL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBuLL;
  return x ^ (x >> 31);
}

/// Little-endian 64-bit load of up to 8 bytes (the rest read as zero).
std::uint64_t load_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

Digest checksum(const void* data, std::size_t n) {
  // Two lanes, one 64-bit word each per round. A round is a bijection of
  // its lane for a fixed word, so a single changed word always changes
  // that lane's result; the length seeds lane a.
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t a = mix64(n);
  std::uint64_t b = 0x243F6A8885A308D3uLL;
  const auto round = [&](std::uint64_t x, std::uint64_t y) {
    a = std::rotl(a ^ x, 23) * 0x9E3779B97F4A7C15uLL;
    b = std::rotl(b ^ y, 29) * kLanePrime;
  };
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) round(load_le(p + i, 8), load_le(p + i + 8, 8));
  const std::size_t rest = n - i;
  round(load_le(p + i, std::min<std::size_t>(rest, 8)),
        rest > 8 ? load_le(p + i + 8, rest - 8) : 0);
  return Digest{mix64(a), mix64(b)};
}

std::string Digest::hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? hi : lo;
    const int shift = 56 - 8 * (i % 8);  // low nibble of byte i, MSB first
    out[static_cast<std::size_t>(2 * i)] = kHex[(word >> (shift + 4)) & 0xF];
    out[static_cast<std::size_t>(2 * i + 1)] = kHex[(word >> shift) & 0xF];
  }
  return out;
}

Hasher& Hasher::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    a_ = (a_ ^ p[i]) * kFnvPrime;
    b_ = (b_ ^ p[i]) * kLanePrime;
    b_ = (b_ << 31) | (b_ >> 33);
  }
  len_ += n;
  return *this;
}

Hasher& Hasher::u8(std::uint8_t v) { return bytes(&v, 1); }

Hasher& Hasher::u32(std::uint32_t v) {
  std::uint8_t buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return bytes(buf, sizeof buf);
}

Hasher& Hasher::u64(std::uint64_t v) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return bytes(buf, sizeof buf);
}

Hasher& Hasher::f64(double v) {
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  if (v == 0.0) v = 0.0;  // collapses -0.0 onto +0.0
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return u64(bits);
}

Hasher& Hasher::str(std::string_view s) {
  u64(s.size());
  return bytes(s.data(), s.size());
}

Digest Hasher::finalize() const {
  Digest d;
  d.hi = mix64(a_ ^ mix64(len_));
  d.lo = mix64(b_ + 0x632BE59BD9B4E019uLL * (len_ + 1));
  return d;
}

}  // namespace eurochip::util
