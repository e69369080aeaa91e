// Stable content digests for cache keying.
//
// Hasher is a small streaming hash producing a 128-bit Digest. It is NOT
// cryptographic — it exists so that equal canonical serializations of flow
// inputs (RTL modules, config knobs, technology nodes) map to equal keys
// with a negligible collision rate, and so that the keys are stable across
// runs, platforms, and std::hash implementations (which FlowCache relies
// on for content addressing). All multi-byte values are absorbed in a
// fixed byte order; floating-point values are absorbed by bit pattern with
// -0.0 and NaN canonicalized so semantically equal inputs hash equally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace eurochip::util {

/// 128-bit digest value. Comparable, hashable (DigestHash), hex-printable.
struct Digest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Digest&, const Digest&) = default;

  /// 32-char lowercase hex rendering (for logs and tests).
  [[nodiscard]] std::string hex() const;
};

/// Integrity checksum of a byte range, eight bytes per step: much faster
/// than Hasher, for catching corrupt or truncated transfers (the wire
/// format's trailer). Not a content key: Hasher's digests stay the keys.
[[nodiscard]] Digest checksum(const void* data, std::size_t n);

/// For unordered containers keyed by Digest.
struct DigestHash {
  std::size_t operator()(const Digest& d) const noexcept {
    return static_cast<std::size_t>(d.hi ^ (d.lo * 0x9E3779B97F4A7C15uLL));
  }
};

/// Streaming hasher: two independent 64-bit FNV-1a-style lanes with a
/// strong final mix. Absorb order matters; callers are responsible for
/// feeding a canonical serialization (length-prefix variable-size data).
class Hasher {
 public:
  Hasher& bytes(const void* data, std::size_t n);
  Hasher& u8(std::uint8_t v);
  Hasher& u32(std::uint32_t v);
  Hasher& u64(std::uint64_t v);
  Hasher& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  Hasher& boolean(bool v) { return u8(v ? 1 : 0); }
  /// Bit-pattern hash with -0.0 -> +0.0 and all NaNs -> one quiet NaN.
  Hasher& f64(double v);
  /// Length-prefixed, so str("ab")+str("c") != str("a")+str("bc").
  Hasher& str(std::string_view s);
  /// Chains a previously computed digest (for key = H(upstream, ...)).
  Hasher& digest(const Digest& d) { return u64(d.hi).u64(d.lo); }

  [[nodiscard]] Digest finalize() const;

 private:
  std::uint64_t a_ = 0xCBF29CE484222325uLL;  ///< FNV-1a offset basis
  std::uint64_t b_ = 0x9AE16A3B2F90404FuLL;  ///< independent lane seed
  std::uint64_t len_ = 0;
};

}  // namespace eurochip::util
