// IPv6 address and prefix types.
//
// Addresses are 16 opaque bytes with value semantics. Parsing accepts the
// RFC 4291 textual forms (full, "::"-compressed, mixed case); formatting
// follows RFC 5952 (lowercase, longest zero-run compressed, no leading
// zeroes). Prefix arithmetic on /32../64 networks underpins the network
// aggregation analyses (Tables 5 and 6).
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace tts::net {

class Ipv6Address {
 public:
  static constexpr std::size_t kBytes = 16;

  /// The unspecified address "::".
  constexpr Ipv6Address() : bytes_{} {}

  static constexpr Ipv6Address from_bytes(
      const std::array<std::uint8_t, kBytes>& b) {
    Ipv6Address a;
    a.bytes_ = b;
    return a;
  }

  /// Build from the high (network) and low (interface identifier) halves.
  static constexpr Ipv6Address from_halves(std::uint64_t hi,
                                           std::uint64_t lo) {
    return from_bytes(std::bit_cast<std::array<std::uint8_t, kBytes>>(
        std::array<std::uint64_t, 2>{big_endian(hi), big_endian(lo)}));
  }

  /// Parse textual form; returns nullopt on any syntax error.
  static std::optional<Ipv6Address> parse(std::string_view text);

  /// RFC 5952 canonical text.
  std::string to_string() const;

  constexpr const std::array<std::uint8_t, kBytes>& bytes() const {
    return bytes_;
  }

  constexpr std::uint64_t hi64() const { return read64(0); }
  constexpr std::uint64_t lo64() const { return read64(8); }

  /// Interface identifier = low 64 bits.
  constexpr std::uint64_t iid() const { return lo64(); }

  /// The IID bytes as a span (for entropy computation).
  std::span<const std::uint8_t, 8> iid_bytes() const {
    return std::span<const std::uint8_t, 8>(bytes_.data() + 8, 8);
  }

  /// Replace the low 64 bits.
  constexpr Ipv6Address with_iid(std::uint64_t iid) const {
    return from_halves(hi64(), iid);
  }

  /// Keep the top `len` (0..64) bits of a 64-bit word: the per-half masks
  /// that masked() and Ipv6Prefix::contains work with.
  static constexpr std::uint64_t top_bits(unsigned len) {
    return len == 0 ? 0 : ~std::uint64_t{0} << (64 - len);
  }

  /// Zero all bits below `prefix_len` (0..128), one 64-bit half at a time.
  constexpr Ipv6Address masked(unsigned prefix_len) const {
    if (prefix_len >= 128) return *this;
    if (prefix_len <= 64) return from_halves(hi64() & top_bits(prefix_len), 0);
    return from_halves(hi64(), lo64() & top_bits(prefix_len - 64));
  }

  constexpr bool is_unspecified() const {
    for (auto b : bytes_)
      if (b != 0) return false;
    return true;
  }

  friend constexpr auto operator<=>(const Ipv6Address&,
                                    const Ipv6Address&) = default;

 private:
  /// Swap a word between host order and network (big-endian) order; the
  /// swap is its own inverse, so it serves loads and stores alike.
  static constexpr std::uint64_t big_endian(std::uint64_t w) {
    return std::endian::native == std::endian::little ? __builtin_bswap64(w)
                                                      : w;
  }

  /// One 8-byte word at byte offset `off` (0 or 8), in network order.
  constexpr std::uint64_t read64(std::size_t off) const {
    return big_endian(
        std::bit_cast<std::array<std::uint64_t, 2>>(bytes_)[off / 8]);
  }

  std::array<std::uint8_t, kBytes> bytes_;
};

struct Ipv6AddressHash {
  std::size_t operator()(const Ipv6Address& a) const {
    // Addresses are well-spread already in the low half (IIDs); mix both
    // halves so structured addresses don't collide.
    std::uint64_t h = a.hi64() * 0x9e3779b97f4a7c15ULL;
    h ^= a.lo64() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

/// A CIDR prefix: an address with all host bits zero plus a length.
class Ipv6Prefix {
 public:
  constexpr Ipv6Prefix() : len_(0) {}
  Ipv6Prefix(const Ipv6Address& addr, unsigned len);

  /// Parse "2001:db8::/32"; nullopt on error (including host bits set).
  static std::optional<Ipv6Prefix> parse(std::string_view text);

  const Ipv6Address& address() const { return addr_; }
  unsigned length() const { return len_; }

  /// Word-wise: the two halves of `a` and the prefix agree on every bit
  /// the prefix length covers.
  bool contains(const Ipv6Address& a) const {
    unsigned hi_len = len_ < 64 ? len_ : 64;
    unsigned lo_len = len_ > 64 ? len_ - 64 : 0;
    return ((a.hi64() ^ addr_.hi64()) & Ipv6Address::top_bits(hi_len)) == 0 &&
           ((a.lo64() ^ addr_.lo64()) & Ipv6Address::top_bits(lo_len)) == 0;
  }
  bool contains(const Ipv6Prefix& other) const {
    return other.len_ >= len_ && contains(other.addr_);
  }

  std::string to_string() const;

  friend auto operator<=>(const Ipv6Prefix&, const Ipv6Prefix&) = default;

 private:
  Ipv6Address addr_;
  unsigned len_;
};

struct Ipv6PrefixHash {
  std::size_t operator()(const Ipv6Prefix& p) const {
    return Ipv6AddressHash{}(p.address()) * 131 + p.length();
  }
};

/// Convenience: the enclosing /48, /56, /64 (etc.) network of an address.
Ipv6Prefix network_of(const Ipv6Address& a, unsigned prefix_len);

}  // namespace tts::net

template <>
struct std::hash<tts::net::Ipv6Address> {
  std::size_t operator()(const tts::net::Ipv6Address& a) const {
    return tts::net::Ipv6AddressHash{}(a);
  }
};

template <>
struct std::hash<tts::net::Ipv6Prefix> {
  std::size_t operator()(const tts::net::Ipv6Prefix& p) const {
    return tts::net::Ipv6PrefixHash{}(p);
  }
};
