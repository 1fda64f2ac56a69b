// The one byte codec of every binary format: Node::pack, the RPC frame
// header, the publish and batch bodies and the replication prefix.
// Fixed-width integers are little-endian, stored and loaded with one memcpy
// each; on a big-endian host the byte swap happens here and nowhere else.
// A string is a u32 length, then its bytes. ByteReader is the one
// bounds-checked cursor every decoder reads through.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace soma::bytes {

/// `v` in little-endian order; the swap is its own inverse, so it also
/// reads a little-endian value back.
inline std::uint32_t little_endian(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap32(v);
  }
  return v;
}

inline std::uint64_t little_endian(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap64(v);
  }
  return v;
}

// Stores write at a position the caller has sized and return the position
// behind what they wrote; loads read from one the caller has bounds-checked.

inline std::byte* store_u32(std::byte* p, std::uint32_t v) {
  v = little_endian(v);
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}

inline std::byte* store_u64(std::byte* p, std::uint64_t v) {
  v = little_endian(v);
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}

[[nodiscard]] inline std::uint32_t load_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return little_endian(v);
}

[[nodiscard]] inline std::uint64_t load_u64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return little_endian(v);
}

/// A u32 length, then the bytes of `text`.
inline std::byte* store_text(std::byte* p, std::string_view text) {
  p = store_u32(p, static_cast<std::uint32_t>(text.size()));
  if (!text.empty()) std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

/// A u32 count, then 8-byte words (int64 or float64): one copy on a
/// little-endian host. ByteReader::words reads it back.
template <typename T>
std::byte* store_words(std::byte* p, std::span<const T> values) {
  static_assert(sizeof(T) == sizeof(std::uint64_t));
  p = store_u32(p, static_cast<std::uint32_t>(values.size()));
  if constexpr (std::endian::native == std::endian::little) {
    if (!values.empty()) std::memcpy(p, values.data(), values.size_bytes());
    p += values.size_bytes();
  } else {
    for (const T v : values) p = store_u64(p, std::bit_cast<std::uint64_t>(v));
  }
  return p;
}

/// Bounds-checked cursor over `buffer` that advances the caller's `offset`,
/// so decoders that hand one buffer between them share their position. A
/// read that does not fit throws LookupError prefixed with `context` (the
/// decoder's name) and leaves `offset` where it was.
class ByteReader {
 public:
  ByteReader(std::span<const std::byte> buffer, std::size_t& offset,
             const char* context)
      : buffer_(buffer), offset_(offset), context_(context) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(bytes(1)[0]); }
  std::uint32_t u32() { return load_u32(bytes(4).data()); }
  std::uint64_t u64() { return load_u64(bytes(8).data()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// A u32 element count, rejected unless `min_bytes` per element fit in
  /// the bytes behind it, so a reserve sized from it is bounded by the
  /// buffer.
  std::uint32_t count(std::size_t min_bytes) {
    const std::uint32_t n = load_u32(at(4));
    if (n > (remaining() - 4) / min_bytes) fail("count exceeds buffer");
    offset_ += 4;
    return n;
  }

  /// A length-prefixed string, viewed in the buffer.
  std::string_view text() {
    const std::uint32_t n = load_u32(at(4));
    const std::byte* p = at(std::size_t{4} + n) + 4;
    offset_ += std::size_t{4} + n;
    return {reinterpret_cast<const char*>(p), n};
  }

  /// The next `n` bytes, viewed in the buffer.
  std::span<const std::byte> bytes(std::size_t n) {
    const std::span<const std::byte> out(at(n), n);
    offset_ += n;
    return out;
  }

  /// A counted array of 8-byte words (int64 or float64), the encoding of
  /// store_words, read in one copy on a little-endian host.
  template <typename T>
  std::vector<T> words() {
    static_assert(sizeof(T) == sizeof(std::uint64_t));
    std::vector<T> values(count(sizeof(T)));
    const std::byte* p = bytes(values.size() * sizeof(T)).data();
    if constexpr (std::endian::native == std::endian::little) {
      if (!values.empty()) {
        std::memcpy(values.data(), p, values.size() * sizeof(T));
      }
    } else {
      for (T& v : values) {
        v = std::bit_cast<T>(load_u64(p));
        p += sizeof(T);
      }
    }
    return values;
  }

 private:
  [[nodiscard]] std::size_t remaining() const {
    return buffer_.size() - offset_;
  }
  /// The next `n` bytes, without moving the cursor.
  const std::byte* at(std::size_t n) const {
    if (n > remaining()) fail("truncated");
    return buffer_.data() + offset_;
  }
  [[noreturn]] void fail(const char* what) const {
    std::string message = context_;
    message += ": ";
    message += what;
    throw LookupError(message);
  }

  std::span<const std::byte> buffer_;
  std::size_t& offset_;
  const char* context_;
};

}  // namespace soma::bytes
