// Little-endian byte codec shared by every binary format in the tree: the
// object-state blob (runtime/serde), wire frames (transport/wire), WAL
// records (store/wal) and snapshots (store/snapshot).
//
// Writers append to a byte vector. ByteReader is a strict, sticky cursor:
// the first short read, overlong length or bad flag byte marks it failed,
// and every later read returns a zero value without touching the buffer —
// a decoder reads its fields in order and checks ok() (or done(), which
// also rejects trailing bytes) once at the end. It never reads past the
// buffer and never throws.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace omig::util {

using Bytes = std::vector<std::uint8_t>;

inline void put_u8(Bytes& out, std::uint8_t v) { out.push_back(v); }

inline void put_u32(Bytes& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

inline void put_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

/// A flag byte: 1 or 0.
inline void put_bool(Bytes& out, bool v) { out.push_back(v ? 1 : 0); }

/// u32 length prefix, then the bytes.
inline void put_bytes(Bytes& out, std::span<const std::uint8_t> bytes) {
  put_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

inline void put_str(Bytes& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Reads a little-endian u32 at `p` (the caller checked the bounds).
inline std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Overwrites 4 bytes at `p` with `v`, little-endian (length back-patching).
inline void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

class ByteReader {
public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_{bytes} {}

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return bytes_[pos_ - 1];
  }

  std::uint32_t u32() {
    if (!take(4)) return 0;
    return load_u32(bytes_.data() + pos_ - 4);
  }

  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return hi << 32 | lo;
  }

  /// A flag byte: 0 or 1; anything else fails the reader.
  bool flag() {
    const std::uint8_t byte = u8();
    if (byte > 1) ok_ = false;
    return byte == 1;
  }

  /// A u32-length-prefixed chunk, viewed in place. A length above
  /// `max_len` fails the reader even when the bytes are present.
  std::span<const std::uint8_t> chunk(
      std::uint32_t max_len = std::numeric_limits<std::uint32_t>::max()) {
    const std::uint32_t len = u32();
    if (!ok_) return {};
    if (len > max_len || !take(len)) {
      ok_ = false;
      return {};
    }
    return bytes_.subspan(pos_ - len, len);
  }

  std::string str() {
    const std::span<const std::uint8_t> bytes = chunk();
    return {bytes.begin(), bytes.end()};
  }

  /// Marks the input malformed (a check the reader cannot make itself).
  void fail() { ok_ = false; }

  /// Every read so far succeeded.
  [[nodiscard]] bool ok() const { return ok_; }
  /// Every read succeeded and consumed the whole buffer.
  [[nodiscard]] bool done() const { return ok_ && pos_ == bytes_.size(); }

private:
  /// Advances past `n` bytes if they are all there.
  bool take(std::size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace omig::util
