// Wire protocol for the live runtime: every runtime::Message as a
// length-prefixed frame.
//
// A frame carries the request bodies of runtime/message.hpp as they are —
// there is no separate wire form of a request. What cannot cross a process
// boundary is the runtime::Reply channel, so at the transport seam a
// request instead carries a correlation ID, and the peer answers with an
// Answer frame quoting the same ID — the sending transport matches it back
// to the waiting future. The frame layout is
//
//     u32  payload length (little-endian, excludes this prefix)
//     u8   protocol version (kWireVersion)
//     u8   frame type (FrameType)
//     u64  correlation ID (little-endian)
//     ...  the body's fields, in the order its `fields` lists them
//
// Fields use the shared little-endian codec (util/byte_codec): u64s as 8
// bytes, strings and byte blobs with a u32 length prefix, a bool as one
// flag byte 0 or 1, and an optional u64 as a flag byte followed by the
// value only when the flag is 1. An object's state crosses as the opaque
// serde blob its source node encoded (runtime::Install::state,
// runtime::Evict::Result): the frame codec never parses it — the
// installing node decodes and validates it. Decoding is strict:
// truncation, overlong lengths, flag bytes other than 0/1, unknown
// versions or types, and trailing bytes all reject the frame — decode
// never reads past the buffer and never throws.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "runtime/message.hpp"

namespace omig::transport {

/// Protocol version stamped into every frame header. Version 2 added the
/// piggybacked directory fields (runtime::Evict::forward_to,
/// runtime::Install::self_entry) and made every flag byte strict (0 or 1).
/// Version 3 made the evict failure reply a zero-length blob (an empty
/// state's 8-byte blob before) and dropped runtime::DirUpdate's
/// `invalidate` flag.
inline constexpr std::uint8_t kWireVersion = 3;

/// Upper bound on one frame's payload. A length prefix beyond this is
/// treated as malformed before any allocation happens, so a corrupt or
/// hostile peer cannot make the receiver reserve gigabytes.
inline constexpr std::uint32_t kMaxFramePayload = 16u * 1024u * 1024u;

enum class FrameType : std::uint8_t {
  Invoke = 1,
  Install = 2,
  Evict = 3,
  Shutdown = 4,
  InvokeReply = 5,
  InstallReply = 6,
  EvictReply = 7,
  DirLookup = 8,
  DirUpdate = 9,
  DirLookupReply = 10,
  DirUpdateReply = 11,
};

[[nodiscard]] const char* to_string(FrameType type);

/// The reply frame to a request with body `Body`: the node's answer value.
template <class Body>
struct Answer {
  typename Body::Result value;

  static auto fields(auto& self) { return std::tie(self.value); }
  friend bool operator==(const Answer&, const Answer&) = default;
};

/// One decoded frame: correlation ID plus the typed payload.
struct Frame {
  /// Alternatives in FrameType order, starting at 1 — the order is the
  /// wire numbering, so it never changes; a new request kind appends its
  /// body and its Answer.
  using Payload =
      std::variant<runtime::Invoke, runtime::Install, runtime::Evict,
                   runtime::Shutdown, Answer<runtime::Invoke>,
                   Answer<runtime::Install>, Answer<runtime::Evict>,
                   runtime::DirLookup, runtime::DirUpdate,
                   Answer<runtime::DirLookup>, Answer<runtime::DirUpdate>>;

  std::uint64_t corr = 0;
  Payload payload;

  [[nodiscard]] FrameType type() const;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Encodes a frame, length prefix included — the buffer can go onto a
/// socket as-is. The encoder does not enforce kMaxFramePayload; senders
/// check the encoded size (SendStatus::Oversized) and every receiver
/// rejects an overlong length prefix, so an oversized frame can never
/// cross the wire unnoticed.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Decodes one frame payload (the bytes *after* the u32 length prefix).
/// Returns nullopt on any malformation: short header, unknown version or
/// type, truncated body, overlong inner length, or trailing bytes.
[[nodiscard]] std::optional<Frame> decode_payload(
    std::span<const std::uint8_t> payload);

/// Reassembles frames from a TCP byte stream. recv() boundaries carry no
/// meaning on a stream socket, so feed() accepts arbitrary splits and
/// coalescings; next() hands out complete frames in order. A malformed
/// length or payload poisons the buffer permanently (error() turns true):
/// a byte stream that has lost framing cannot be resynchronised.
class FrameBuffer {
public:
  void feed(std::span<const std::uint8_t> bytes);

  /// Next complete frame, or nullopt if more bytes are needed (or the
  /// stream is poisoned — check error() to tell the cases apart).
  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] bool error() const { return error_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - pos_; }

private:
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;  ///< consumed prefix, compacted lazily
  bool error_ = false;
};

}  // namespace omig::transport
