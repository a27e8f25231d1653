// Wire protocol for the live runtime: every NodeMessage variant as a
// length-prefixed frame.
//
// Inside one process the runtime's messages carry `runtime::Reply` reply
// channels; those cannot cross a process boundary. At the transport seam a
// request instead carries a correlation ID, and the peer answers with a
// reply frame quoting the same ID — the sending transport matches it back
// to the waiting future. The frame layout is
//
//     u32  payload length (little-endian, excludes this prefix)
//     u8   protocol version (kWireVersion)
//     u8   frame type (FrameType)
//     u64  correlation ID (little-endian)
//     ...  type-specific body
//
// Strings use the same u32-length-prefix idiom as runtime/serde, and an
// embedded ObjectState is carried as a serde blob, so the object codec is
// written (and validated) exactly once. A bool is one flag byte, 0 or 1;
// an optional u64 is a flag byte followed by the value only when the flag
// is 1. Decoding follows runtime/serde's strict discipline: truncation,
// overlong lengths, flag bytes other than 0/1, unknown versions or types,
// and trailing bytes all reject the frame — decode never reads past the
// buffer and never throws.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "runtime/message.hpp"

namespace omig::transport {

/// Protocol version stamped into every frame header. Version 2 added the
/// piggybacked directory fields (WireEvict::forward_to,
/// WireInstall::self_entry) and made every flag byte strict (0 or 1).
inline constexpr std::uint8_t kWireVersion = 2;

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

// --- request bodies (promise-free mirrors of runtime::Msg*) ----------------

struct WireInvoke {
  std::uint64_t seq = 0;  ///< at-most-once dedup id (runtime::MsgInvoke)
  std::string object;
  std::string method;
  std::string argument;

  friend bool operator==(const WireInvoke&, const WireInvoke&) = default;
};

struct WireInstall {
  std::uint64_t seq = 0;
  std::string name;
  runtime::ObjectState state;
  bool self_entry = false;  ///< runtime::MsgInstall::self_entry

  friend bool operator==(const WireInstall&, const WireInstall&) = default;
};

struct WireEvict {
  std::uint64_t seq = 0;
  std::string name;
  std::optional<std::uint64_t> forward_to;  ///< runtime::MsgEvict::forward_to

  friend bool operator==(const WireEvict&, const WireEvict&) = default;
};

/// Asks a node process to stop (runtime::MsgStop). Fire-and-forget: the
/// peer closes the connection instead of replying.
struct WireShutdown {
  friend bool operator==(const WireShutdown&, const WireShutdown&) = default;
};

/// Asks a shard-owner node for its directory entry (slice record or
/// forwarding hint) for `name` (runtime::MsgDirLookup, docs/directory.md).
struct WireDirLookup {
  std::uint64_t seq = 0;
  std::string name;

  friend bool operator==(const WireDirLookup&,
                         const WireDirLookup&) = default;
};

/// Installs (`invalidate` false) or drops (`invalidate` true) a directory
/// entry at the receiving node: shard-slice updates after a migration and
/// forwarding hints left at the old host use the same message.
struct WireDirUpdate {
  std::uint64_t seq = 0;
  std::string name;
  std::uint64_t node = 0;
  bool invalidate = false;

  friend bool operator==(const WireDirUpdate&,
                         const WireDirUpdate&) = default;
};

// --- reply bodies ----------------------------------------------------------

struct WireInvokeReply {
  runtime::InvokeResult result;

  friend bool operator==(const WireInvokeReply&,
                         const WireInvokeReply&) = default;
};

struct WireInstallReply {
  bool ok = false;

  friend bool operator==(const WireInstallReply&,
                         const WireInstallReply&) = default;
};

struct WireEvictReply {
  runtime::ObjectState state;  ///< empty type signals failure (as in-proc)

  friend bool operator==(const WireEvictReply&,
                         const WireEvictReply&) = default;
};

struct WireDirLookupReply {
  bool found = false;
  std::uint64_t node = 0;

  friend bool operator==(const WireDirLookupReply&,
                         const WireDirLookupReply&) = default;
};

struct WireDirUpdateReply {
  bool ok = false;

  friend bool operator==(const WireDirUpdateReply&,
                         const WireDirUpdateReply&) = default;
};

/// One decoded frame: correlation ID plus the typed payload.
struct Frame {
  using Payload =
      std::variant<WireInvoke, WireInstall, WireEvict, WireShutdown,
                   WireInvokeReply, WireInstallReply, WireEvictReply,
                   WireDirLookup, WireDirUpdate, WireDirLookupReply,
                   WireDirUpdateReply>;

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

/// Rebuilds the runtime message a wire request stands for, answered through
/// `reply` — the one field mapping shared by the in-process transport
/// (a promise reply) and the server bridge (a callback reply).
[[nodiscard]] runtime::Message to_message(
    WireInvoke w, runtime::Reply<runtime::InvokeResult> reply);
[[nodiscard]] runtime::Message to_message(WireInstall w,
                                          runtime::Reply<bool> reply);
[[nodiscard]] runtime::Message to_message(
    WireEvict w, runtime::Reply<runtime::ObjectState> reply);
[[nodiscard]] runtime::Message to_message(
    WireDirLookup w, runtime::Reply<runtime::DirReply> reply);
[[nodiscard]] runtime::Message to_message(
    WireDirUpdate w, runtime::Reply<runtime::DirAck> reply);

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
