#include "transport/wire.hpp"

#include "util/byte_codec.hpp"

namespace omig::transport {

namespace {

using util::ByteReader;
using util::Bytes;

// --- field codec ------------------------------------------------------------
// One put/get pair per field type; a body (or an Answer's value) is encoded
// as its `fields` in order.

void put(Bytes& out, bool v) { util::put_bool(out, v); }
void put(Bytes& out, std::uint64_t v) { util::put_u64(out, v); }
void put(Bytes& out, const std::string& s) { util::put_str(out, s); }

void put(Bytes& out, const std::optional<std::uint64_t>& v) {
  util::put_bool(out, v.has_value());
  if (v.has_value()) util::put_u64(out, *v);
}

void put(Bytes& out, const Bytes& blob) { util::put_bytes(out, blob); }

template <class T>
void put(Bytes& out, const T& body) {
  std::apply([&out](const auto&... field) { (put(out, field), ...); },
             T::fields(body));
}

void get(ByteReader& in, bool& v) { v = in.flag(); }
void get(ByteReader& in, std::uint64_t& v) { v = in.u64(); }
void get(ByteReader& in, std::string& s) { s = in.str(); }

void get(ByteReader& in, std::optional<std::uint64_t>& v) {
  v.reset();
  if (in.flag()) v = in.u64();
}

void get(ByteReader& in, Bytes& blob) {
  const std::span<const std::uint8_t> bytes = in.chunk();
  blob.assign(bytes.begin(), bytes.end());
}

template <class T>
void get(ByteReader& in, T& body) {
  std::apply([&in](auto&... field) { (get(in, field), ...); },
             T::fields(body));
}

/// Decodes the body of Payload alternative `index` (FrameType - 1).
template <std::size_t I = 0>
bool get_payload(std::size_t index, ByteReader& in, Frame::Payload& out) {
  if constexpr (I == std::variant_size_v<Frame::Payload>) {
    return false;  // unknown frame type
  } else {
    if (index != I) return get_payload<I + 1>(index, in, out);
    get(in, out.emplace<I>());
    return true;
  }
}

}  // namespace

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::Invoke:
      return "invoke";
    case FrameType::Install:
      return "install";
    case FrameType::Evict:
      return "evict";
    case FrameType::Shutdown:
      return "shutdown";
    case FrameType::InvokeReply:
      return "invoke-reply";
    case FrameType::InstallReply:
      return "install-reply";
    case FrameType::EvictReply:
      return "evict-reply";
    case FrameType::DirLookup:
      return "dir-lookup";
    case FrameType::DirUpdate:
      return "dir-update";
    case FrameType::DirLookupReply:
      return "dir-lookup-reply";
    case FrameType::DirUpdateReply:
      return "dir-update-reply";
  }
  return "unknown";
}

FrameType Frame::type() const {
  // variant alternatives are declared in FrameType order, starting at 1.
  return static_cast<FrameType>(payload.index() + 1);
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  Bytes out;
  util::put_u32(out, 0);  // length prefix, patched below
  util::put_u8(out, kWireVersion);
  util::put_u8(out, static_cast<std::uint8_t>(frame.type()));
  util::put_u64(out, frame.corr);
  std::visit([&out](const auto& body) { put(out, body); }, frame.payload);
  // Not clamped to kMaxFramePayload here: the sender turns an oversized
  // encoding into a typed SendStatus, and receivers reject the length.
  util::store_u32(out.data(), static_cast<std::uint32_t>(out.size() - 4));
  return out;
}

std::optional<Frame> decode_payload(std::span<const std::uint8_t> payload) {
  ByteReader in{payload};
  const std::uint8_t version = in.u8();
  const std::uint8_t type = in.u8();
  Frame frame;
  frame.corr = in.u64();
  if (!in.ok() || version != kWireVersion) return std::nullopt;
  if (type == 0 || !get_payload(type - 1u, in, frame.payload)) {
    return std::nullopt;  // unknown frame type
  }
  if (!in.done()) return std::nullopt;  // malformed body or trailing garbage
  return frame;
}

void FrameBuffer::feed(std::span<const std::uint8_t> bytes) {
  if (error_) return;  // poisoned: drop everything
  // Compact the consumed prefix before growing, so the buffer stays
  // bounded by one partial frame plus whatever one feed() delivers.
  if (pos_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameBuffer::next() {
  if (error_) return std::nullopt;
  if (buffered() < 4) return std::nullopt;
  const std::uint32_t len = util::load_u32(buffer_.data() + pos_);
  if (len > kMaxFramePayload) {
    error_ = true;  // oversized length: framing is lost for good
    return std::nullopt;
  }
  if (buffered() < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  auto frame = decode_payload(
      std::span<const std::uint8_t>{buffer_.data() + pos_ + 4, len});
  if (!frame.has_value()) {
    error_ = true;  // malformed payload poisons the stream
    return std::nullopt;
  }
  pos_ += 4 + static_cast<std::size_t>(len);
  return frame;
}

}  // namespace omig::transport
