#include "runtime/serde.hpp"

#include "util/byte_codec.hpp"

namespace omig::runtime {

std::vector<std::uint8_t> encode(const ObjectState& state) {
  std::vector<std::uint8_t> out;
  util::put_str(out, state.type);
  util::put_u32(out, static_cast<std::uint32_t>(state.fields.size()));
  for (const auto& [key, value] : state.fields) {
    util::put_str(out, key);
    util::put_str(out, value);
  }
  return out;
}

std::optional<ObjectState> decode(std::span<const std::uint8_t> bytes) {
  util::ByteReader in{bytes};
  ObjectState state;
  state.type = in.str();
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count && in.ok(); ++i) {
    std::string key = in.str();
    std::string value = in.str();
    if (in.ok()) state.fields[std::move(key)] = std::move(value);
  }
  if (!in.done()) return std::nullopt;  // truncated, or trailing garbage
  return state;
}

}  // namespace omig::runtime
