#include "store/snapshot.hpp"

#include "obs/families.hpp"
#include "store/crc32.hpp"
#include "store/env.hpp"
#include "util/byte_codec.hpp"

namespace omig::store {

namespace {

/// Inner length cap, matching the WAL's: one corrupt prefix must not
/// allocate gigabytes before validation finishes.
constexpr std::uint32_t kMaxInnerLen = 16u * 1024u * 1024u;

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const Snapshot& snap) {
  std::vector<std::uint8_t> body;
  util::put_u8(body, kSnapshotVersion);
  util::put_u64(body, snap.last_seq);
  util::put_u32(body, static_cast<std::uint32_t>(snap.objects.size()));
  for (const auto& [name, obj] : snap.objects) {
    util::put_str(body, name);
    util::put_u64(body, obj.node);
    util::put_u64(body, obj.cursor);
    util::put_bytes(body, obj.state);
  }
  std::vector<std::uint8_t> out;
  out.reserve(4 + body.size());
  util::put_u32(out, crc32(body));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<Snapshot> decode_snapshot(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) return std::nullopt;
  util::ByteReader in{bytes};
  const std::uint32_t crc = in.u32();
  if (crc32(bytes.subspan(4)) != crc) return std::nullopt;
  if (in.u8() != kSnapshotVersion) return std::nullopt;
  Snapshot snap;
  snap.last_seq = in.u64();
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; in.ok() && i < count; ++i) {
    const std::span<const std::uint8_t> name = in.chunk(kMaxInnerLen);
    StoredObject obj;
    obj.node = in.u64();
    obj.cursor = in.u64();
    const std::span<const std::uint8_t> state = in.chunk(kMaxInnerLen);
    if (!in.ok()) break;
    obj.state.assign(state.begin(), state.end());
    snap.objects.emplace(std::string{name.begin(), name.end()},
                         std::move(obj));
  }
  if (!in.done()) return std::nullopt;
  if (snap.objects.size() != count) return std::nullopt;  // duplicate names
  return snap;
}

std::optional<Snapshot> load_snapshot(const std::string& path) {
  const auto bytes = read_file(path);
  if (!bytes) return std::nullopt;
  return decode_snapshot(*bytes);
}

bool install_snapshot(const std::string& path, const Snapshot& snap) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  if (!atomic_install(path, bytes)) return false;
  obs::store_metrics().snapshot_installs->inc();
  return true;
}

}  // namespace omig::store
