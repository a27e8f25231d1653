#include "store/wal.hpp"

#include <csignal>

#include "obs/families.hpp"
#include "store/crc32.hpp"
#include "util/byte_codec.hpp"

namespace omig::store {

namespace {

/// Frame header: u32 payload length + u32 payload CRC32.
constexpr std::size_t kHeaderBytes = 8;
/// Inner string/blob length cap — keeps one corrupt length prefix from
/// allocating gigabytes before the CRC would have caught it anyway.
constexpr std::uint32_t kMaxInnerLen = kMaxWalPayload;

}  // namespace

const char* to_string(RecordKind kind) {
  switch (kind) {
    case RecordKind::Checkpoint: return "checkpoint";
    case RecordKind::Migration: return "migration";
    case RecordKind::Lease: return "lease";
    case RecordKind::Evict: return "evict";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_record(const WalRecord& record) {
  std::vector<std::uint8_t> payload;
  payload.reserve(32 + record.name.size() + record.blob.size());
  util::put_u8(payload, kWalVersion);
  util::put_u8(payload, static_cast<std::uint8_t>(record.kind));
  util::put_u64(payload, record.seq);
  util::put_str(payload, record.name);
  util::put_u64(payload, record.a);
  util::put_u64(payload, record.b);
  util::put_bytes(payload, record.blob);

  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + payload.size());
  util::put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  util::put_u32(frame, crc32(payload));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::optional<WalRecord> decode_record_payload(
    std::span<const std::uint8_t> payload) {
  util::ByteReader in{payload};
  if (in.u8() != kWalVersion) return std::nullopt;
  const std::uint8_t kind = in.u8();
  if (kind < static_cast<std::uint8_t>(RecordKind::Checkpoint) ||
      kind > static_cast<std::uint8_t>(RecordKind::Evict)) {
    return std::nullopt;
  }
  WalRecord record;
  record.kind = static_cast<RecordKind>(kind);
  record.seq = in.u64();
  const std::span<const std::uint8_t> name = in.chunk(kMaxInnerLen);
  record.a = in.u64();
  record.b = in.u64();
  const std::span<const std::uint8_t> blob = in.chunk(kMaxInnerLen);
  if (!in.done()) return std::nullopt;
  record.name.assign(name.begin(), name.end());
  record.blob.assign(blob.begin(), blob.end());
  return record;
}

ReplayResult replay_wal(std::span<const std::uint8_t> bytes,
                        const std::function<void(const WalRecord&)>& apply) {
  ReplayResult result;
  std::size_t pos = 0;
  while (bytes.size() - pos >= kHeaderBytes) {
    const std::uint32_t len = util::load_u32(bytes.data() + pos);
    const std::uint32_t crc = util::load_u32(bytes.data() + pos + 4);
    if (len > kMaxWalPayload) break;  // corrupt length prefix
    if (bytes.size() - pos - kHeaderBytes < len) break;  // torn frame
    const std::span<const std::uint8_t> payload =
        bytes.subspan(pos + kHeaderBytes, len);
    if (crc32(payload) != crc) break;
    const std::optional<WalRecord> record = decode_record_payload(payload);
    if (!record) break;
    if (apply) apply(*record);
    ++result.records;
    result.last_seq = record->seq;
    pos += kHeaderBytes + len;
  }
  result.valid_bytes = pos;
  if (pos < bytes.size()) {
    result.truncations = 1;
    result.discarded_bytes = bytes.size() - pos;
  }
  return result;
}

bool Wal::open(const std::string& path,
               const std::function<void(const WalRecord&)>& apply,
               fault::FaultInjector* injector, std::size_t node) {
  injector_ = injector;
  node_ = node;
  dead_ = false;
  recovery_ = {};
  if (const auto bytes = read_file(path)) {
    recovery_ = replay_wal(*bytes, apply);
  }
  if (!file_.open(path)) return false;
  if (file_.size() > recovery_.valid_bytes) {
    // Cut the torn/corrupt tail so the next append starts right after the
    // last valid record instead of burying garbage mid-log.
    if (!file_.truncate(recovery_.valid_bytes) || !file_.sync()) {
      return false;
    }
  }
  next_seq_ = recovery_.last_seq + 1;
  obs::StoreMetrics& m = obs::store_metrics();
  if (recovery_.records > 0) m.replay_records->inc(recovery_.records);
  if (recovery_.truncations > 0) m.replay_truncations->inc(recovery_.truncations);
  return true;
}

void Wal::die() {
  if (process_kill_) {
    std::raise(SIGKILL);
  }
  dead_ = true;
}

Wal::AppendResult Wal::append(WalRecord& record, bool sync) {
  if (dead_ || !file_.is_open()) return {AppendStatus::Dead, false};
  // Enforce the cap before encoding: 34 fixed payload bytes (version,
  // kind, seq, two u32 lengths, operands a/b) plus the variable parts.
  // Checked in u64 so a >4 GiB blob cannot wrap the u32 length prefix.
  const std::uint64_t payload_size =
      34 + static_cast<std::uint64_t>(record.name.size()) +
      static_cast<std::uint64_t>(record.blob.size());
  if (payload_size > kMaxWalPayload) return {AppendStatus::TooLarge, false};
  record.seq = next_seq_;
  const std::vector<std::uint8_t> frame = encode_record(record);
  fault::DiskDecision decision;
  if (injector_ != nullptr) decision = injector_->on_wal_append(node_);

  if (decision.torn) {
    // Power loss mid-write: a strict prefix of the frame reaches the disk
    // image, then the store dies. Recovery must CRC-reject this tail.
    const std::size_t keep = frame.size() / 2;
    (void)file_.append(std::span{frame.data(), keep});
    (void)file_.sync();
    die();
    return {AppendStatus::Dead, false};
  }

  const std::uint64_t base = file_.size();
  if (decision.short_write) {
    // The kernel persisted fewer bytes than asked: truncate the partial
    // frame away and rewrite the whole record (the recoverable case).
    (void)file_.append(std::span{frame.data(), frame.size() / 2});
    if (!file_.truncate(base)) return {AppendStatus::IoError, false};
  }
  if (file_.append(frame) != frame.size()) {
    (void)file_.truncate(base);
    return {AppendStatus::IoError, false};
  }
  ++next_seq_;
  obs::StoreMetrics& m = obs::store_metrics();
  m.wal_appends->inc();
  m.wal_bytes->inc(frame.size());

  if (decision.kill) {
    // The frame is fully written but not fsynced — die exactly between
    // the write and the fsync, the crash-matrix power-loss point.
    die();
    return {AppendStatus::Dead, false};
  }
  bool durable = false;
  if (sync) durable = this->sync();
  return {AppendStatus::Ok, durable};
}

bool Wal::sync() {
  if (dead_ || !file_.is_open()) return false;
  obs::store_metrics().wal_fsyncs->inc();
  if (injector_ != nullptr && injector_->fsync_fails(node_)) return false;
  return file_.sync();
}

bool Wal::reset() {
  if (dead_ || !file_.is_open()) return false;
  // Sequence numbers stay monotonic across compaction: the snapshot
  // carries last_seq, and replay skips records at or below it.
  return file_.truncate(0) && file_.sync();
}

}  // namespace omig::store
