// Golden bytes of the durable store's on-disk formats: one WAL record and
// one snapshot, pinned byte for byte (CRCs included). A data directory
// written by one build must replay under the next; these strings are the
// contract.
#include <gtest/gtest.h>

#include <string>

#include "hex.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace omig::store {
namespace {

using omig::test::from_hex;
using omig::test::squash;
using omig::test::to_hex;

// A serde blob (type "counter", one field n = "42"); opaque to the store.
const std::string kBlobHex =
    "07000000 636f756e746572 01000000 01000000 6e 02000000 3432";

TEST(WalGoldenBytes, CheckpointRecord) {
  WalRecord record;
  record.kind = RecordKind::Checkpoint;
  record.seq = 9;
  record.name = "obj";
  record.a = 2;
  record.b = 5;
  record.blob = from_hex(kBlobHex);
  // u32 payload length | u32 CRC32 | version 1 | kind 1 | seq | name |
  // a | b | blob.
  const std::string expected =
      "3f000000 e22447dd 01 01 0900000000000000 03000000 6f626a"
      " 0200000000000000 0500000000000000 1a000000 " + kBlobHex;
  EXPECT_EQ(to_hex(encode_record(record)), squash(expected));

  const std::vector<std::uint8_t> frame = from_hex(expected);
  const auto decoded =
      decode_record_payload({frame.data() + 8, frame.size() - 8});
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, record);
}

TEST(SnapshotGoldenBytes, TwoObjects) {
  Snapshot snap;
  snap.last_seq = 17;
  snap.objects["a"] = StoredObject{1, 0, from_hex(kBlobHex)};
  snap.objects["b"] = StoredObject{3, 4, {}};
  // u32 CRC32 | version 1 | last_seq | count 2 | per entry: name, node,
  // cursor, blob.
  const std::string expected =
      "69679c19 01 1100000000000000 02000000"
      " 01000000 61 0100000000000000 0000000000000000 1a000000 " +
      kBlobHex +
      " 01000000 62 0300000000000000 0400000000000000 00000000";
  EXPECT_EQ(to_hex(encode_snapshot(snap)), squash(expected));

  const auto decoded = decode_snapshot(from_hex(expected));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, snap);
}

}  // namespace
}  // namespace omig::store
