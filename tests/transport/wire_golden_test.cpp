// Golden bytes of the wire protocol: every frame type is pinned to its
// exact encoding, field by field. Any change to the frame layout, the
// FrameType numbering or the ObjectState blob an evict or install carries
// fails here — a refactor of the codec must leave these strings untouched.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hex.hpp"
#include "runtime/serde.hpp"
#include "transport/wire.hpp"
#include "util/byte_codec.hpp"

namespace omig::transport {
namespace {

using runtime::DirLookup;
using runtime::DirUpdate;
using runtime::Evict;
using runtime::Install;
using runtime::Invoke;
using runtime::Shutdown;

using omig::test::from_hex;
using omig::test::squash;
using omig::test::to_hex;

runtime::ObjectState golden_state() {
  runtime::ObjectState state;
  state.type = "counter";
  state.fields["n"] = "42";  // one field: map iteration order is moot
  return state;
}

// serde blob of golden_state():
//   type "counter" | field count 1 | key "n" | value "42"
constexpr const char* kStateHex =
    "07000000 636f756e746572 01000000 01000000 6e 02000000 3432";

/// The blob the frames carry: golden_state() as its source node encodes it.
util::Bytes golden_blob() { return runtime::encode(golden_state()); }

/// "obj" as a length-prefixed string.
constexpr const char* kObjHex = "03000000 6f626a";

struct Golden {
  Frame frame;
  std::string hex;  ///< full encoding, length prefix included
};

// Header: u32 payload length | u8 version 3 | u8 FrameType | u64 corr.
std::vector<Golden> golden_frames() {
  const std::string state = kStateHex;
  const std::string obj = kObjHex;
  std::vector<Golden> out;
  out.push_back({Frame{7, Invoke{42, "obj", "get", "x"}},
                 "25000000 03 01 0700000000000000"
                 " 2a00000000000000 " + obj +
                     " 03000000 676574 01000000 78"});
  out.push_back({Frame{8, Install{43, "obj", golden_blob(), true}},
                 "38000000 03 02 0800000000000000"
                 " 2b00000000000000 " + obj + " 1a000000 " + state + " 01"});
  out.push_back({Frame{9, Install{44, "obj", golden_blob(), false}},
                 "38000000 03 02 0900000000000000"
                 " 2c00000000000000 " + obj + " 1a000000 " + state + " 00"});
  out.push_back({Frame{10, Evict{45, "obj", 3}},
                 "22000000 03 03 0a00000000000000"
                 " 2d00000000000000 " + obj + " 01 0300000000000000"});
  out.push_back({Frame{11, Evict{46, "obj", std::nullopt}},
                 "1a000000 03 03 0b00000000000000"
                 " 2e00000000000000 " + obj + " 00"});
  out.push_back({Frame{12, Shutdown{}},
                 "0a000000 03 04 0c00000000000000"});
  out.push_back(
      {Frame{13, Answer<Invoke>{runtime::InvokeResult{true, "6"}}},
       "10000000 03 05 0d00000000000000 01 01000000 36"});
  out.push_back({Frame{14, Answer<Install>{true}},
                 "0b000000 03 06 0e00000000000000 01"});
  out.push_back({Frame{15, Answer<Evict>{golden_blob()}},
                 "28000000 03 07 0f00000000000000 1a000000 " + state});
  out.push_back({Frame{16, DirLookup{47, "obj"}},
                 "19000000 03 08 1000000000000000"
                 " 2f00000000000000 " + obj});
  out.push_back({Frame{17, DirUpdate{48, "obj", 2}},
                 "21000000 03 09 1100000000000000"
                 " 3000000000000000 " + obj + " 0200000000000000"});
  out.push_back({Frame{18, Answer<DirLookup>{{true, 2}}},
                 "13000000 03 0a 1200000000000000 01 0200000000000000"});
  out.push_back({Frame{19, Answer<DirUpdate>{{true}}},
                 "0b000000 03 0b 1300000000000000 01"});
  // An evict that found no object: a zero-length blob.
  out.push_back({Frame{20, Answer<Evict>{util::Bytes{}}},
                 "0e000000 03 07 1400000000000000 00000000"});
  return out;
}

TEST(WireGoldenBytes, VersionIsThree) { EXPECT_EQ(kWireVersion, 3); }

TEST(WireGoldenBytes, RejectsVersionTwoFrames) {
  // Frames a version-2 build sends, byte for byte. The failure reply is the
  // one that must never be taken for a state: it carried the 8-byte blob
  // of an empty state where version 3 sends a zero-length blob.
  const std::vector<std::string> v2 = {
      "28000000 02 07 0f00000000000000 1a000000 " + std::string{kStateHex},
      "16000000 02 07 0f00000000000000 08000000 00000000 00000000",
      "22000000 02 09 1100000000000000 3000000000000000 " +
          std::string{kObjHex} + " 0200000000000000 01",
  };
  for (const std::string& hex : v2) {
    const std::vector<std::uint8_t> bytes = from_hex(hex);
    ASSERT_EQ(bytes.size(), 4 + std::size_t{util::load_u32(bytes.data())});
    EXPECT_FALSE(decode_payload({bytes.data() + 4, bytes.size() - 4})
                     .has_value())
        << hex;
  }
}

TEST(WireGoldenBytes, CoversAllElevenFrameTypes) {
  std::vector<bool> seen(12, false);
  for (const Golden& g : golden_frames()) {
    seen[static_cast<std::size_t>(g.frame.type())] = true;
  }
  for (int t = 1; t <= 11; ++t) {
    EXPECT_TRUE(seen[static_cast<std::size_t>(t)])
        << to_string(static_cast<FrameType>(t));
  }
}

TEST(WireGoldenBytes, EncodesExactBytes) {
  for (const Golden& g : golden_frames()) {
    EXPECT_EQ(to_hex(encode_frame(g.frame)), squash(g.hex))
        << to_string(g.frame.type()) << " corr " << g.frame.corr;
  }
}

TEST(WireGoldenBytes, DecodesGoldenBytes) {
  for (const Golden& g : golden_frames()) {
    const std::vector<std::uint8_t> bytes = from_hex(g.hex);
    ASSERT_GE(bytes.size(), 4u);
    const auto decoded =
        decode_payload({bytes.data() + 4, bytes.size() - 4});
    ASSERT_TRUE(decoded.has_value()) << to_string(g.frame.type());
    EXPECT_EQ(*decoded, g.frame) << to_string(g.frame.type());
  }
}

TEST(WireGoldenBytes, ObjectStateBlob) {
  EXPECT_EQ(to_hex(runtime::encode(golden_state())), squash(kStateHex));
  const auto decoded = runtime::decode(from_hex(kStateHex));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, golden_state());
}

}  // namespace
}  // namespace omig::transport
