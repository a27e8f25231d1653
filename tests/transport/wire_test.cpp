// Wire codec: round-trips for every frame type and an adversarial corpus —
// a peer feeding garbage must never crash the decoder, make it over-read,
// or get a malformed frame accepted.
#include "transport/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "runtime/serde.hpp"

namespace omig::transport {
namespace {

using runtime::DirLookup;
using runtime::DirUpdate;
using runtime::Evict;
using runtime::Install;
using runtime::Invoke;
using runtime::Shutdown;

runtime::ObjectState sample_state() {
  runtime::ObjectState state;
  state.type = "case-file";
  state.fields["log"] = "intake;billed";
  state.fields["owner"] = "node-2";
  return state;
}

/// What an evicting node sends: the serde blob of sample_state().
util::Bytes sample_blob() { return runtime::encode(sample_state()); }

std::vector<Frame> sample_frames() {
  std::vector<Frame> frames;
  frames.push_back(Frame{7, Invoke{42, "case-1", "append", "hello"}});
  frames.push_back(Frame{8, Install{43, "case-1", sample_blob(), true}});
  frames.push_back(Frame{9, Evict{44, "case-1", 3}});
  frames.push_back(Frame{10, Shutdown{}});
  frames.push_back(
      Frame{11, Answer<Invoke>{runtime::InvokeResult{true, "6"}}});
  frames.push_back(Frame{12, Answer<Install>{true}});
  frames.push_back(Frame{13, Answer<Evict>{sample_blob()}});
  return frames;
}

/// Payload bytes (after the u32 length prefix) of an encoded frame.
std::vector<std::uint8_t> payload_of(const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  return {bytes.begin() + 4, bytes.end()};
}

TEST(WireCodec, RoundTripsEveryFrameType) {
  for (const Frame& frame : sample_frames()) {
    const auto decoded = decode_payload(payload_of(frame));
    ASSERT_TRUE(decoded.has_value()) << to_string(frame.type());
    EXPECT_EQ(decoded->corr, frame.corr);
    EXPECT_EQ(decoded->payload, frame.payload) << to_string(frame.type());
  }
}

TEST(WireCodec, EmptyStringsAndEmptyStateSurvive) {
  Frame frame{1, Invoke{0, "", "", ""}};
  auto decoded = decode_payload(payload_of(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload, frame.payload);

  Frame evicted{2, Answer<Evict>{util::Bytes{}}};  // the failure reply
  decoded = decode_payload(payload_of(evicted));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload, evicted.payload);
}

TEST(WireCodec, FrameTypeMatchesVariantAlternative) {
  const std::vector<FrameType> expected = {
      FrameType::Invoke,      FrameType::Install,      FrameType::Evict,
      FrameType::Shutdown,    FrameType::InvokeReply,  FrameType::InstallReply,
      FrameType::EvictReply,
  };
  const std::vector<Frame> frames = sample_frames();
  ASSERT_EQ(frames.size(), expected.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].type(), expected[i]);
  }
}

TEST(WireCodec, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> payload = payload_of(sample_frames()[0]);
  // Any prefix shorter than the 10-byte header must be rejected.
  for (std::size_t len = 0; len < 10; ++len) {
    EXPECT_FALSE(
        decode_payload({payload.data(), len}).has_value())
        << "accepted a " << len << "-byte header";
  }
}

TEST(WireCodec, RejectsUnknownVersion) {
  std::vector<std::uint8_t> payload = payload_of(sample_frames()[0]);
  payload[0] = kWireVersion + 1;
  EXPECT_FALSE(decode_payload(payload).has_value());
  payload[0] = 0;
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(WireCodec, RejectsUnknownFrameType) {
  std::vector<std::uint8_t> payload = payload_of(sample_frames()[0]);
  payload[1] = 0;
  EXPECT_FALSE(decode_payload(payload).has_value());
  payload[1] = 200;
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(WireCodec, RejectsTruncatedBody) {
  for (const Frame& frame : sample_frames()) {
    const std::vector<std::uint8_t> payload = payload_of(frame);
    // Chop anywhere inside the body: never accepted, never over-read.
    for (std::size_t len = 10; len < payload.size(); ++len) {
      EXPECT_FALSE(decode_payload({payload.data(), len}).has_value())
          << to_string(frame.type()) << " truncated to " << len;
    }
  }
}

TEST(WireCodec, RejectsTrailingGarbage) {
  for (const Frame& frame : sample_frames()) {
    std::vector<std::uint8_t> payload = payload_of(frame);
    payload.push_back(0xAB);
    EXPECT_FALSE(decode_payload(payload).has_value())
        << to_string(frame.type());
  }
}

TEST(WireCodec, RejectsOverlongInnerLength) {
  // A string length claiming more bytes than the payload holds.
  std::vector<std::uint8_t> payload =
      payload_of(Frame{1, Invoke{5, "obj", "m", "arg"}});
  // Header: version(1) type(1) corr(8) seq(8); then u32 len of "obj".
  payload[18] = 0xFF;
  payload[19] = 0xFF;
  payload[20] = 0xFF;
  payload[21] = 0x7F;
  EXPECT_FALSE(decode_payload(payload).has_value());
}

TEST(WireCodec, RejectsTruncatedEmbeddedState) {
  // The frame codec carries the state blob without parsing it (the
  // installing node validates it), but the blob's length prefix is still
  // the frame's: cutting the blob short must reject the frame.
  std::vector<std::uint8_t> payload =
      payload_of(Frame{1, Answer<Evict>{sample_blob()}});
  payload.pop_back();
  EXPECT_FALSE(decode_payload(payload).has_value());
}

// --- version 2: piggybacked directory entries and strict flags --------------

TEST(WireCodecV2, RoundTripsPiggybackedDirectoryFields) {
  const std::vector<Frame> frames = {
      Frame{1, Evict{5, "obj", std::nullopt}},
      Frame{2, Evict{6, "obj", 0}},
      Frame{3, Evict{7, "obj", ~std::uint64_t{0}}},
      Frame{4, Install{8, "obj", sample_blob(), true}},
      Frame{5, Install{9, "obj", sample_blob(), false}},
  };
  for (const Frame& frame : frames) {
    const auto decoded = decode_payload(payload_of(frame));
    ASSERT_TRUE(decoded.has_value()) << "corr " << frame.corr;
    EXPECT_EQ(decoded->payload, frame.payload) << "corr " << frame.corr;
  }
}

// Header (10) + seq (8) + u32 name length (4) + "obj" (3): where an
// evict's forward_to flag byte sits.
constexpr std::size_t kEvictFlagAt = 25;

TEST(WireCodecV2, RejectsFlagBytesOtherThanZeroOrOne) {
  struct Case {
    Frame frame;
    std::size_t flag_at;  ///< offset of a flag byte in the payload
  };
  const std::vector<Case> cases = {
      {Frame{1, Evict{5, "obj", 4}}, kEvictFlagAt},
      {Frame{1, Evict{5, "obj", std::nullopt}}, kEvictFlagAt},
      {Frame{1, Install{5, "obj", sample_blob(), true}}, 0},  // last
      {Frame{1, Answer<Invoke>{runtime::InvokeResult{true, "v"}}}, 10},
      {Frame{1, Answer<Install>{true}}, 10},
      {Frame{1, Answer<DirLookup>{{true, 2}}}, 10},
      {Frame{1, Answer<DirUpdate>{{true}}}, 10},
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> payload = payload_of(c.frame);
    const std::size_t at = c.flag_at == 0 ? payload.size() - 1 : c.flag_at;
    ASSERT_LE(payload[at], 1) << to_string(c.frame.type());
    for (const std::uint8_t bad : {2, 0x80, 0xFF}) {
      payload[at] = bad;
      EXPECT_FALSE(decode_payload(payload).has_value())
          << to_string(c.frame.type()) << " flag " << int{bad};
    }
  }
}

TEST(WireCodecV2, RejectsTruncationAtEachNewField) {
  // forward_to set: the flag, then every byte of the u64 is required.
  const std::vector<std::uint8_t> set =
      payload_of(Frame{1, Evict{5, "obj", 7}});
  ASSERT_EQ(set.size(), kEvictFlagAt + 1 + 8);
  for (std::size_t len = kEvictFlagAt; len < set.size(); ++len) {
    EXPECT_FALSE(decode_payload({set.data(), len}).has_value())
        << "forward_to truncated to " << len;
  }
  // forward_to unset: the flag byte itself is still required.
  const std::vector<std::uint8_t> unset =
      payload_of(Frame{1, Evict{5, "obj", std::nullopt}});
  ASSERT_EQ(unset.size(), kEvictFlagAt + 1);
  EXPECT_FALSE(decode_payload({unset.data(), kEvictFlagAt}).has_value());
  // self_entry: the install's last byte.
  const std::vector<std::uint8_t> install =
      payload_of(Frame{1, Install{5, "obj", sample_blob(), true}});
  EXPECT_FALSE(
      decode_payload({install.data(), install.size() - 1}).has_value());
}

TEST(WireCodecV2, RejectsVersionOneFrames) {
  // A version-1 evict, byte for byte: header, seq, name, and no flag.
  std::vector<std::uint8_t> v1 = {1, static_cast<std::uint8_t>(FrameType::Evict)};
  v1.insert(v1.end(), 8, 0);                      // corr
  v1.insert(v1.end(), {5, 0, 0, 0, 0, 0, 0, 0});  // seq
  v1.insert(v1.end(), {3, 0, 0, 0, 'o', 'b', 'j'});
  EXPECT_FALSE(decode_payload(v1).has_value());
  // Every current frame stamped as version 1 is rejected as well.
  for (const Frame& frame : sample_frames()) {
    std::vector<std::uint8_t> payload = payload_of(frame);
    ASSERT_EQ(payload[0], kWireVersion);
    payload[0] = 1;
    EXPECT_FALSE(decode_payload(payload).has_value())
        << to_string(frame.type());
  }
}

TEST(FrameBufferTest, ReassemblesSplitDeliveries) {
  const std::vector<Frame> frames = sample_frames();
  std::vector<std::uint8_t> stream;
  for (const Frame& frame : frames) {
    const auto bytes = encode_frame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  // Feed the whole stream one byte at a time — the worst TCP segmentation.
  FrameBuffer buffer;
  std::vector<Frame> out;
  for (const std::uint8_t byte : stream) {
    buffer.feed({&byte, 1});
    while (auto frame = buffer.next()) out.push_back(std::move(*frame));
  }
  EXPECT_FALSE(buffer.error());
  ASSERT_EQ(out.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(out[i].corr, frames[i].corr);
    EXPECT_EQ(out[i].payload, frames[i].payload);
  }
  EXPECT_EQ(buffer.buffered(), 0u);
}

TEST(FrameBufferTest, HandlesCoalescedDeliveries) {
  // All frames in one read() — the other extreme.
  const std::vector<Frame> frames = sample_frames();
  std::vector<std::uint8_t> stream;
  for (const Frame& frame : frames) {
    const auto bytes = encode_frame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  FrameBuffer buffer;
  buffer.feed(stream);
  std::size_t count = 0;
  while (auto frame = buffer.next()) {
    EXPECT_EQ(frame->payload, frames[count].payload);
    ++count;
  }
  EXPECT_EQ(count, frames.size());
  EXPECT_FALSE(buffer.error());
}

TEST(FrameBufferTest, OversizedLengthPoisonsTheStream) {
  std::vector<std::uint8_t> evil(4);
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(evil.data(), &huge, 4);
  FrameBuffer buffer;
  buffer.feed(evil);
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_TRUE(buffer.error());
  // Once poisoned, even valid frames are refused — the stream lost framing.
  buffer.feed(encode_frame(sample_frames()[0]));
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_TRUE(buffer.error());
}

TEST(FrameBufferTest, MalformedPayloadPoisonsTheStream) {
  std::vector<std::uint8_t> bytes = encode_frame(sample_frames()[0]);
  bytes[4] = kWireVersion + 9;  // corrupt the version inside a valid frame
  FrameBuffer buffer;
  buffer.feed(bytes);
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_TRUE(buffer.error());
}

TEST(FrameBufferTest, PartialFrameIsNotAnError) {
  const std::vector<std::uint8_t> bytes = encode_frame(sample_frames()[1]);
  FrameBuffer buffer;
  buffer.feed({bytes.data(), bytes.size() / 2});
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_FALSE(buffer.error());  // just waiting for the rest
  buffer.feed({bytes.data() + bytes.size() / 2,
               bytes.size() - bytes.size() / 2});
  EXPECT_TRUE(buffer.next().has_value());
  EXPECT_FALSE(buffer.error());
}

// --- read-boundary fuzz -----------------------------------------------------
//
// The event-loop readers hand FrameBuffer whatever recv() returned, so
// frame boundaries land anywhere: mid length-prefix, mid payload, many
// frames coalesced into one read. Reassembly must be byte-exact under
// every split pattern. The sweep below drives a long multi-frame stream
// through 1-byte feeds, a boundary-targeted split set, and 64 seeded
// random chunkings; every run must reproduce the same frame sequence.

std::vector<Frame> fuzz_corpus() {
  std::vector<Frame> frames;
  std::uint64_t corr = 1;
  for (int round = 0; round < 8; ++round) {
    for (Frame& frame : sample_frames()) {
      frame.corr = corr++;
      frames.push_back(frame);
    }
    // A couple of bulky states so splits land deep inside payloads.
    runtime::ObjectState big = sample_state();
    big.fields["blob"] = std::string(1024 + 137 * round, 'x');
    frames.push_back(
        Frame{corr++, Install{99, "bulk", runtime::encode(big), false}});
  }
  return frames;
}

void expect_reassembles(const std::vector<Frame>& expected,
                        const std::vector<std::uint8_t>& stream,
                        const std::vector<std::size_t>& cuts,
                        const std::string& label) {
  FrameBuffer buffer;
  std::vector<Frame> got;
  std::size_t offset = 0;
  auto drain = [&] {
    while (auto frame = buffer.next()) got.push_back(std::move(*frame));
  };
  for (const std::size_t cut : cuts) {
    ASSERT_LE(cut, stream.size()) << label;
    ASSERT_GE(cut, offset) << label;
    buffer.feed({stream.data() + offset, cut - offset});
    ASSERT_FALSE(buffer.error()) << label << " offset " << offset;
    drain();
    offset = cut;
  }
  buffer.feed({stream.data() + offset, stream.size() - offset});
  drain();
  ASSERT_FALSE(buffer.error()) << label;
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].corr, expected[i].corr) << label << " frame " << i;
    EXPECT_EQ(got[i].payload, expected[i].payload) << label << " frame " << i;
  }
}

TEST(FrameBufferFuzz, OneByteFeedsReassembleExactly) {
  const std::vector<Frame> frames = fuzz_corpus();
  std::vector<std::uint8_t> stream;
  for (const Frame& frame : frames) {
    const auto bytes = encode_frame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  std::vector<std::size_t> cuts;
  for (std::size_t i = 1; i < stream.size(); ++i) cuts.push_back(i);
  expect_reassembles(frames, stream, cuts, "1-byte feeds");
}

TEST(FrameBufferFuzz, SplitsInsideEveryLengthPrefixAndPayload) {
  const std::vector<Frame> frames = fuzz_corpus();
  std::vector<std::uint8_t> stream;
  std::vector<std::size_t> cuts;
  for (const Frame& frame : frames) {
    const std::size_t base = stream.size();
    const auto bytes = encode_frame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
    // One cut inside the 4-byte length prefix, one right after it, and
    // one mid-payload — the three places a recv() boundary hurts most.
    cuts.push_back(base + 2);
    cuts.push_back(base + 4);
    cuts.push_back(base + 4 + (bytes.size() - 4) / 2);
  }
  expect_reassembles(frames, stream, cuts, "boundary splits");
}

TEST(FrameBufferFuzz, SeededRandomChunkingsAllReassemble) {
  const std::vector<Frame> frames = fuzz_corpus();
  std::vector<std::uint8_t> stream;
  for (const Frame& frame : frames) {
    const auto bytes = encode_frame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    // Tiny deterministic LCG: chunk sizes 1..97 bytes, skewed small.
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
    auto next = [&x] {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return x >> 33;
    };
    std::vector<std::size_t> cuts;
    std::size_t at = 0;
    while (at < stream.size()) {
      at += 1 + next() % 97;
      if (at >= stream.size()) break;
      cuts.push_back(at);
    }
    expect_reassembles(frames, stream, cuts,
                       "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace omig::transport
