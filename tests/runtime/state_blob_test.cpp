// Object state crosses as one serde blob (Section 3.1): the source node
// linearises and encodes it once in its evict reply, the coordinator
// forwards and checkpoints those bytes untouched, and the destination node
// decodes them once — refusing a blob that does not decode or names an
// unknown type before its WAL sees it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "param_names.hpp"
#include "runtime/demo_types.hpp"
#include "runtime/live_node.hpp"
#include "runtime/live_system.hpp"
#include "runtime/serde.hpp"
#include "store/store.hpp"
#include "store/wal.hpp"
#include "transport/async_tcp_transport.hpp"
#include "transport/bridge.hpp"
#include "transport/node_server.hpp"

namespace omig::runtime {
namespace {

constexpr std::size_t kSender = 99;

/// A fresh directory under /tmp, removed with the object.
class TempDir {
public:
  TempDir() {
    char dir_template[] = "/tmp/omig-state-blob-test-XXXXXX";
    if (mkdtemp(dir_template) != nullptr) path_ = dir_template;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

private:
  std::string path_;
};

/// Every record of the WAL at `path`, in append order.
std::vector<store::WalRecord> wal_records(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>{in},
                                        std::istreambuf_iterator<char>{}};
  std::vector<store::WalRecord> records;
  (void)store::replay_wal(bytes, [&records](const store::WalRecord& record) {
    records.push_back(record);
  });
  return records;
}

/// The last checkpoint blob the WAL at `path` holds for `name`.
std::optional<util::Bytes> last_checkpoint(const std::string& path,
                                           const std::string& name) {
  std::optional<util::Bytes> last;
  for (const store::WalRecord& record : wal_records(path)) {
    if (record.kind == store::RecordKind::Checkpoint && record.name == name) {
      last = record.blob;
    }
  }
  return last;
}

/// "bag": a property bag whose `get` returns one field and `size` the field
/// count, so a test can read every field wherever the object lives.
ObjectFactory bag_factory() {
  return [](std::string name, ObjectState state) {
    auto obj = std::make_unique<LiveObject>(std::move(name), std::move(state));
    obj->register_method("get", [](ObjectState& self, const std::string& key) {
      const auto it = self.fields.find(key);
      return it == self.fields.end() ? std::string{"<missing>"} : it->second;
    });
    obj->register_method("size", [](ObjectState& self, const std::string&) {
      return std::to_string(self.fields.size());
    });
    return obj;
  };
}

ObjectState bag_state(int fields) {
  ObjectState state;
  state.type = "bag";
  for (int i = 0; i < fields; ++i) {
    state.fields["field-" + std::to_string(i)] =
        "value-" + std::to_string(i * 7919) + std::string(i % 5, '#');
  }
  return state;
}

// --- one node behind InProc or, through a NodeServer, AsyncTcp -------------

class LiveNodeStateBlob : public ::testing::TestWithParam<TransportKind> {
protected:
  void SetUp() override {
    ASSERT_FALSE(dir_.path().empty());
    factories_ = demo_factories();
    factories_["bag"] = bag_factory();
    store::DurableStore::OpenOptions sopts;
    sopts.dir = dir_.path() + "/node";
    ASSERT_TRUE(store_.open(std::move(sopts)));
    node_ = std::make_unique<LiveNode>(0, &factories_);
    node_->set_store(&store_);
    node_->start();
    if (GetParam() == TransportKind::InProc) {
      transport_ = std::make_unique<transport::InProcTransport>(
          [this](std::size_t to) {
            return to == 0 ? &node_->mailbox() : nullptr;
          },
          nullptr);
      return;
    }
    server_ = std::make_unique<transport::NodeServer>(
        [this](transport::Frame frame,
               transport::NodeServer::Responder respond) {
          transport::serve_on_mailbox(node_->mailbox(), std::move(frame),
                                      std::move(respond));
        });
    const std::uint16_t port = server_->start();
    ASSERT_NE(port, 0);
    transport::AsyncTcpTransport::Options opts;
    opts.peers = {transport::Peer{"127.0.0.1", port}};
    transport_ =
        std::make_unique<transport::AsyncTcpTransport>(std::move(opts), nullptr);
  }

  void TearDown() override {
    transport_.reset();
    if (server_ != nullptr) server_->stop();
    node_->stop();
  }

  template <class Body>
  typename Body::Result request(Body body) {
    std::future<typename Body::Result> reply;
    EXPECT_EQ(transport_->send(kSender, 0, std::move(body), reply),
              transport::SendStatus::Ok);
    return reply.get();
  }

  bool install(const std::string& name, util::Bytes blob) {
    return request(Install{.seq = next_seq_++,
                           .name = name,
                           .state = std::move(blob),
                           .self_entry = false});
  }

  util::Bytes evict(std::uint64_t seq, const std::string& name) {
    return request(Evict{.seq = seq, .name = name, .forward_to = std::nullopt});
  }

  InvokeResult invoke(const std::string& name, const std::string& method) {
    return request(Invoke{.seq = next_seq_++,
                          .object = name,
                          .method = method,
                          .argument = ""});
  }

  TempDir dir_;
  std::unordered_map<std::string, ObjectFactory> factories_;
  store::DurableStore store_;
  std::unique_ptr<LiveNode> node_;
  std::unique_ptr<transport::NodeServer> server_;
  std::unique_ptr<transport::Transport> transport_;
  std::uint64_t next_seq_ = 1;
};

INSTANTIATE_TEST_SUITE_P(Backends, LiveNodeStateBlob,
                         ::testing::Values(TransportKind::InProc,
                                           TransportKind::AsyncTcp),
                         test::ParamName{});

TEST_P(LiveNodeStateBlob, RefusesAMalformedBlobBeforeItsWal) {
  const util::Bytes good = encode(make_state("counter", {{"count", "5"}}));
  util::Bytes truncated = good;
  truncated.pop_back();
  util::Bytes corrupt = good;
  corrupt[0] = 0xFF;  // type length far beyond the blob
  corrupt[3] = 0x7F;
  util::Bytes trailing = good;
  trailing.push_back(0);
  const std::vector<std::pair<std::string, util::Bytes>> cases = {
      {"truncated", truncated},
      {"corrupt", corrupt},
      {"trailing-garbage", trailing},
      {"unknown-type", encode(make_state("no-such-type", {{"count", "5"}}))},
      {"empty", util::Bytes{}},  // what a failed evict replies
  };
  for (const auto& [label, blob] : cases) {
    EXPECT_FALSE(install("c", blob)) << label;
    EXPECT_EQ(node_->hosted_objects(), 0u) << label;
    EXPECT_FALSE(invoke("c", "get").ok) << label;
  }
  EXPECT_TRUE(wal_records(store_.wal_path()).empty());
  EXPECT_TRUE(store_.view().empty());

  // A well-formed blob installs, and the WAL records exactly its bytes.
  ASSERT_TRUE(install("c", good));
  EXPECT_EQ(node_->hosted_objects(), 1u);
  EXPECT_EQ(invoke("c", "get").value, "5");
  const std::vector<store::WalRecord> records =
      wal_records(store_.wal_path());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, store::RecordKind::Checkpoint);
  EXPECT_EQ(records[0].name, "c");
  EXPECT_EQ(records[0].blob, good);
}

TEST_P(LiveNodeStateBlob, DuplicateEvictReturnsByteIdenticalBytes) {
  const ObjectState state = bag_state(16);
  ASSERT_TRUE(install("b", encode(state)));

  const util::Bytes first = evict(1000, "b");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(decode(first), state);
  EXPECT_EQ(node_->hosted_objects(), 0u);
  // A retransmission of the same evict: the object is gone, the bytes of
  // the first delivery come back.
  const std::uint64_t deduped = node_->deduplicated();
  EXPECT_EQ(evict(1000, "b"), first);
  EXPECT_EQ(node_->deduplicated(), deduped + 1);
  // A new evict of the missing object fails with the zero-length blob.
  EXPECT_TRUE(evict(1001, "b").empty());
}

// --- a migration through the coordinator -----------------------------------

/// Field-for-field read of `name` through its methods, wherever it lives.
void expect_fields(LiveSystem& sys, std::size_t from, const std::string& name,
                   const ObjectState& state) {
  EXPECT_EQ(sys.invoke_from(from, name, "size", "").value,
            std::to_string(state.fields.size()));
  for (const auto& [key, value] : state.fields) {
    const InvokeResult got = sys.invoke_from(from, name, "get", key);
    ASSERT_TRUE(got.ok) << key;
    EXPECT_EQ(got.value, value) << key;
  }
}

class LiveSystemStateBlob : public ::testing::TestWithParam<TransportKind> {
protected:
  void SetUp() override {
    ASSERT_FALSE(dir_.path().empty());
    factories_ = demo_factories();
    factories_["bag"] = bag_factory();
  }

  void TearDown() override {
    sys_.reset();
    for (auto& server : servers_) server->stop();
    for (auto& node : nodes_) node->stop();
  }

  /// InProc: the system hosts its own nodes. AsyncTcp: it coordinates
  /// nodes this fixture hosts behind frame servers that log every evict
  /// reply they send.
  LiveSystem& start() {
    LiveSystem::Options opts;
    opts.nodes = 2;
    opts.transport = GetParam();
    opts.data_dir = dir_.path() + "/coord";
    if (GetParam() == TransportKind::AsyncTcp) {
      for (std::size_t i = 0; i < 2; ++i) {
        nodes_.push_back(std::make_unique<LiveNode>(i, &factories_));
        nodes_.back()->start();
        servers_.push_back(std::make_unique<transport::NodeServer>(
            [this, node = nodes_.back().get()](
                transport::Frame frame,
                transport::NodeServer::Responder respond) {
              serve(*node, std::move(frame), std::move(respond));
            }));
        const std::uint16_t port = servers_.back()->start();
        EXPECT_NE(port, 0);
        opts.remote_nodes.push_back(transport::Peer{"127.0.0.1", port});
      }
    }
    sys_ = std::make_unique<LiveSystem>(std::move(opts));
    register_demo_types(*sys_);
    sys_->register_type("bag", bag_factory());
    sys_->start();
    return *sys_;
  }

  /// Serves one request frame, logging the bytes of every evict reply.
  void serve(LiveNode& node, transport::Frame frame,
             transport::NodeServer::Responder respond) {
    const auto* evict = std::get_if<Evict>(&frame.payload);
    if (evict == nullptr) {
      transport::serve_on_mailbox(node.mailbox(), std::move(frame),
                                  std::move(respond));
      return;
    }
    Reply<util::Bytes> reply{
        [this, respond, corr = frame.corr](util::Bytes blob) {
          {
            std::lock_guard lock{mutex_};
            evict_replies_.push_back(blob);
          }
          respond.send(
              transport::Frame{corr, transport::Answer<Evict>{std::move(blob)}});
        }};
    (void)node.mailbox().push(Request<Evict>{*evict, std::move(reply)});
  }

  std::vector<util::Bytes> evict_replies() {
    std::lock_guard lock{mutex_};
    return evict_replies_;
  }

  TempDir dir_;
  std::unordered_map<std::string, ObjectFactory> factories_;
  std::vector<std::unique_ptr<LiveNode>> nodes_;
  std::vector<std::unique_ptr<transport::NodeServer>> servers_;
  std::unique_ptr<LiveSystem> sys_;
  std::mutex mutex_;
  std::vector<util::Bytes> evict_replies_;
};

INSTANTIATE_TEST_SUITE_P(Backends, LiveSystemStateBlob,
                         ::testing::Values(TransportKind::InProc,
                                           TransportKind::AsyncTcp),
                         test::ParamName{});

TEST_P(LiveSystemStateBlob, SixtyFourFieldStateArrivesFieldIdentical) {
  LiveSystem& sys = start();
  const ObjectState state = bag_state(64);
  ASSERT_TRUE(sys.create("bag", state, 0));
  const std::string wal = sys.store()->wal_path();
  const std::optional<util::Bytes> created = last_checkpoint(wal, "bag");
  ASSERT_TRUE(created.has_value());
  EXPECT_EQ(decode(*created), state);

  ASSERT_TRUE(sys.migrate("bag", 1));
  EXPECT_EQ(sys.location("bag"), 1u);
  expect_fields(sys, 1, "bag", state);

  // The source's evict bytes. Over the wire they are logged as sent; in
  // process, the source encodes the state it rebuilt from the creation
  // blob, so the same bytes follow from that blob.
  util::Bytes source_bytes;
  if (GetParam() == TransportKind::AsyncTcp) {
    const std::vector<util::Bytes> replies = evict_replies();
    ASSERT_EQ(replies.size(), 1u);
    source_bytes = replies[0];
  } else {
    source_bytes = encode(*decode(*created));
  }
  EXPECT_EQ(decode(source_bytes), state);
  EXPECT_EQ(last_checkpoint(wal, "bag"), source_bytes);
}

}  // namespace
}  // namespace omig::runtime
