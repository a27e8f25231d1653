// Sharded-directory publication in the live runtime (docs/directory.md
// § "Who writes which entry"): the source's forwarding entry rides on the
// evict, the destination's self-entry on the install, and only a shard
// owner that is neither gets a DirUpdate — acked before the object leaves
// transit, so updates for one object reach its owner in order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "fault/fault_plan.hpp"
#include "param_names.hpp"
#include "runtime/demo_types.hpp"
#include "runtime/live_node.hpp"
#include "runtime/live_system.hpp"
#include "transport/bridge.hpp"
#include "transport/node_server.hpp"

namespace omig::runtime {
namespace {

constexpr std::size_t kNodes = 4;

ObjectState counter() { return make_state("counter", {{"count", "0"}}); }

LiveSystem::Options sharded_options(TransportKind transport) {
  LiveSystem::Options opts;
  opts.nodes = kNodes;
  opts.transport = transport;
  opts.directory = objsys::DirectoryKind::Sharded;
  opts.dir_strategy = objsys::ConsistencyStrategy::LazyForward;
  return opts;
}

std::unique_ptr<LiveSystem> start_system(LiveSystem::Options opts) {
  auto sys = std::make_unique<LiveSystem>(std::move(opts));
  register_demo_types(*sys);
  sys->start();
  return sys;
}

/// The node serving `name`'s shard under sharded_options(). The mapping is
/// deterministic, so a probe system reveals it before a faulty run is
/// configured.
std::size_t shard_owner_of(const std::string& name) {
  auto probe = start_system(sharded_options(TransportKind::InProc));
  return probe->directory_shard_owner(name);
}

/// Polls `done` every millisecond; false if it is still unmet after 10 s.
template <class Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  return true;
}

/// A fresh object name whose directory shard `owner` serves.
std::string name_owned_by(const LiveSystem& sys, std::size_t owner,
                          int& counter) {
  for (;;) {
    std::string name = "obj-" + std::to_string(counter++);
    if (sys.directory_shard_owner(name) == owner) return name;
  }
}

// --- per-migration directory cost ------------------------------------------

class LiveSystemDirectoryCost : public ::testing::TestWithParam<TransportKind> {
};

TEST_P(LiveSystemDirectoryCost, OwnerUpdateOnlyWhenOwnerIsNeitherEnd) {
  auto sys = start_system(sharded_options(GetParam()));
  int names = 0;
  for (std::size_t owner = 0; owner < kNodes; ++owner) {
    for (std::size_t src = 0; src < kNodes; ++src) {
      for (std::size_t dest = 0; dest < kNodes; ++dest) {
        if (src == dest) continue;
        SCOPED_TRACE("owner " + std::to_string(owner) + " src " +
                     std::to_string(src) + " dest " + std::to_string(dest));
        const std::string name = name_owned_by(*sys, owner, names);

        std::uint64_t before = sys->dir_updates();
        ASSERT_TRUE(sys->create(name, counter(), src));
        EXPECT_EQ(sys->dir_updates() - before, owner != src ? 1u : 0u);
        // Warm a bystander's lookup cache, so it goes stale with the
        // migration; only the two ends learn the move.
        std::size_t bystander = 0;
        while (bystander == src || bystander == dest) ++bystander;
        ASSERT_TRUE(sys->invoke_from(bystander, name, "add", "1").ok);

        before = sys->dir_updates();
        ASSERT_TRUE(sys->migrate(name, dest));
        EXPECT_EQ(sys->dir_updates() - before,
                  owner != src && owner != dest ? 1u : 0u);
        EXPECT_EQ(sys->directory_entry(owner, name), dest);
        EXPECT_EQ(sys->directory_entry(src, name), dest);
        EXPECT_EQ(sys->directory_entry(dest, name), dest);

        // Both ends' caches learned the move: a hit, no stale round.
        for (const std::size_t end : {src, dest}) {
          const std::uint64_t hits = sys->dir_cache_hits();
          const std::uint64_t stale = sys->dir_stale_hits();
          const InvokeResult r = sys->invoke_from(end, name, "get", "");
          ASSERT_TRUE(r.ok) << r.value;
          EXPECT_EQ(r.value, "1");
          EXPECT_EQ(sys->dir_cache_hits() - hits, 1u);
          EXPECT_EQ(sys->dir_stale_hits(), stale);
        }

        // The bystander's stale entry bounces at src; its forwarding entry
        // names dest.
        const std::uint64_t stale = sys->dir_stale_hits();
        const std::uint64_t hops = sys->dir_forward_hops();
        const InvokeResult r = sys->invoke_from(bystander, name, "get", "");
        ASSERT_TRUE(r.ok) << r.value;
        EXPECT_EQ(r.value, "1");
        EXPECT_EQ(sys->dir_stale_hits() - stale, 1u);
        EXPECT_EQ(sys->dir_forward_hops() - hops, 1u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, LiveSystemDirectoryCost,
                         ::testing::Values(TransportKind::InProc,
                                           TransportKind::AsyncTcp),
                         test::ParamName{});

// --- what crosses the wire -------------------------------------------------

/// Four real nodes behind loopback frame servers that log every request
/// frame; a LiveSystem coordinates them in remote mode over AsyncTcp.
class LiveSystemDirectoryWire : public ::testing::Test {
protected:
  struct Seen {
    transport::FrameType type;
    std::size_t to;
    std::optional<std::uint64_t> forward_to;  ///< evicts
    bool self_entry = false;                  ///< installs
  };

  void SetUp() override {
    factories_ = demo_factories();
    for (std::size_t i = 0; i < kNodes; ++i) {
      nodes_.push_back(std::make_unique<LiveNode>(i, &factories_));
      nodes_.back()->start();
      LiveNode* node = nodes_.back().get();
      servers_.push_back(std::make_unique<transport::NodeServer>(
          [this, node, i](transport::Frame frame,
                          transport::NodeServer::Responder respond) {
            record(i, frame);
            transport::serve_on_mailbox(node->mailbox(), std::move(frame),
                                        std::move(respond));
          }));
      const std::uint16_t port = servers_.back()->start();
      ASSERT_NE(port, 0);
      peers_.push_back(transport::Peer{"127.0.0.1", port});
    }
  }

  void TearDown() override {
    sys_.reset();
    for (auto& server : servers_) server->stop();
    for (auto& node : nodes_) node->stop();
  }

  LiveSystem& start(objsys::DirectoryKind directory) {
    LiveSystem::Options opts = sharded_options(TransportKind::AsyncTcp);
    opts.directory = directory;
    opts.remote_nodes = peers_;
    sys_ = start_system(std::move(opts));
    return *sys_;
  }

  void record(std::size_t to, const transport::Frame& frame) {
    Seen seen{frame.type(), to, std::nullopt, false};
    if (const auto* e = std::get_if<runtime::Evict>(&frame.payload)) {
      seen.forward_to = e->forward_to;
    }
    if (const auto* i = std::get_if<runtime::Install>(&frame.payload)) {
      seen.self_entry = i->self_entry;
    }
    std::lock_guard lock{mutex_};
    seen_.push_back(seen);
  }

  std::vector<Seen> take() {
    std::lock_guard lock{mutex_};
    return std::exchange(seen_, {});
  }

  std::unordered_map<std::string, ObjectFactory> factories_;
  std::vector<std::unique_ptr<LiveNode>> nodes_;
  std::vector<std::unique_ptr<transport::NodeServer>> servers_;
  std::vector<transport::Peer> peers_;
  std::unique_ptr<LiveSystem> sys_;
  std::mutex mutex_;
  std::vector<Seen> seen_;
};

TEST_F(LiveSystemDirectoryWire, CentralSetsNoPiggybackAndSendsNoDirFrames) {
  LiveSystem& sys = start(objsys::DirectoryKind::Central);
  ASSERT_TRUE(sys.create("c", counter(), 0));
  for (std::size_t dest : {1u, 2u, 3u, 0u}) {
    ASSERT_TRUE(sys.migrate("c", dest));
    ASSERT_TRUE(sys.invoke_from(dest, "c", "add", "1").ok);
  }
  const std::vector<Seen> seen = take();
  std::size_t evicts = 0, installs = 0;
  for (const Seen& s : seen) {
    EXPECT_NE(s.type, transport::FrameType::DirLookup);
    EXPECT_NE(s.type, transport::FrameType::DirUpdate);
    EXPECT_FALSE(s.forward_to.has_value());
    EXPECT_FALSE(s.self_entry);
    evicts += s.type == transport::FrameType::Evict;
    installs += s.type == transport::FrameType::Install;
  }
  EXPECT_EQ(evicts, 4u);
  EXPECT_EQ(installs, 5u);  // the creation plus one per migration
  EXPECT_EQ(sys.dir_updates(), 0u);
}

TEST_F(LiveSystemDirectoryWire, ShardedEvictAndInstallCarryTheEntries) {
  LiveSystem& sys = start(objsys::DirectoryKind::Sharded);
  const std::size_t owner = sys.directory_shard_owner("s");
  const std::size_t src = (owner + 1) % kNodes;
  const std::size_t dest = (owner + 2) % kNodes;
  ASSERT_TRUE(sys.create("s", counter(), src));
  take();
  ASSERT_TRUE(sys.migrate("s", dest));
  const std::vector<Seen> seen = take();
  std::size_t updates = 0;
  for (const Seen& s : seen) {
    if (s.type == transport::FrameType::Evict) {
      EXPECT_EQ(s.to, src);
      EXPECT_EQ(s.forward_to, dest);
    } else if (s.type == transport::FrameType::Install) {
      EXPECT_EQ(s.to, dest);
      EXPECT_TRUE(s.self_entry);
    } else if (s.type == transport::FrameType::DirUpdate) {
      EXPECT_EQ(s.to, owner);
      ++updates;
    }
  }
  EXPECT_EQ(updates, 1u);  // only the owner, which is neither end
}

// --- ordering: the owner update is acked before the transit ends ------------

TEST(LiveSystemDirectoryRace, ConcurrentMovesLeaveTheOwnerSliceCurrent) {
  const std::size_t owner = shard_owner_of("x");
  LiveSystem::Options opts = sharded_options(TransportKind::InProc);
  // No forwarding chase: a stale owner slice would send every lookup back
  // to the node the object left, so a reordered update cannot hide.
  opts.dir_strategy = objsys::ConsistencyStrategy::EagerInvalidate;
  // Slow, lossy owner link: a dropped owner update is retried after a
  // backoff, long enough for another client's later update to overtake it
  // if the object could move on before the first one was acked.
  opts.fault_plan = fault::parse_plan_text(
      "seed 5\n"
      "delay * " + std::to_string(owner) + " 1\n"
      "drop * " + std::to_string(owner) + " 0.2\n");
  opts.retry_backoff = std::chrono::milliseconds{1};
  auto sys = start_system(std::move(opts));

  std::vector<std::size_t> others;
  for (std::size_t n = 0; n < kNodes; ++n) {
    if (n != owner) others.push_back(n);
  }
  ASSERT_TRUE(sys->create("x", counter(), others[0]));

  constexpr int kRounds = 20;
  std::atomic<int> ok{0};
  std::atomic<int> returned{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const std::size_t dest = others[(i + t + 1) % others.size()];
        (void)sys->migrate("x", dest);
        const InvokeResult r = sys->invoke_from(dest, "x", "add", "1");
        returned.fetch_add(1);
        if (r.ok) ok.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_EQ(returned.load(), 2 * kRounds);
  EXPECT_EQ(ok.load(), 2 * kRounds);
  ASSERT_TRUE(sys->location("x").has_value());
  EXPECT_EQ(sys->directory_entry(owner, "x"), sys->location("x"));
  EXPECT_EQ(sys->invoke("x", "get", "").value, std::to_string(2 * kRounds));
  // An invoke misses only when the other client moved the object between
  // its lookup and its delivery, and then waits for that move to end
  // before it looks again: at most one stale round per migration. A slice
  // naming a node the object left makes every later invoke spin instead.
  EXPECT_LE(sys->dir_stale_hits(), 2u * kRounds);
  // Hang guard only; the run takes well under a second on an idle host.
  EXPECT_LT(elapsed, std::chrono::seconds{20});
}

// --- fault path: the install fails and the object returns to its source -----

TEST(LiveSystemDirectoryFault, FailedInstallRepublishesTheSourceAsOwner) {
  LiveSystem::Options opts = sharded_options(TransportKind::InProc);
  opts.max_retries = 2;
  opts.retry_backoff = std::chrono::milliseconds{1};
  auto sys = start_system(std::move(opts));
  // src owns the shard, so the evict's forwarding entry overwrites the
  // authoritative slice itself.
  const std::size_t src = sys->directory_shard_owner("f");
  const std::size_t dest = (src + 1) % kNodes;
  const std::size_t caller = (src + 2) % kNodes;
  ASSERT_TRUE(sys->create("f", counter(), src));
  ASSERT_TRUE(sys->invoke_from(caller, "f", "add", "1").ok);

  sys->crash_node(dest);  // down before the install reaches it
  ASSERT_TRUE(sys->migrate("f", dest));
  EXPECT_EQ(sys->location("f"), src);
  EXPECT_EQ(sys->directory_entry(src, "f"), src);

  // A cold caller resolves through the owner slice: no stale round, no
  // fallback to the coordinator map.
  const std::uint64_t stale = sys->dir_stale_hits();
  const std::uint64_t fallbacks = sys->dir_fallbacks();
  const InvokeResult r = sys->invoke_from((src + 3) % kNodes, "f", "get", "");
  ASSERT_TRUE(r.ok) << r.value;
  EXPECT_EQ(sys->dir_stale_hits(), stale);
  EXPECT_EQ(sys->dir_fallbacks(), fallbacks);

  // Still true once the failed destination is back.
  sys->restart_node(dest);
  EXPECT_EQ(sys->directory_entry(src, "f"), src);
  const InvokeResult again = sys->invoke_from(dest, "f", "get", "");
  ASSERT_TRUE(again.ok) << again.value;
  EXPECT_EQ(sys->dir_stale_hits(), stale);
}

// --- fault path: the piggybacked owner entry did not land -------------------

TEST(LiveSystemDirectoryFault, UnansweredEvictRepublishesTheOwner) {
  const std::size_t src = shard_owner_of("e");
  const std::size_t dest = (src + 1) % kNodes;
  LiveSystem::Options opts = sharded_options(TransportKind::InProc);
  // Every evict (sent dest -> src) is lost, so src never writes its
  // forwarding entry and keeps its copy; the move recovers the object onto
  // dest from its checkpoint.
  opts.fault_plan = fault::parse_plan_text(
      "drop " + std::to_string(dest) + " " + std::to_string(src) + " 1\n");
  opts.max_retries = 2;
  opts.retry_backoff = std::chrono::milliseconds{1};
  auto sys = start_system(std::move(opts));
  ASSERT_TRUE(sys->create("e", counter(), src));
  ASSERT_TRUE(sys->invoke_from(src, "e", "add", "1").ok);

  ASSERT_TRUE(sys->migrate("e", dest));
  EXPECT_EQ(sys->recoveries(), 1u);
  ASSERT_EQ(sys->location("e"), dest);
  EXPECT_EQ(sys->directory_entry(src, "e"), sys->location("e"));
  // A cold caller reaches the recovered copy (the creation checkpoint: the
  // add before the move is lost in degraded mode), not src's stale one.
  const InvokeResult r = sys->invoke_from((src + 2) % kNodes, "e", "get", "");
  ASSERT_TRUE(r.ok) << r.value;
  EXPECT_EQ(r.value, "0");
}

TEST(LiveSystemDirectoryFault, SourceRestartDuringInstallRepublishesTheOwner) {
  const std::size_t src = shard_owner_of("s");
  const std::size_t dest = (src + 1) % kNodes;
  LiveSystem::Options opts = sharded_options(TransportKind::InProc);
  // The install (sent src -> dest) is held back, leaving time to restart
  // src after its evict while the object is still in transit.
  opts.fault_plan = fault::parse_plan_text(
      "delay " + std::to_string(src) + " " + std::to_string(dest) + " 300\n");
  auto sys = start_system(std::move(opts));
  ASSERT_TRUE(sys->create("s", counter(), src));
  ASSERT_TRUE(sys->invoke_from(src, "s", "add", "1").ok);

  std::thread mover{[&] { EXPECT_TRUE(sys->migrate("s", dest)); }};
  // src owns the shard: its slice names dest once it handled the evict.
  ASSERT_TRUE(
      eventually([&] { return sys->directory_entry(src, "s") == dest; }));
  // The restart re-seeds src's slice while the object is in transit.
  sys->crash_node(src);
  sys->restart_node(src);
  mover.join();

  ASSERT_EQ(sys->location("s"), dest);
  EXPECT_EQ(sys->directory_entry(src, "s"), sys->location("s"));
  const InvokeResult r = sys->invoke_from((src + 2) % kNodes, "s", "get", "");
  ASSERT_TRUE(r.ok) << r.value;
  EXPECT_EQ(r.value, "1");
}

TEST(LiveSystemDirectoryFault, DestinationRestartDuringOwnerUpdateReinstalls) {
  const std::size_t owner = shard_owner_of("d");
  const std::size_t src = (owner + 1) % kNodes;
  const std::size_t dest = (owner + 2) % kNodes;
  LiveSystem::Options opts = sharded_options(TransportKind::InProc);
  // Slow owner link: the move's owner update keeps the object in transit
  // long after dest acked the install.
  opts.fault_plan =
      fault::parse_plan_text("delay * " + std::to_string(owner) + " 300\n");
  auto sys = start_system(std::move(opts));
  ASSERT_TRUE(sys->create("d", counter(), src));
  ASSERT_TRUE(sys->invoke_from(src, "d", "add", "1").ok);

  std::thread mover{[&] { EXPECT_TRUE(sys->migrate("d", dest)); }};
  // The directory names dest as soon as the install is acked.
  ASSERT_TRUE(eventually([&] { return sys->location("d") == dest; }));
  // dest loses the object; its restart finds it still in transit.
  sys->crash_node(dest);
  sys->restart_node(dest);
  mover.join();

  ASSERT_EQ(sys->location("d"), dest);
  EXPECT_EQ(sys->directory_entry(owner, "d"), sys->location("d"));
  const InvokeResult r = sys->invoke_from((owner + 3) % kNodes, "d", "get", "");
  ASSERT_TRUE(r.ok) << r.value;
  EXPECT_EQ(r.value, "1");
}

}  // namespace
}  // namespace omig::runtime
