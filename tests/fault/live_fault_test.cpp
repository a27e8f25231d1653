// Fault tolerance of the live threaded runtime: lossy links, duplicate
// suppression, crash/restart checkpoint recovery, and lock leases.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/families.hpp"
#include "param_names.hpp"
#include "runtime/live_system.hpp"

namespace omig::runtime {
namespace {

ObjectFactory counter_factory() {
  return [](std::string name, ObjectState state) {
    auto obj = std::make_unique<LiveObject>(std::move(name), std::move(state));
    obj->register_method("inc", [](ObjectState& self, const std::string&) {
      self.fields["value"] =
          std::to_string(std::stoi(self.fields["value"]) + 1);
      return self.fields["value"];
    });
    obj->register_method("get", [](ObjectState& self, const std::string&) {
      return self.fields["value"];
    });
    return obj;
  };
}

ObjectState counter_state() {
  ObjectState s;
  s.type = "counter";
  s.fields["value"] = "0";
  return s;
}

std::unique_ptr<LiveSystem> make_system(LiveSystem::Options opts) {
  auto sys = std::make_unique<LiveSystem>(std::move(opts));
  sys->register_type("counter", counter_factory());
  sys->start();
  return sys;
}

/// Polls `pred` until it holds or `limit` passes.
bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  return pred();
}

TEST(LiveFaultTest, LossyLinksEveryInvokeStillSucceeds) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  opts.fault_plan = fault::parse_plan_text("seed 7\ndrop * * 0.25\n");
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  constexpr int kCalls = 60;
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_TRUE(sys->invoke("c", "inc", "").ok);
  }
  // At-most-once delivery: despite retransmissions the method ran exactly
  // once per logical request.
  EXPECT_EQ(sys->invoke("c", "get", "").value, std::to_string(kCalls));
  EXPECT_GT(sys->dropped_messages(), 0u);
  EXPECT_GT(sys->retries(), 0u);
}

TEST(LiveFaultTest, EveryRetryIsExportedToTheRegistry) {
  // Sharded directory plus migrations, so the lossy links hit every retry
  // site: invokes, evicts, installs, directory updates and lookups.
  const std::uint64_t exported_before =
      obs::runtime_metrics().retries->value();
  LiveSystem::Options opts;
  opts.nodes = 4;
  opts.directory = objsys::DirectoryKind::Sharded;
  opts.fault_plan = fault::parse_plan_text("seed 11\ndrop * * 0.2\n");
  auto sys = make_system(std::move(opts));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sys->create("c" + std::to_string(i), counter_state(),
                            static_cast<std::size_t>(i)));
  }
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 4; ++i) {
      const std::string name = "c" + std::to_string(i);
      EXPECT_TRUE(sys->migrate(name, static_cast<std::size_t>(round + i) % 4));
      EXPECT_TRUE(sys->invoke_from(static_cast<std::size_t>(round) % 4, name,
                                   "inc", "")
                      .ok);
    }
  }
  EXPECT_GT(sys->retries(), 0u);
  EXPECT_EQ(obs::runtime_metrics().retries->value() - exported_before,
            sys->retries());
}

TEST(LiveFaultTest, DuplicatesAreDeduplicated) {
  LiveSystem::Options opts;
  opts.nodes = 2;
  opts.fault_plan = fault::parse_plan_text("seed 3\ndup * * 1.0\n");
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  constexpr int kCalls = 20;
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_TRUE(sys->invoke("c", "inc", "").ok);
  }
  // Every message was delivered twice, yet each increment applied once.
  EXPECT_EQ(sys->invoke("c", "get", "").value, std::to_string(kCalls));
  EXPECT_GT(sys->duplicated_messages(),
            static_cast<std::uint64_t>(kCalls) - 1);
  EXPECT_GT(sys->deduplicated_messages(), 0u);
}

TEST(LiveFaultTest, DelaysSlowDeliveryWithoutBreakingIt) {
  LiveSystem::Options opts;
  opts.nodes = 2;
  opts.fault_plan = fault::parse_plan_text("delay * * 5\n");
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(sys->invoke("c", "inc", "").ok);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Five deliveries at >= 5 ms of injected latency each.
  EXPECT_GE(elapsed, std::chrono::milliseconds{25});
  EXPECT_EQ(sys->invoke("c", "get", "").value, "5");
}

TEST(LiveFaultTest, CrashLosesUpdatesRestartRecoversCheckpoint) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  for (int i = 0; i < 3; ++i) sys->invoke("c", "inc", "");
  sys->crash_node(1);
  EXPECT_FALSE(sys->node_up(1));
  sys->restart_node(1);
  EXPECT_TRUE(sys->node_up(1));
  // Degraded mode: the creation-time checkpoint comes back — updates since
  // are lost, but the object itself survives the crash.
  const auto r = sys->invoke("c", "get", "");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, "0");
  EXPECT_EQ(sys->crashes(), 1u);
  EXPECT_EQ(sys->restarts(), 1u);
  EXPECT_EQ(sys->recoveries(), 1u);
}

TEST(LiveFaultTest, MigrationRefreshesTheCheckpoint) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  sys->invoke("c", "inc", "");
  sys->invoke("c", "inc", "");
  ASSERT_TRUE(sys->migrate("c", 1));  // checkpoint now carries value = 2
  sys->invoke("c", "inc", "");        // post-checkpoint update, will be lost
  sys->crash_node(1);
  sys->restart_node(1);
  EXPECT_EQ(sys->invoke("c", "get", "").value, "2");
}

TEST(LiveFaultTest, MigrationPullsCheckpointOffDeadNode) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  opts.max_retries = 2;
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  sys->invoke("c", "inc", "");
  sys->crash_node(1);
  // The source is dead: eviction fails, the move falls back to the last
  // checkpoint and the object lands at the destination anyway.
  ASSERT_TRUE(sys->migrate("c", 0));
  EXPECT_EQ(sys->location("c"), 0u);
  const auto r = sys->invoke("c", "get", "");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, "0");  // checkpoint state; the inc was lost
  EXPECT_GE(sys->recoveries(), 1u);
}

TEST(LiveFaultTest, CrashedNodeWithoutRestartFailsBounded) {
  LiveSystem::Options opts;
  opts.nodes = 2;
  opts.max_retries = 2;
  opts.retry_backoff = std::chrono::milliseconds{1};
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  sys->crash_node(1);
  // No hang: the retry budget runs out and the failure is reported.
  const auto r = sys->invoke("c", "inc", "");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.value.find("unreachable"), std::string::npos);
  // After a restart the object is reachable again.
  sys->restart_node(1);
  EXPECT_TRUE(sys->invoke("c", "get", "").ok);
}

TEST(LiveFaultTest, LeaseExpiryReleasesLocksOfADeadBlock) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  opts.lock_lease = std::chrono::milliseconds{60};
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  auto holder = sys->move("c", 1);
  ASSERT_TRUE(holder.granted);
  // While the lease is fresh the lock refuses a conflicting move.
  auto early = sys->move("c", 2);
  EXPECT_FALSE(early.granted);
  EXPECT_EQ(sys->refused_moves(), 1u);
  // The holding block never ends (it "died"); once the lease runs out the
  // lock expires and the object is movable again.
  std::this_thread::sleep_for(std::chrono::milliseconds{150});
  auto late = sys->move("c", 2);
  EXPECT_TRUE(late.granted);
  EXPECT_EQ(sys->location("c"), 2u);
  EXPECT_EQ(sys->lease_expiries(), 1u);
  sys->end(late);
  sys->end(holder);  // stale token: releases nothing, must not throw
}

TEST(LiveFaultTest, InfiniteLeaseKeepsPaperSemantics) {
  LiveSystem::Options opts;
  opts.nodes = 3;  // lock_lease stays 0: locks never expire
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  auto holder = sys->move("c", 1);
  ASSERT_TRUE(holder.granted);
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  auto second = sys->move("c", 2);
  EXPECT_FALSE(second.granted);  // still refused, no matter how long ago
  EXPECT_EQ(sys->lease_expiries(), 0u);
  sys->end(holder);
}

TEST(LiveFaultTest, PlanDrivenCrashScheduleRuns) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  opts.fault_plan = fault::parse_plan_text("crash 1 20 60\n");  // millis
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  EXPECT_TRUE(eventually([&] { return !sys->node_up(1); },
                         std::chrono::seconds{5}));
  EXPECT_TRUE(eventually([&] { return sys->node_up(1); },
                         std::chrono::seconds{5}));
  EXPECT_EQ(sys->crashes(), 1u);
  EXPECT_EQ(sys->restarts(), 1u);
  // The untouched node kept serving throughout.
  EXPECT_TRUE(sys->invoke("c", "get", "").ok);
}

TEST(LiveFaultTest, StopMidScheduleDoesNotHang) {
  LiveSystem::Options opts;
  opts.nodes = 2;
  // A crash scheduled far in the future: stop() must not wait for it.
  opts.fault_plan = fault::parse_plan_text("crash 1 600000\n");
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  sys->stop();  // returns promptly; destructor's second stop() is a no-op
}

TEST(LiveFaultTest, CrashScheduleOutsideNodeRangeIsRejected) {
  LiveSystem::Options opts;
  opts.nodes = 2;
  opts.fault_plan = fault::parse_plan_text("crash 7 10\n");
  LiveSystem sys{opts};
  sys.register_type("counter", counter_factory());
  EXPECT_THROW(sys.start(), std::exception);
}

// --- faults inside a cluster hop ------------------------------------------
//
// A visit moves its whole closure as one batch (every evict, then every
// install, then every owner update), so one lost or duplicated message, or
// one crashed source, must spoil only its own member's progress.

class LiveBatchFaultTest : public ::testing::TestWithParam<TransportKind> {
protected:
  /// Four members, one per node, attached in a chain: m0-m1-m2-m3.
  static constexpr std::size_t kMembers = 4;

  static std::string member(std::size_t i) { return "m" + std::to_string(i); }

  std::unique_ptr<LiveSystem> start(const std::string& plan) {
    LiveSystem::Options opts;
    opts.nodes = kMembers;
    opts.transport = GetParam();
    opts.directory = objsys::DirectoryKind::Sharded;
    opts.fault_plan = fault::parse_plan_text(plan);
    opts.retry_backoff = std::chrono::milliseconds{1};
    auto sys = make_system(std::move(opts));
    for (std::size_t i = 0; i < kMembers; ++i) {
      EXPECT_TRUE(sys->create(member(i), counter_state(), i));
      if (i > 0) {
        EXPECT_TRUE(sys->attach(member(i - 1), member(i)));
      }
    }
    return sys;
  }

  /// Increments every member once from `from`.
  static void inc_all(LiveSystem& sys, std::size_t from) {
    for (std::size_t i = 0; i < kMembers; ++i) {
      const InvokeResult r = sys.invoke_from(from, member(i), "inc", "");
      EXPECT_TRUE(r.ok) << member(i) << ": " << r.value;
    }
  }

  /// Every member is back on its origin and holds `value`.
  static void expect_home(LiveSystem& sys, int value) {
    for (std::size_t i = 0; i < kMembers; ++i) {
      EXPECT_EQ(sys.location(member(i)), i) << member(i);
      const InvokeResult r = sys.invoke(member(i), "get", "");
      ASSERT_TRUE(r.ok) << member(i) << ": " << r.value;
      EXPECT_EQ(r.value, std::to_string(value)) << member(i);
    }
  }

  std::uint64_t exported_before_ = obs::runtime_metrics().retries->value();
};

TEST_P(LiveBatchFaultTest, LossyDuplicatingLinksLoseNothing) {
  auto sys = start("seed 7\ndrop * * 0.2\ndup * * 0.2\n");
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    const auto dest = static_cast<std::size_t>(round) % kMembers;
    LiveSystem::MoveToken token = sys->visit(member(0), dest);
    ASSERT_TRUE(token.granted);
    for (std::size_t i = 0; i < kMembers; ++i) {
      EXPECT_EQ(sys->location(member(i)), dest) << member(i);
    }
    inc_all(*sys, dest);
    sys->end(token);
    expect_home(*sys, round + 1);
  }
  // Each round moves the three members not already at dest out and back.
  EXPECT_EQ(sys->migrations(), kRounds * 2u * (kMembers - 1));
  EXPECT_EQ(sys->recoveries(), 0u);  // every evict was answered in budget
  EXPECT_GT(sys->dropped_messages(), 0u);
  EXPECT_GT(sys->duplicated_messages(), 0u);
  EXPECT_GT(sys->retries(), 0u);
  EXPECT_EQ(obs::runtime_metrics().retries->value() - exported_before_,
            sys->retries());
}

TEST_P(LiveBatchFaultTest, SourceCrashMidBatchRecoversItsMember) {
  // Evicts travel from the destination to the source, so this holds back
  // m2's evict in the visit to node 0 long enough to crash m2's source
  // while the batch waits for it.
  auto sys = start("delay 0 2 150\n");
  LiveSystem::MoveToken first = sys->visit(member(0), 0);
  ASSERT_TRUE(first.granted);
  inc_all(*sys, 0);
  sys->end(first);  // every member's checkpoint now holds 1
  expect_home(*sys, 1);

  LiveSystem::MoveToken token;
  std::thread visitor{[&] { token = sys->visit(member(0), 0); }};
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  sys->crash_node(2);
  visitor.join();
  ASSERT_TRUE(token.granted);
  // m2 came off its checkpoint; the other members came off their sources.
  for (std::size_t i = 0; i < kMembers; ++i) {
    EXPECT_EQ(sys->location(member(i)), 0u) << member(i);
  }
  EXPECT_EQ(sys->recoveries(), 1u);

  sys->restart_node(2);
  inc_all(*sys, 0);
  sys->end(token);
  expect_home(*sys, 2);
  EXPECT_EQ(sys->migrations(), 4u * (kMembers - 1));
  EXPECT_EQ(sys->recoveries(), 1u);
  EXPECT_EQ(sys->crashes(), 1u);
  EXPECT_EQ(sys->restarts(), 1u);
  // The dead source rejects the evict at once, which ends its attempts
  // without spending the retry budget. In-process the delayed evict itself
  // meets the closed mailbox. AsyncTcp accepted it before the crash (its
  // delay is a loop timer), so it breaks in flight and its one re-send is
  // the rejected one.
  EXPECT_GE(sys->send_rejections(), 1u);
  if (GetParam() == TransportKind::InProc) {
    EXPECT_EQ(sys->retries(), 0u);
  } else {
    EXPECT_LE(sys->retries(), 1u);
  }
  EXPECT_EQ(obs::runtime_metrics().retries->value() - exported_before_,
            sys->retries());
}

INSTANTIATE_TEST_SUITE_P(Backends, LiveBatchFaultTest,
                         ::testing::Values(TransportKind::InProc,
                                           TransportKind::AsyncTcp),
                         test::ParamName{});

}  // namespace
}  // namespace omig::runtime
