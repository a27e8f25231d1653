#include "runtime/mailbox.hpp"
#include "runtime/message.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

namespace omig::runtime {
namespace {

TEST(MailboxTest, PushPopSingleThread) {
  Mailbox<int> box;
  EXPECT_EQ(box.push(1), PushStatus::Ok);
  EXPECT_EQ(box.push(2), PushStatus::Ok);
  EXPECT_EQ(box.size(), 2u);
  EXPECT_EQ(box.pop(), 1);
  EXPECT_EQ(box.pop(), 2);
}

TEST(MailboxTest, CloseDrainsThenSignalsShutdown) {
  Mailbox<int> box;
  box.push(42);
  box.close();
  EXPECT_EQ(box.push(43), PushStatus::Closed);
  EXPECT_EQ(box.pop(), 42);    // pending message still delivered
  EXPECT_EQ(box.pop(), std::nullopt);
}

TEST(MailboxTest, PopBlocksUntilPush) {
  Mailbox<int> box;
  std::thread producer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.push(7);
  }};
  EXPECT_EQ(box.pop(), 7);
  producer.join();
}

TEST(MailboxTest, CloseWakesBlockedConsumer) {
  Mailbox<int> box;
  std::thread closer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.close();
  }};
  EXPECT_EQ(box.pop(), std::nullopt);
  closer.join();
}

TEST(MailboxTest, ManyProducersOneConsumer) {
  Mailbox<int> box;
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 1'000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box] {
      for (int i = 0; i < kPerProducer; ++i) box.push(1);
    });
  }
  long long sum = 0;
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    sum += box.pop().value();
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(sum, kProducers * kPerProducer);
  EXPECT_EQ(box.size(), 0u);
}

TEST(MailboxTest, MoveOnlyPayloads) {
  Mailbox<std::unique_ptr<int>> box;
  box.push(std::make_unique<int>(5));
  auto out = box.pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 5);
}

TEST(MailboxTest, CloseIsIdempotent) {
  Mailbox<int> box;
  box.push(1);
  box.close();
  box.close();  // second close must be a harmless no-op
  EXPECT_TRUE(box.closed());
  EXPECT_EQ(box.push(2), PushStatus::Closed);
  EXPECT_EQ(box.pop(), 1);
  EXPECT_EQ(box.pop(), std::nullopt);
}

TEST(MailboxTest, CloseAndDiscardDropsPendingMessages) {
  Mailbox<int> box;
  box.push(1);
  box.push(2);
  EXPECT_EQ(box.close_and_discard(), 2u);
  EXPECT_EQ(box.size(), 0u);
  EXPECT_EQ(box.pop(), std::nullopt);  // nothing delivered
}

TEST(MailboxTest, CloseAndDiscardBreaksCarriedPromises) {
  // A crash destroys queued messages; any promise they carried breaks, so
  // a sender blocked on the reply future observes the failure.
  Mailbox<std::promise<int>> box;
  std::promise<int> p;
  std::future<int> reply = p.get_future();
  box.push(std::move(p));
  box.close_and_discard();
  EXPECT_THROW(reply.get(), std::future_error);
}

TEST(MailboxReply, DefaultReplyIsAPromise) {
  Reply<int> reply;
  std::future<int> value = reply.get_future();
  reply.set_value(7);
  EXPECT_EQ(value.get(), 7);
  EXPECT_THROW(reply.set_value(8), std::future_error);
}

TEST(MailboxReply, DiscardedPromiseReplyBreaksItsFuture) {
  Mailbox<Reply<int>> box;
  Reply<int> reply;
  std::future<int> value = reply.get_future();
  box.push(std::move(reply));
  box.close_and_discard();
  EXPECT_THROW(value.get(), std::future_error);
}

TEST(MailboxReply, CallbackReplyRunsOnTheSettingThreadOnce) {
  std::thread::id ran_on;
  int got = 0;
  Reply<int> reply{[&](int v) {
    ran_on = std::this_thread::get_id();
    got = v;
  }};
  std::thread setter([&reply] { reply.set_value(5); });
  const std::thread::id setter_id = setter.get_id();
  setter.join();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(ran_on, setter_id);
  EXPECT_THROW(reply.set_value(6), std::future_error);
  EXPECT_EQ(got, 5);
}

TEST(MailboxReply, DiscardedCallbackReplySendsNothing) {
  bool called = false;
  Mailbox<Reply<int>> box;
  box.push(Reply<int>{[&called](int) { called = true; }});
  box.close_and_discard();
  EXPECT_FALSE(called);
}

TEST(MailboxTest, ReopenRearmsAClosedMailbox) {
  Mailbox<int> box;
  box.push(1);
  box.close_and_discard();
  EXPECT_EQ(box.push(2), PushStatus::Closed);
  box.reopen();
  EXPECT_FALSE(box.closed());
  EXPECT_EQ(box.push(3), PushStatus::Ok);
  EXPECT_EQ(box.pop(), 3);  // nothing from before the restart survives
}

TEST(MailboxTest, ConcurrentClosersAndProducersAreSafe) {
  // close() racing push() from many threads: every push either lands before
  // the close (accepted) or after (rejected) — never crashes or deadlocks.
  for (int round = 0; round < 20; ++round) {
    Mailbox<int> box;
    std::atomic<int> accepted{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < 4; ++p) {
      threads.emplace_back([&] {
        for (int i = 0; i < 100; ++i) {
          if (box.push(i) == PushStatus::Ok) accepted.fetch_add(1);
        }
      });
    }
    threads.emplace_back([&] { box.close(); });
    threads.emplace_back([&] { box.close(); });
    for (auto& t : threads) t.join();
    int drained = 0;
    while (box.pop().has_value()) ++drained;
    EXPECT_EQ(drained, accepted.load());  // accepted messages all deliver
    EXPECT_TRUE(box.closed());
  }
}

TEST(MailboxTest, CloseRacingBlockedConsumerAlwaysWakes) {
  for (int round = 0; round < 50; ++round) {
    Mailbox<int> box;
    std::thread consumer{[&] {
      while (box.pop().has_value()) {
      }
    }};
    box.push(round);
    box.close();
    consumer.join();  // must terminate: close wakes the blocked pop
  }
}

}  // namespace
}  // namespace omig::runtime
