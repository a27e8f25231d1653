// NodeServer dispatch: frames go straight from the loop to the handler,
// replies come back through a Responder from whichever thread answers.
//
// Covers the contract the asynchronous dispatch has to keep without a
// handler thread per connection: per-connection reply order through the
// node's FIFO mailbox, late replies (after the connection closed, after
// stop(), after a stop/start cycle of a server owning its loop, after the
// server is gone) dropped without touching freed state, a crash with
// queued wire requests answering nothing, and a stalled node never
// blocking the loop it shares with another server.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "runtime/demo_types.hpp"
#include "runtime/live_node.hpp"
#include "runtime/serde.hpp"
#include "transport/async_tcp_transport.hpp"
#include "transport/bridge.hpp"
#include "transport/node_server.hpp"
#include "transport/tcp.hpp"
#include "transport/wire.hpp"

namespace omig::transport {
namespace {

using namespace std::chrono_literals;
using runtime::Install;
using runtime::Invoke;

constexpr std::size_t kSender = 99;

NodeServer::Handler mailbox_handler(runtime::LiveNode& node) {
  return [&node](Frame frame, NodeServer::Responder respond) {
    serve_on_mailbox(node.mailbox(), std::move(frame), std::move(respond));
  };
}

/// Blocking test client: one connection, whole frames in and out, and a
/// receive timeout so a missing reply fails the test instead of hanging.
class RawClient {
public:
  explicit RawClient(std::uint16_t port) : fd_{tcp_connect("127.0.0.1", port)} {
    timeval tv{};
    tv.tv_sec = 5;
    (void)setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawClient() { close(); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  bool send(const std::vector<Frame>& frames) {
    std::vector<std::uint8_t> bytes;
    for (const Frame& frame : frames) {
      const auto encoded = encode_frame(frame);
      bytes.insert(bytes.end(), encoded.begin(), encoded.end());
    }
    return tcp_send_all(fd_, bytes.data(), bytes.size());
  }

  /// Next reply frame; nullopt on EOF, reset or timeout.
  std::optional<Frame> next() {
    for (;;) {
      if (auto frame = frames_.next()) return frame;
      std::uint8_t buf[4096];
      const long n = tcp_recv_some(fd_, buf, sizeof(buf));
      if (n <= 0) return std::nullopt;
      frames_.feed({buf, static_cast<std::size_t>(n)});
    }
  }

  void close() {
    tcp_close(fd_);
    fd_ = -1;
  }

private:
  int fd_;
  FrameBuffer frames_;
};

Frame invoke_frame(std::uint64_t corr, const std::string& object,
                   const std::string& method, const std::string& argument) {
  Invoke body;
  body.seq = corr;
  body.object = object;
  body.method = method;
  body.argument = argument;
  return Frame{corr, std::move(body)};
}

Frame echo_reply(std::uint64_t corr, const std::string& value) {
  return Frame{corr, Answer<Invoke>{runtime::InvokeResult{true, value}}};
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

/// Handler that answers "now" invokes inline on the loop thread and parks
/// every other request's Responder for the test to complete later.
class ParkingHandler {
public:
  NodeServer::Handler handler() {
    return [this](Frame frame, NodeServer::Responder respond) {
      const auto* invoke = std::get_if<Invoke>(&frame.payload);
      if (invoke == nullptr) return;
      if (invoke->argument == "now") {
        respond.send(echo_reply(frame.corr, "now"));
        return;
      }
      {
        std::lock_guard lock{mutex_};
        parked_.emplace_back(frame.corr, std::move(respond));
      }
      cv_.notify_all();
    };
  }

  /// Waits for the next parked request (5 s hang guard).
  std::optional<std::pair<std::uint64_t, NodeServer::Responder>> take() {
    std::unique_lock lock{mutex_};
    if (!cv_.wait_for(lock, 5s, [this] { return !parked_.empty(); })) {
      return std::nullopt;
    }
    auto parked = std::move(parked_.front());
    parked_.erase(parked_.begin());
    return parked;
  }

private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::pair<std::uint64_t, NodeServer::Responder>> parked_;
};

/// Blocks a LiveNode's thread inside a reply callback until release().
class NodeStall {
public:
  explicit NodeStall(runtime::LiveNode& node) {
    std::promise<void> entered;
    std::future<void> inside = entered.get_future();
    std::shared_future<void> gate = gate_.get_future().share();
    runtime::Request<Invoke> stall{
        .body = {.seq = 0, .object = "stall", .method = "get", .argument = ""},
        .reply = runtime::Reply<runtime::InvokeResult>{
            [gate, entered = std::make_shared<std::promise<void>>(
                       std::move(entered))](runtime::InvokeResult) {
              entered->set_value();
              gate.wait();
            }}};
    EXPECT_EQ(node.mailbox().push(std::move(stall)), runtime::PushStatus::Ok);
    inside.wait();
  }
  ~NodeStall() { release(); }
  NodeStall(const NodeStall&) = delete;
  NodeStall& operator=(const NodeStall&) = delete;

  void release() {
    if (!released_) gate_.set_value();
    released_ = true;
  }

private:
  std::promise<void> gate_;
  bool released_ = false;
};

AsyncTcpTransport::Options client_options(std::vector<Peer> peers) {
  AsyncTcpTransport::Options opts;
  opts.peers = std::move(peers);
  opts.max_connect_attempts = 1;
  opts.connect_backoff = 1ms;
  return opts;
}

std::future<runtime::InvokeResult> invoke_over(AsyncTcpTransport& tcp,
                                               std::size_t to,
                                               std::uint64_t seq,
                                               const std::string& argument) {
  Invoke msg;
  msg.seq = seq;
  msg.object = "missing";
  msg.method = "get";
  msg.argument = argument;
  std::future<runtime::InvokeResult> reply;
  EXPECT_EQ(tcp.send(kSender, to, msg, reply), SendStatus::Ok);
  return reply;
}

bool broken(std::future<runtime::InvokeResult>& reply) {
  try {
    (void)reply.get();
    return false;
  } catch (const std::future_error&) {
    return true;
  }
}

TEST(NodeServerDispatch, PipelinedFramesAreAnsweredInSendOrder) {
  const auto factories = runtime::demo_factories();
  runtime::LiveNode node(0, &factories);
  node.start();
  NodeServer server(mailbox_handler(node));
  const std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  RawClient client(port);
  ASSERT_TRUE(client.connected());
  // One write carries the install and 64 increments behind it: the loop
  // decodes them in one burst, so only the mailbox's FIFO keeps order.
  constexpr std::uint64_t kFrames = 64;
  std::vector<Frame> frames;
  Install install;
  install.seq = 1;
  install.name = "c";
  install.state =
      runtime::encode(runtime::ObjectState{"counter", {{"count", "0"}}});
  frames.emplace_back(1, std::move(install));
  for (std::uint64_t i = 1; i <= kFrames; ++i) {
    frames.push_back(invoke_frame(i + 1, "c", "add", "1"));
  }
  ASSERT_TRUE(client.send(frames));

  auto installed = client.next();
  ASSERT_TRUE(installed.has_value());
  EXPECT_EQ(installed->corr, 1u);
  ASSERT_TRUE(std::holds_alternative<Answer<Install>>(installed->payload));
  EXPECT_TRUE(std::get<Answer<Install>>(installed->payload).value);
  for (std::uint64_t i = 1; i <= kFrames; ++i) {
    auto reply = client.next();
    ASSERT_TRUE(reply.has_value()) << "missing reply " << i;
    EXPECT_EQ(reply->corr, i + 1) << "reply out of send order";
    const auto* result = std::get_if<Answer<Invoke>>(&reply->payload);
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->value.ok);
    EXPECT_EQ(result->value.value, std::to_string(i));
  }

  server.stop();
  node.stop();
}

TEST(NodeServerDispatch, ReplyAfterConnectionClosedIsDropped) {
  ParkingHandler parking;
  NodeServer server(parking.handler());
  const std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  const std::size_t fds_idle = open_fd_count();
  auto late = std::make_unique<RawClient>(port);
  ASSERT_TRUE(late->send({invoke_frame(7, "o", "m", "later")}));
  auto parked = parking.take();
  ASSERT_TRUE(parked.has_value());
  // Close the client and wait until the server closed its end too, so
  // the reply below really targets a connection the server forgot.
  late.reset();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (open_fd_count() > fds_idle &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(open_fd_count(), fds_idle) << "server kept the connection";

  parked->second.send(echo_reply(parked->first, "stale"));

  // The server keeps serving, and the stale reply went nowhere.
  RawClient fresh(port);
  ASSERT_TRUE(fresh.send({invoke_frame(8, "o", "m", "now")}));
  auto reply = fresh.next();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->corr, 8u);
  EXPECT_EQ(std::get<Answer<Invoke>>(reply->payload).value.value, "now");
  server.stop();
}

TEST(NodeServerDispatch, ReplyAfterStopIsDropped) {
  net::EventLoop loop;
  loop.start();
  ParkingHandler parking;
  NodeServer server(parking.handler(), &loop);
  const std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  RawClient client(port);
  ASSERT_TRUE(client.send({invoke_frame(3, "o", "m", "later")}));
  auto parked = parking.take();
  ASSERT_TRUE(parked.has_value());
  server.stop();

  parked->second.send(echo_reply(parked->first, "stale"));
  // The client sees the reset, not the reply.
  EXPECT_FALSE(client.next().has_value());
  loop.stop();
}

TEST(NodeServerDispatch, ReplyAfterStopStartCycleIsDropped) {
  ParkingHandler parking;
  NodeServer server(parking.handler());  // owns its loop: one per cycle
  const std::uint16_t first_port = server.start();
  ASSERT_NE(first_port, 0);
  RawClient old_client(first_port);
  ASSERT_TRUE(old_client.send({invoke_frame(6, "o", "m", "later")}));
  auto parked = parking.take();
  ASSERT_TRUE(parked.has_value());
  EXPECT_EQ(parked->first, 6u);

  server.stop();  // destroys the first cycle's loop
  const std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  RawClient client(port);
  ASSERT_TRUE(client.send({invoke_frame(9, "o", "m", "later")}));
  auto current = parking.take();
  ASSERT_TRUE(current.has_value());

  // The stale Responder must not reach the freed loop, nor leak into the
  // new cycle; the current one still answers.
  parked->second.send(echo_reply(parked->first, "stale"));
  current->second.send(echo_reply(current->first, "fresh"));
  auto reply = client.next();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->corr, 9u);
  EXPECT_EQ(std::get<Answer<Invoke>>(reply->payload).value.value, "fresh");
  server.stop();
}

TEST(NodeServerDispatch, ReplyAfterServerDestroyedIsDropped) {
  ParkingHandler parking;
  auto server = std::make_unique<NodeServer>(parking.handler());
  const std::uint16_t port = server->start();
  ASSERT_NE(port, 0);
  RawClient client(port);
  ASSERT_TRUE(client.send({invoke_frame(4, "o", "m", "later")}));
  auto parked = parking.take();
  ASSERT_TRUE(parked.has_value());

  server.reset();
  parked->second.send(echo_reply(parked->first, "stale"));
  EXPECT_FALSE(client.next().has_value());
}

TEST(NodeServerDispatch, CrashWithQueuedWireRequestsSendsNoReply) {
  const auto factories = runtime::demo_factories();
  runtime::LiveNode node(0, &factories);
  node.start();
  NodeServer server(mailbox_handler(node));
  const std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  AsyncTcpTransport tcp(client_options({Peer{"127.0.0.1", port}}), nullptr);

  NodeStall stall(node);
  constexpr std::size_t kQueued = 8;
  std::vector<std::future<runtime::InvokeResult>> replies;
  for (std::size_t i = 0; i < kQueued; ++i) {
    replies.push_back(invoke_over(tcp, 0, i + 1, "queued"));
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (node.mailbox().size() < kQueued &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(node.mailbox().size(), kQueued) << "requests did not queue";

  // crash() discards the queue, then joins the node thread — which is
  // still stalled, so release it once the discard happened.
  std::thread crasher([&node] { node.crash(); });
  while (node.mailbox().size() != 0 || !node.mailbox().closed()) {
    std::this_thread::sleep_for(1ms);
  }
  stall.release();
  crasher.join();

  for (auto& reply : replies) {
    EXPECT_EQ(reply.wait_for(20ms), std::future_status::timeout)
        << "a discarded request was answered";
  }
  // As in LiveSystem::crash_node, the listener dies with the node: the
  // connection reset breaks every pending reply.
  server.stop();
  for (auto& reply : replies) EXPECT_TRUE(broken(reply));
}

TEST(NodeServerDispatch, StalledNodeDoesNotDelayTheOtherServerOnItsLoop) {
  const auto factories = runtime::demo_factories();
  runtime::LiveNode stalled(0, &factories);
  runtime::LiveNode healthy(1, &factories);
  stalled.start();
  healthy.start();
  net::EventLoop loop;
  loop.start();
  NodeServer first(mailbox_handler(stalled), &loop);
  NodeServer second(mailbox_handler(healthy), &loop);
  const std::uint16_t first_port = first.start();
  const std::uint16_t second_port = second.start();
  ASSERT_NE(first_port, 0);
  ASSERT_NE(second_port, 0);
  AsyncTcpTransport tcp(client_options({Peer{"127.0.0.1", first_port},
                                        Peer{"127.0.0.1", second_port}}),
                        nullptr);

  NodeStall stall(stalled);
  std::vector<std::future<runtime::InvokeResult>> blocked;
  for (std::uint64_t i = 0; i < 4; ++i) {
    blocked.push_back(invoke_over(tcp, 0, 100 + i, "blocked"));
  }
  // Every request to the second server completes while the first node is
  // still stalled: the loop both servers share never waits on a node.
  for (std::uint64_t i = 0; i < 16; ++i) {
    auto reply = invoke_over(tcp, 1, 200 + i, "free");
    ASSERT_EQ(reply.wait_for(5s), std::future_status::ready)
        << "second server's reply " << i << " was held up";
    EXPECT_FALSE(reply.get().ok);  // "missing" is not hosted: an answer
  }
  for (auto& reply : blocked) {
    EXPECT_EQ(reply.wait_for(0ms), std::future_status::timeout);
  }

  stall.release();
  for (auto& reply : blocked) {
    ASSERT_EQ(reply.wait_for(5s), std::future_status::ready);
    EXPECT_FALSE(reply.get().ok);
  }
  first.stop();
  second.stop();
  loop.stop();
  stalled.stop();
  healthy.stop();
}

}  // namespace
}  // namespace omig::transport
