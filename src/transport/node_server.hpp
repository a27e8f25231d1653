// Frame server for one live node, driven by a net::EventLoop.
//
// Listens on a loopback port, reassembles request frames from each
// connection (transport/wire) and hands them to a handler together with a
// Responder; whatever reply frame the Responder is given is written back
// on the same connection.
//
// Execution model: all socket I/O — accept, read, write — runs as
// coroutines on one event loop (owned, or shared with the rest of the
// process via the constructor), so ten thousand idle connections cost
// ten thousand fds and some heap, not ten thousand blocked threads. The
// handler runs inline on the loop thread and must not block: the mailbox
// bridge (transport/bridge) pushes the request into the node's mailbox
// and returns. The node thread later answers through the Responder, which
// encodes the reply frame there and posts it to the loop (or queues it
// directly when called on the loop thread). A request therefore costs
// four thread handoffs — client, loop, node, loop, client — and frames on
// one connection are answered in order because the node's mailbox is
// FIFO.
//
// Responders outlive their connection, stop() and the server itself: each
// start() cycle shares one lock-guarded reply route with the Responders it
// hands out, and stop() disarms it, so a reply completed late is dropped
// without touching the server, its loop or a closed connection.
//
// A malformed frame closes the connection (a byte stream that lost framing
// cannot be resynchronised), and stop() closes everything, which is how a
// node crash becomes a connection reset on the wire.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "transport/wire.hpp"

namespace omig::transport {

class NodeServer {
  struct Route;

public:
  /// Sends the reply to one request frame. Copyable, callable from any
  /// thread, at most once per request; a Responder that is never called
  /// sends nothing (fire-and-forget request, or the node died first — the
  /// caller's loss signal is then the connection reset).
  class Responder {
  public:
    void send(const Frame& reply) const;

  private:
    friend class NodeServer;
    Responder(std::shared_ptr<Route> route, std::uint64_t conn_id)
        : route_{std::move(route)}, conn_id_{conn_id} {}
    std::shared_ptr<Route> route_;
    std::uint64_t conn_id_;
  };

  /// Accepts one request on the loop thread; must not block.
  using Handler = std::function<void(Frame, Responder)>;

  /// `loop` = nullptr: the server owns a private loop (one per start()
  /// cycle — loops are single-use). Otherwise all I/O runs on the given
  /// loop, which must outlive the server and keep running across stop().
  explicit NodeServer(Handler handler, net::EventLoop* loop = nullptr);
  ~NodeServer();
  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  /// Binds `host:port` (0 = ephemeral) and starts accepting. Returns the
  /// bound port, or 0 on failure. No-op (returns the bound port) if
  /// already running.
  std::uint16_t start(std::uint16_t port = 0,
                      const std::string& host = "127.0.0.1");

  /// Disarms the reply route, closes the listener and every connection,
  /// then quiesces the loop tasks. Requests still in the node are not
  /// cancelled; their replies are dropped. Idempotent; start() may be
  /// called again afterwards.
  void stop();

  [[nodiscard]] bool running() const;
  /// Port of the current (or, after stop(), the last) listener.
  [[nodiscard]] std::uint16_t port() const;

private:
  /// Where one start() cycle's replies go. `server` and `loop` are null
  /// once stop() disarmed it; a Responder reads them only under `mutex`.
  struct Route {
    std::mutex mutex;
    NodeServer* server = nullptr;
    net::EventLoop* loop = nullptr;
  };

  /// Per-connection state. Loop-thread only. Held by shared_ptr so the
  /// reader/writer coroutines of a connection that just closed can still
  /// observe `closed` instead of a dangling pointer.
  struct Conn {
    Conn(net::EventLoop& loop, std::uint64_t id_)
        : id(id_), out_ready(loop) {}
    std::uint64_t id;
    int fd = -1;
    bool closed = false;
    std::deque<std::vector<std::uint8_t>> outq;
    std::size_t out_off = 0;
    net::Event out_ready;
  };

  static sim::Task accept_task(NodeServer* s, int listener);
  static sim::Task reader_task(NodeServer* s, std::shared_ptr<Conn> conn);
  static sim::Task writer_task(NodeServer* s, std::shared_ptr<Conn> conn);
  static sim::Task teardown_task(NodeServer* s, int listener,
                                 std::promise<void>* done);

  /// Loop thread: appends reply bytes to the connection's output queue
  /// (dropped silently if the connection closed meanwhile).
  void queue_reply_on_loop(std::uint64_t conn_id,
                           std::vector<std::uint8_t> bytes);
  /// Loop thread: closes the fd, wakes and detaches both coroutines,
  /// forgets the connection.
  void close_conn(Conn& conn);

  Handler handler_;
  net::EventLoop* const external_loop_;

  mutable std::mutex mutex_;  ///< control plane: start/stop/port
  std::unique_ptr<net::EventLoop> owned_loop_;
  net::EventLoop* loop_ = nullptr;  ///< non-null while running
  std::shared_ptr<Route> route_;    ///< this cycle's; replaced by start()
  int listener_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  // Loop-thread only:
  std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t live_tasks_ = 0;
  std::vector<std::uint8_t> read_scratch_;

  struct TaskGuard {
    explicit TaskGuard(NodeServer* s) : s_(s) { ++s_->live_tasks_; }
    ~TaskGuard() { --s_->live_tasks_; }
    TaskGuard(const TaskGuard&) = delete;
    TaskGuard& operator=(const TaskGuard&) = delete;

  private:
    NodeServer* s_;
  };
};

}  // namespace omig::transport
