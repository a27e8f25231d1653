#include "transport/node_server.hpp"

#include <utility>

#include "obs/families.hpp"
#include "transport/tcp.hpp"
#include "util/assert.hpp"

namespace omig::transport {

NodeServer::NodeServer(Handler handler, net::EventLoop* loop)
    : handler_{std::move(handler)}, external_loop_{loop} {
  OMIG_REQUIRE(handler_ != nullptr, "server needs a handler");
}

NodeServer::~NodeServer() { stop(); }

std::uint16_t NodeServer::start(std::uint16_t port, const std::string& host) {
  std::lock_guard lock{mutex_};
  if (listener_fd_ >= 0) return port_;  // already running: idempotent
  // Big backlog: the async client side can dial thousands of connections
  // in one burst (the kernel clamps to somaxconn).
  const int fd = tcp_listen(host, port, 4096);
  if (fd < 0) return 0;
  if (!tcp_set_nonblocking(fd)) {
    tcp_close(fd);
    return 0;
  }
  listener_fd_ = fd;
  port_ = tcp_local_port(fd);
  stopping_.store(false, std::memory_order_release);
  if (external_loop_ != nullptr) {
    loop_ = external_loop_;
  } else {
    // Loops are single-use, so every start() cycle owns a fresh one.
    owned_loop_ = std::make_unique<net::EventLoop>();
    owned_loop_->start();
    loop_ = owned_loop_.get();
  }
  // A fresh route per cycle: Responders of an earlier cycle stay disarmed.
  route_ = std::make_shared<Route>();
  route_->server = this;
  route_->loop = loop_;
  loop_->post([this, fd] { loop_->spawn(accept_task(this, fd)); });
  return port_;
}

void NodeServer::stop() {
  std::lock_guard lock{mutex_};
  if (listener_fd_ < 0) return;  // already stopped: idempotent
  stopping_.store(true, std::memory_order_release);
  // Disarm first: a reply completed from here on is dropped by its
  // Responder, and one posted before is dropped when it reaches the loop,
  // so nothing can reach this server (or an owned loop) after stop().
  {
    std::lock_guard route_lock{route_->mutex};
    route_->server = nullptr;
    route_->loop = nullptr;
  }
  const int listener = listener_fd_;
  if (loop_->running()) {
    std::promise<void> done;
    std::future<void> finished = done.get_future();
    loop_->post([this, listener, &done] {
      loop_->spawn(teardown_task(this, listener, &done));
    });
    (void)finished.wait_for(std::chrono::seconds{5});
  } else {
    tcp_close(listener);  // external loop died first; just free the fd
  }
  listener_fd_ = -1;
  if (owned_loop_) {
    owned_loop_->stop();
    owned_loop_.reset();
  }
  loop_ = nullptr;
}

bool NodeServer::running() const {
  std::lock_guard lock{mutex_};
  return listener_fd_ >= 0 && !stopping_.load(std::memory_order_acquire);
}

std::uint16_t NodeServer::port() const {
  std::lock_guard lock{mutex_};
  return port_;
}

sim::Task NodeServer::accept_task(NodeServer* s, int listener) {
  TaskGuard guard{s};
  net::EventLoop& loop = *s->loop_;
  for (;;) {
    const bool ok = co_await loop.readable(listener);
    if (!ok || s->stopping_.load(std::memory_order_acquire)) co_return;
    for (;;) {  // drain the whole accept burst before sleeping again
      const int fd = static_cast<int>(tcp_accept_nonblocking(listener));
      if (fd == kWouldBlock) break;
      if (fd < 0) co_return;  // listener is gone
      auto conn = std::make_shared<Conn>(loop, s->next_conn_id_++);
      conn->fd = fd;
      s->conns_.emplace(conn->id, conn);
      loop.spawn(reader_task(s, conn));
      loop.spawn(writer_task(s, conn));
    }
  }
}

sim::Task NodeServer::reader_task(NodeServer* s, std::shared_ptr<Conn> conn) {
  TaskGuard guard{s};
  net::EventLoop& loop = *s->loop_;
  FrameBuffer frames;
  for (;;) {
    const bool ok = co_await loop.readable(conn->fd);
    if (!ok || conn->closed) co_return;
    if (s->read_scratch_.empty()) s->read_scratch_.resize(16 * 1024);
    const long n = tcp_read_some(conn->fd, s->read_scratch_.data(),
                                 s->read_scratch_.size());
    if (n == kWouldBlock) continue;
    if (n <= 0) {  // EOF, reset, or malformed close below
      s->close_conn(*conn);
      co_return;
    }
    obs::node_metrics().server_bytes_in->inc(static_cast<std::uint64_t>(n));
    frames.feed({s->read_scratch_.data(), static_cast<std::size_t>(n)});
    while (auto frame = frames.next()) {
      s->handler_(std::move(*frame), Responder{s->route_, conn->id});
    }
    if (frames.error()) {  // malformed stream: drop the connection
      s->close_conn(*conn);
      co_return;
    }
  }
}

sim::Task NodeServer::writer_task(NodeServer* s, std::shared_ptr<Conn> conn) {
  TaskGuard guard{s};
  net::EventLoop& loop = *s->loop_;
  for (;;) {
    while (!conn->closed && conn->outq.empty()) {
      if (!co_await conn->out_ready.wait()) co_return;
    }
    if (conn->closed) co_return;
    const std::vector<std::uint8_t>& front = conn->outq.front();
    const long n = tcp_write_some(conn->fd, front.data() + conn->out_off,
                                  front.size() - conn->out_off);
    if (n == kWouldBlock) {
      const bool ok = co_await loop.writable(conn->fd);
      if (!ok || conn->closed) co_return;
      continue;
    }
    if (n <= 0) {
      s->close_conn(*conn);
      co_return;
    }
    conn->out_off += static_cast<std::size_t>(n);
    if (conn->out_off == front.size()) {
      obs::node_metrics().server_bytes_out->inc(front.size());
      conn->outq.pop_front();
      conn->out_off = 0;
    }
  }
}

sim::Task NodeServer::teardown_task(NodeServer* s, int listener,
                                    std::promise<void>* done) {
  net::EventLoop& loop = *s->loop_;
  loop.cancel_fd(listener);
  tcp_close(listener);
  // Snapshot: close_conn erases from conns_ while we iterate.
  std::vector<std::shared_ptr<Conn>> open;
  open.reserve(s->conns_.size());
  for (auto& [id, conn] : s->conns_) open.push_back(conn);
  for (auto& conn : open) s->close_conn(*conn);
  for (int i = 0; i < 4000 && s->live_tasks_ > 0; ++i) {
    co_await loop.sleep_for(std::chrono::milliseconds{1});
  }
  done->set_value();
}

void NodeServer::Responder::send(const Frame& reply) const {
  std::vector<std::uint8_t> bytes = encode_frame(reply);
  std::lock_guard lock{route_->mutex};
  if (route_->server == nullptr) return;  // stopped: stale reply
  if (route_->loop->on_loop_thread()) {
    route_->server->queue_reply_on_loop(conn_id_, std::move(bytes));
    return;
  }
  route_->loop->post(
      [route = route_, conn_id = conn_id_, bytes = std::move(bytes)]() mutable {
        std::lock_guard lock{route->mutex};
        if (route->server == nullptr) return;  // stop() ran since the post
        route->server->queue_reply_on_loop(conn_id, std::move(bytes));
      });
}

void NodeServer::queue_reply_on_loop(std::uint64_t conn_id,
                                     std::vector<std::uint8_t> bytes) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // connection died while the handler ran
  it->second->outq.push_back(std::move(bytes));
  it->second->out_ready.set();
}

void NodeServer::close_conn(Conn& conn) {
  if (conn.closed) return;
  conn.closed = true;
  if (conn.fd >= 0) {
    loop_->cancel_fd(conn.fd);
    tcp_close(conn.fd);
    conn.fd = -1;
  }
  conn.out_ready.cancel();
  conns_.erase(conn.id);  // shared_ptr keeps it alive for its coroutines
}

}  // namespace omig::transport
