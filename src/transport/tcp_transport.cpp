#include "transport/tcp_transport.hpp"

#include <algorithm>
#include <utility>

#include "obs/families.hpp"
#include "transport/tcp.hpp"

namespace omig::transport {

TcpTransport::TcpTransport(Options options, fault::FaultInjector* injector)
    : SocketTransport{injector}, options_{std::move(options)} {
  conns_.reserve(options_.peers.size());
  for (const Peer& peer : options_.peers) {
    auto conn = std::make_unique<Conn>();
    conn->peer = peer;
    conn->rtt = &obs::MetricsRegistry::global().histogram(
        "omig_transport_rtt_us", "Request-to-reply round trip per peer",
        {{"peer", std::to_string(conns_.size())}});
    conns_.push_back(std::move(conn));
  }
}

TcpTransport::~TcpTransport() {
  stopping_.store(true, std::memory_order_relaxed);
  for (auto& conn : conns_) {
    std::thread reader;
    {
      std::lock_guard lock{conn->mutex};
      disconnect_locked(*conn);
      reader = std::move(conn->reader);
    }
    if (reader.joinable()) reader.join();
  }
}

SendStatus TcpTransport::send_shutdown(std::size_t to) {
  if (to >= conns_.size()) return SendStatus::Unreachable;
  Conn& conn = *conns_[to];
  std::unique_lock lock{conn.mutex};
  if (!ensure_connected(lock, conn)) return SendStatus::Unreachable;
  const std::uint64_t corr =
      next_corr_.fetch_add(1, std::memory_order_relaxed);
  const SendStatus status =
      write_frame_locked(conn, Frame{corr, runtime::Shutdown{}});
  if (status == SendStatus::Closed) disconnect_locked(conn);
  return status;
}

void TcpTransport::on_node_crash(std::size_t node) {
  if (node >= conns_.size()) return;
  std::lock_guard lock{conns_[node]->mutex};
  disconnect_locked(*conns_[node]);
}

void TcpTransport::set_peer(std::size_t node, Peer peer) {
  if (node >= conns_.size()) return;
  std::lock_guard lock{conns_[node]->mutex};
  disconnect_locked(*conns_[node]);
  conns_[node]->peer = std::move(peer);
}

SendStatus TcpTransport::send_request(std::size_t from, std::size_t to,
                                      runtime::Message request) {
  if (to >= conns_.size()) return SendStatus::Unreachable;
  // Same verdict order as the in-process backend: delay, drop, duplicate.
  const fault::Decision verdict = decide(from, to);
  if (verdict.delay > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>{verdict.delay});
  }
  // "Sent", but lost in flight: the request dies here, its reply breaks.
  if (verdict.drop) return SendStatus::Ok;
  Conn& conn = *conns_[to];
  std::unique_lock lock{conn.mutex};
  if (!ensure_connected(lock, conn)) {
    obs::transport_metrics().send_rejections->inc();
    return SendStatus::Unreachable;
  }
  Frame frame{0, take_body(request)};
  if (verdict.duplicate) {
    // Same-seq copy under a fresh correlation ID with no pending entry:
    // the peer's dedup layer answers it, and the answer is discarded.
    frame.corr = next_corr_.fetch_add(1, std::memory_order_relaxed);
    (void)write_frame_locked(conn, frame);
  }
  const std::uint64_t corr =
      next_corr_.fetch_add(1, std::memory_order_relaxed);
  frame.corr = corr;
  conn.pending.emplace(
      corr, Pending{std::move(request), std::chrono::steady_clock::now()});
  const SendStatus status = write_frame_locked(conn, frame);
  if (status == SendStatus::Ok) return SendStatus::Ok;
  if (status == SendStatus::Oversized) {
    conn.pending.erase(corr);  // breaks `reply`; the link stays healthy
    return SendStatus::Oversized;
  }
  // Write hit a dead socket: the link is gone, and so is every reply that
  // was still in flight on it. The next send reconnects.
  disconnect_locked(conn);
  return SendStatus::Closed;
}

bool TcpTransport::ensure_connected(std::unique_lock<std::mutex>& lock,
                                    Conn& conn) {
  for (;;) {
    if (conn.fd >= 0) return true;
    if (stopping_.load(std::memory_order_relaxed)) return false;
    if (conn.reader.joinable() && !conn.connecting) {
      // The old link's reader is finished or about to be; claim the thread
      // object and join it outside the lock (it needs the mutex to exit).
      std::thread dead = std::move(conn.reader);
      lock.unlock();
      dead.join();
      lock.lock();
      continue;  // another sender may have reconnected meanwhile
    }
    if (conn.connecting) {
      // Another sender is mid connect/backoff with the lock released.
      // Wait for its outcome instead of dialling concurrently; if it
      // fails, loop around and run our own bounded attempt budget.
      conn.cv.wait(lock, [&conn] { return conn.fd >= 0 || !conn.connecting; });
      continue;
    }
    break;
  }
  // Idle link and we are the elected connector: dial with bounded
  // exponential backoff, releasing the lock across every sleep and
  // connect(2) so senders to a healthy reconnected link (or ones that
  // will fail fast) never stall behind our backoff.
  conn.connecting = true;
  bool connected = false;
  for (int attempt = 0; attempt < options_.max_connect_attempts; ++attempt) {
    const Peer peer = conn.peer;  // re-read: set_peer may land mid-dial
    lock.unlock();
    if (attempt > 0) {
      const int shift = std::min(attempt - 1, 6);
      std::this_thread::sleep_for(options_.connect_backoff * (1 << shift));
    }
    const int fd = tcp_connect(peer.host, peer.port);
    lock.lock();
    if (stopping_.load(std::memory_order_relaxed)) {
      tcp_close(fd);
      break;
    }
    if (fd < 0) continue;
    if (conn.peer.host != peer.host || conn.peer.port != peer.port) {
      tcp_close(fd);  // peer was re-pointed while we dialled the old one
      continue;
    }
    conn.fd = fd;
    ++conn.generation;
    if (conn.ever_connected) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      obs::transport_metrics().reconnects->inc();
    }
    conn.ever_connected = true;
    const std::uint64_t generation = conn.generation;
    conn.reader = std::thread{
        [this, &conn, fd, generation] { reader_loop(conn, fd, generation); }};
    connected = true;
    break;
  }
  conn.connecting = false;
  conn.cv.notify_all();
  return connected;
}

SendStatus TcpTransport::write_frame_locked(Conn& conn, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  if (bytes.size() - 4 > kMaxFramePayload) {
    obs::transport_metrics().send_rejections->inc();
    return SendStatus::Oversized;
  }
  if (!tcp_send_all(conn.fd, bytes.data(), bytes.size())) {
    obs::transport_metrics().send_rejections->inc();
    return SendStatus::Closed;
  }
  obs::TransportMetrics& m = obs::transport_metrics();
  m.frames_out->inc();
  m.frame_bytes_out->inc(bytes.size());
  return SendStatus::Ok;
}

void TcpTransport::disconnect_locked(Conn& conn) {
  if (conn.fd >= 0) {
    tcp_shutdown(conn.fd);  // wakes the reader; it closes the fd on exit
    conn.fd = -1;
    ++conn.generation;  // anything the old reader still does is stale
  }
  conn.pending.clear();  // destroys the promises: every caller's reply breaks
}

void TcpTransport::reader_loop(Conn& conn, int fd, std::uint64_t generation) {
  FrameBuffer frames;
  std::uint8_t buffer[16 * 1024];
  bool healthy = true;
  while (healthy) {
    const long n = tcp_recv_some(fd, buffer, sizeof(buffer));
    if (n <= 0) break;  // EOF, reset, or shutdown by a disconnect
    obs::transport_metrics().frame_bytes_in->inc(
        static_cast<std::uint64_t>(n));
    frames.feed({buffer, static_cast<std::size_t>(n)});
    while (auto frame = frames.next()) {
      obs::transport_metrics().frames_in->inc();
      std::lock_guard lock{conn.mutex};
      if (conn.generation != generation) {
        healthy = false;  // the link was reset under us; stop touching state
        break;
      }
      const auto it = conn.pending.find(frame->corr);
      if (it == conn.pending.end()) continue;  // a duplicate's answer
      conn.rtt->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - it->second.sent_at)
              .count()));
      const bool matched =
          fulfil_pending(it->second.request, std::move(frame->payload));
      conn.pending.erase(it);
      if (!matched) {
        healthy = false;  // type-confused peer: drop the connection
        break;
      }
    }
    if (frames.error()) healthy = false;  // malformed stream
  }
  {
    std::lock_guard lock{conn.mutex};
    if (conn.generation == generation) {
      conn.fd = -1;
      ++conn.generation;
      conn.pending.clear();
    }
  }
  // The reader owns its fd's close — exactly once, after the link state no
  // longer references it.
  tcp_close(fd);
}

}  // namespace omig::transport
