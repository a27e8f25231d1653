// TCP backend of the transport seam: localhost sockets, one connection
// per peer, correlation-ID request/reply matching.
//
// Connection management: connections are opened lazily on first send and
// re-opened after a reset with bounded exponential backoff (the fault
// layer's retry discipline: base doubled per attempt, shift capped). A
// dead link breaks every pending reply — exactly the broken-promise loss
// signal the in-process backend produces — and the next send reconnects.
// A peer crash therefore looks like: send fails (SendStatus::Closed) or
// the reply future breaks, then SendStatus::Unreachable until the peer's
// listener is back.
//
// One reader thread per live connection demultiplexes reply frames back to
// the pending futures by correlation ID. A reply nobody is waiting for
// (an injected duplicate's answer) is discarded; a malformed or
// type-mismatched reply kills the connection — strict, like the codec.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "transport/pending_reply.hpp"
#include "transport/transport.hpp"

namespace omig::transport {

class TcpTransport final : public SocketTransport {
public:
  struct Options {
    /// Peer endpoints, indexed by node id.
    std::vector<Peer> peers;
    /// Connect attempts per send (including the first).
    int max_connect_attempts = 4;
    /// Base reconnect backoff; doubled per attempt, shift capped at 6.
    std::chrono::milliseconds connect_backoff{1};
  };

  TcpTransport(Options options, fault::FaultInjector* injector);
  ~TcpTransport() override;

  SendStatus send_shutdown(std::size_t to) override;

  /// Crash notification: reset the connection so pending replies break now
  /// and later sends observe Closed/Unreachable instead of timing out.
  void on_node_crash(std::size_t node) override;

  /// Re-points a peer (e.g. a node process restarted on a new port).
  void set_peer(std::size_t node, Peer peer) override;

  /// Connections re-established after a reset (0 on an undisturbed run).
  [[nodiscard]] std::uint64_t reconnects() const override {
    return reconnects_.load(std::memory_order_relaxed);
  }

private:
  /// Per-peer link state. `generation` ties a reader thread to the link it
  /// serves: a reader that outlives its link (reset + reconnect won the
  /// race) sees a newer generation and leaves the fresh state alone.
  /// `connecting` elects one sender as the connector; everyone else waits
  /// on `cv` with the mutex *released*, so a peer that is down does not
  /// stall unrelated senders behind a backoff sleep.
  struct Conn {
    std::mutex mutex;
    std::condition_variable cv;  ///< signalled when a connect attempt ends
    Peer peer;
    int fd = -1;
    std::uint64_t generation = 0;
    bool ever_connected = false;
    bool connecting = false;  ///< a sender is mid connect/backoff, unlocked
    std::thread reader;
    std::unordered_map<std::uint64_t, Pending> pending;
    obs::Histogram* rtt = nullptr;  ///< omig_transport_rtt_us{peer="N"}
  };

  SendStatus send_request(std::size_t from, std::size_t to,
                          runtime::Message request) override;

  /// Connects (with backoff) if the link is down; reaps a finished reader
  /// first. `lock` must hold conn.mutex and still holds it on return.
  bool ensure_connected(std::unique_lock<std::mutex>& lock, Conn& conn);
  /// Encodes and writes one frame on the held connection.
  SendStatus write_frame_locked(Conn& conn, const Frame& frame);
  /// Kills the link: wakes the reader, breaks every pending reply.
  void disconnect_locked(Conn& conn);
  void reader_loop(Conn& conn, int fd, std::uint64_t generation);

  Options options_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<std::uint64_t> next_corr_{1};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace omig::transport
