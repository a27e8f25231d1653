// Transport seam of the live runtime.
//
// Walker et al. (PAPERS.md) argue transmission policy belongs behind a
// clean transport boundary; this is that boundary for the live runtime.
// The system layer (runtime/live_system) hands over a request — one of the
// bodies in runtime/message.hpp — and receives a typed future for its
// reply; *how* the request reaches the hosting node is the backend's
// business, behind one entry point per backend:
//
//   InProcTransport   — the request, with a promise reply, lands in the
//                       destination node's mailbox as it is.
//   TcpTransport      — the body is encoded into a wire frame
//                       (transport/wire) and written to a localhost socket
//                       by the calling thread; one reader thread per peer
//                       matches the reply frame back to the caller's
//                       future by correlation ID. Peers may live in the
//                       same process (NodeServer bridging to a mailbox)
//                       or in separate omig_node processes.
//   AsyncTcpTransport — the same frames and correlation, but every
//                       socket is driven by one net::EventLoop: the caller
//                       encodes, the loop connects, writes and reads.
//
// Fault injection lives at this seam: every send consults the shared
// fault::FaultInjector, so one FaultPlan drives every backend — a drop
// destroys the request, which breaks its reply future (the in-flight loss
// the retry layer observes), delays stall the send, duplicates travel as
// same-seq copies whose replies nobody awaits, and a crashed peer
// manifests as a typed send rejection (closed mailbox / connection reset).
//
// Send failures are explicit: SendStatus tells the retry/backoff layer
// *that* and *why* an endpoint rejected a message, instead of making it
// infer the loss from a broken promise.
#pragma once

#include <cstdint>
#include <functional>
#include <future>

#include "fault/injector.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/message.hpp"
#include "transport/wire.hpp"

namespace omig::transport {

/// Typed verdict of one send attempt. Ok means the message was handed to
/// the endpoint — delivery can still fail asynchronously (injected drop,
/// crash mid-flight), which the caller observes through the reply future.
enum class SendStatus : std::uint8_t {
  Ok = 0,
  Closed,       ///< endpoint rejected it: mailbox closed / connection reset
  Unreachable,  ///< no connection within the reconnect budget
  Oversized,    ///< frame exceeds kMaxFramePayload
};

[[nodiscard]] const char* to_string(SendStatus status);

/// A peer endpoint of the TCP backend.
struct Peer {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

class Transport {
public:
  virtual ~Transport() = default;

  /// Sends a request with body `body` towards node `to`. On SendStatus::Ok
  /// `reply` is armed; it is fulfilled by the peer's answer or broken
  /// (std::future_error) when the message or its node dies. `from` is the
  /// sending node (or the system layer's external-sender sentinel) — it
  /// only feeds the fault injector's link matching.
  template <class Body>
  SendStatus send(std::size_t from, std::size_t to, Body body,
                  std::future<typename Body::Result>& reply) {
    runtime::Request<Body> request{std::move(body), {}};
    reply = request.reply.get_future();
    return send_request(from, to, runtime::Message{std::move(request)});
  }

  /// Fire-and-forget stop request (runtime::Shutdown). No reply: a TCP
  /// peer simply closes the connection.
  virtual SendStatus send_shutdown(std::size_t to) = 0;

  /// Lifecycle notifications from the system layer, so a backend can drop
  /// per-peer state (TCP: reset the connection; in-proc: nothing — the
  /// crashed mailbox itself rejects sends).
  virtual void on_node_crash(std::size_t node) { (void)node; }
  virtual void on_node_restart(std::size_t node) { (void)node; }

protected:
  explicit Transport(fault::FaultInjector* injector) : injector_{injector} {}

  /// The backend's one request path. `request` holds a runtime::Request
  /// (never a Shutdown) with a promise reply whose future the caller
  /// already holds: destroying the request unanswered — an injected drop,
  /// a rejected send, a dead link — is what breaks that future.
  virtual SendStatus send_request(std::size_t from, std::size_t to,
                                  runtime::Message request) = 0;

  /// Per-message verdict from the shared injector (no-fault default).
  [[nodiscard]] fault::Decision decide(std::size_t from, std::size_t to) {
    return injector_ ? injector_->on_message(from, to) : fault::Decision{};
  }

private:
  fault::FaultInjector* injector_;  ///< non-owning; may be null
};

/// Shared surface of the socket-backed backends (blocking TcpTransport,
/// event-loop AsyncTcpTransport): the system layer re-points a peer after
/// a node restarts on a fresh port and reads the reconnect count, without
/// caring which backend sits behind the seam.
class SocketTransport : public Transport {
public:
  /// Re-points a peer (e.g. a node process restarted on a new port) and
  /// resets its connection.
  virtual void set_peer(std::size_t node, Peer peer) = 0;

  /// Connections re-established after a reset (0 on an undisturbed run).
  [[nodiscard]] virtual std::uint64_t reconnects() const = 0;

protected:
  using Transport::Transport;
};

/// The original in-process backend: requests are pushed, promise replies
/// and all, straight into the destination node's mailbox. Mailbox
/// rejections map to SendStatus::Closed.
class InProcTransport final : public Transport {
public:
  /// `mailboxes` resolves a node index to its (possibly crashed) mailbox;
  /// it must stay valid for the transport's lifetime.
  using MailboxLookup =
      std::function<runtime::Mailbox<runtime::Message>*(std::size_t)>;

  InProcTransport(MailboxLookup mailboxes, fault::FaultInjector* injector)
      : Transport{injector}, mailboxes_{std::move(mailboxes)} {}

  SendStatus send_shutdown(std::size_t to) override;

private:
  SendStatus send_request(std::size_t from, std::size_t to,
                          runtime::Message request) override;

  MailboxLookup mailboxes_;
};

}  // namespace omig::transport
