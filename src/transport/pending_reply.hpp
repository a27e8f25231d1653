// Correlation-ID reply matching, shared by the socket transports.
//
// A request sent over a socket leaves its body on the wire and parks the
// rest of its runtime::Message — the Reply channel — keyed by its
// correlation ID; the peer's Answer frame is matched back by ID and must
// answer the request's own body type. Both the blocking TcpTransport (one
// demux thread per connection) and AsyncTcpTransport (one demux coroutine
// per connection) use this table — the demux logic is identical, only the
// execution model differs.
#pragma once

#include <chrono>
#include <type_traits>
#include <utility>
#include <variant>

#include "runtime/message.hpp"
#include "transport/wire.hpp"

namespace omig::transport {

/// A reply someone awaits, stamped at send time so the demux can record
/// the request/reply round trip into the peer's RTT histogram.
struct Pending {
  runtime::Message request;  ///< body already taken; only `reply` is live
  std::chrono::steady_clock::time_point sent_at;
};

/// Moves the body of `message` into a frame payload, leaving the message
/// holding just its reply channel.
inline Frame::Payload take_body(runtime::Message& message) {
  return std::visit(
      [](auto& m) -> Frame::Payload {
        if constexpr (std::is_same_v<std::decay_t<decltype(m)>,
                                     runtime::Shutdown>) {
          return m;
        } else {
          return std::move(m.body);
        }
      },
      message);
}

/// Fulfils a pending request from a reply frame's payload. Returns false
/// when the payload is not the Answer to that request's body type — a
/// protocol violation that costs the peer its connection (the request's
/// reply then breaks as the entry is erased).
inline bool fulfil_pending(runtime::Message& request,
                           Frame::Payload&& payload) {
  return std::visit(
      [&payload](auto& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, runtime::Shutdown>) {
          return false;  // never parked: a shutdown has no reply
        } else {
          auto* answer = std::get_if<Answer<typename M::Body>>(&payload);
          if (answer == nullptr) return false;
          m.reply.set_value(std::move(answer->value));
          return true;
        }
      },
      request);
}

}  // namespace omig::transport
