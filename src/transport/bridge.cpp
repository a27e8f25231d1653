#include "transport/bridge.hpp"

#include <type_traits>

namespace omig::transport {

void serve_on_mailbox(runtime::Mailbox<runtime::Message>& mailbox,
                      Frame request, NodeServer::Responder respond) {
  std::visit(
      [&](auto& body) {
        using B = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<B, runtime::Shutdown>) {
          (void)mailbox.push(body);
        } else if constexpr (requires { typename B::Result; }) {
          // The node answers through a callback that sends the Answer
          // frame quoting the request's correlation ID.
          using Result = typename B::Result;
          runtime::Reply<Result> reply{
              [respond = std::move(respond), corr = request.corr](
                  Result value) {
                respond.send(Frame{corr, Answer<B>{std::move(value)}});
              }};
          (void)mailbox.push(
              runtime::Request<B>{std::move(body), std::move(reply)});
        }
        // Anything else is an Answer sent to a server: ignore it.
      },
      request.payload);
}

}  // namespace omig::transport
