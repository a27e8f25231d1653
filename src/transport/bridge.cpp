#include "transport/bridge.hpp"

namespace omig::transport {

namespace {

/// A callback reply channel that answers request `corr` with the frame
/// `to_wire` builds from the node's reply value.
template <class T, class ToWire>
runtime::Reply<T> reply_frame(NodeServer::Responder respond,
                              std::uint64_t corr, ToWire to_wire) {
  return runtime::Reply<T>{
      [respond = std::move(respond), corr, to_wire](T value) {
        respond.send(Frame{corr, to_wire(std::move(value))});
      }};
}

}  // namespace

void serve_on_mailbox(runtime::Mailbox<runtime::Message>& mailbox,
                      Frame request, NodeServer::Responder respond) {
  const std::uint64_t corr = request.corr;
  std::visit(
      [&](auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, WireInvoke>) {
          (void)mailbox.push(to_message(
              std::move(body),
              reply_frame<runtime::InvokeResult>(
                  std::move(respond), corr, [](runtime::InvokeResult r) {
                    return WireInvokeReply{std::move(r)};
                  })));
        } else if constexpr (std::is_same_v<T, WireInstall>) {
          (void)mailbox.push(to_message(
              std::move(body),
              reply_frame<bool>(std::move(respond), corr,
                                [](bool ok) { return WireInstallReply{ok}; })));
        } else if constexpr (std::is_same_v<T, WireEvict>) {
          (void)mailbox.push(to_message(
              std::move(body),
              reply_frame<runtime::ObjectState>(
                  std::move(respond), corr, [](runtime::ObjectState s) {
                    return WireEvictReply{std::move(s)};
                  })));
        } else if constexpr (std::is_same_v<T, WireDirLookup>) {
          (void)mailbox.push(to_message(
              std::move(body),
              reply_frame<runtime::DirReply>(
                  std::move(respond), corr, [](runtime::DirReply r) {
                    return WireDirLookupReply{r.found, r.node};
                  })));
        } else if constexpr (std::is_same_v<T, WireDirUpdate>) {
          (void)mailbox.push(to_message(
              std::move(body),
              reply_frame<runtime::DirAck>(
                  std::move(respond), corr, [](runtime::DirAck a) {
                    return WireDirUpdateReply{a.ok};
                  })));
        } else if constexpr (std::is_same_v<T, WireShutdown>) {
          (void)mailbox.push(runtime::Message{runtime::MsgStop{}});
        }
        // Anything else is a reply frame sent to a server: ignore it.
      },
      request.payload);
}

}  // namespace omig::transport
