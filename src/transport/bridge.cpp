#include "transport/bridge.hpp"

#include <future>

namespace omig::transport {

namespace {

/// Pushes `message` and waits for its reply value. nullopt when the push
/// was rejected or the promise broke (node crashed mid-processing).
template <class T>
std::optional<T> push_and_await(runtime::Mailbox<runtime::Message>& mailbox,
                                runtime::Message message,
                                std::future<T> reply) {
  if (mailbox.push(std::move(message)) != runtime::PushStatus::Ok) {
    return std::nullopt;
  }
  try {
    return reply.get();
  } catch (const std::future_error&) {
    return std::nullopt;  // discarded by a crash before processing
  }
}

}  // namespace

std::optional<Frame> serve_on_mailbox(
    runtime::Mailbox<runtime::Message>& mailbox, Frame request) {
  const std::uint64_t corr = request.corr;
  return std::visit(
      [&](auto& body) -> std::optional<Frame> {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, WireInvoke>) {
          runtime::MsgInvoke msg;
          msg.object = std::move(body.object);
          msg.method = std::move(body.method);
          msg.argument = std::move(body.argument);
          msg.seq = body.seq;
          auto reply = msg.reply.get_future();
          auto result = push_and_await(
              mailbox, runtime::Message{std::move(msg)}, std::move(reply));
          if (!result.has_value()) return std::nullopt;
          return Frame{corr, WireInvokeReply{std::move(*result)}};
        } else if constexpr (std::is_same_v<T, WireInstall>) {
          runtime::MsgInstall msg;
          msg.name = std::move(body.name);
          msg.state = std::move(body.state);
          msg.seq = body.seq;
          msg.self_entry = body.self_entry;
          auto reply = msg.done.get_future();
          auto result = push_and_await(
              mailbox, runtime::Message{std::move(msg)}, std::move(reply));
          if (!result.has_value()) return std::nullopt;
          return Frame{corr, WireInstallReply{*result}};
        } else if constexpr (std::is_same_v<T, WireEvict>) {
          runtime::MsgEvict msg;
          msg.name = std::move(body.name);
          msg.seq = body.seq;
          msg.forward_to = body.forward_to;
          auto reply = msg.state.get_future();
          auto result = push_and_await(
              mailbox, runtime::Message{std::move(msg)}, std::move(reply));
          if (!result.has_value()) return std::nullopt;
          return Frame{corr, WireEvictReply{std::move(*result)}};
        } else if constexpr (std::is_same_v<T, WireDirLookup>) {
          runtime::MsgDirLookup msg;
          msg.name = std::move(body.name);
          msg.seq = body.seq;
          auto reply = msg.reply.get_future();
          auto result = push_and_await(
              mailbox, runtime::Message{std::move(msg)}, std::move(reply));
          if (!result.has_value()) return std::nullopt;
          return Frame{corr, WireDirLookupReply{result->found, result->node}};
        } else if constexpr (std::is_same_v<T, WireDirUpdate>) {
          runtime::MsgDirUpdate msg;
          msg.name = std::move(body.name);
          msg.node = body.node;
          msg.invalidate = body.invalidate;
          msg.seq = body.seq;
          auto reply = msg.done.get_future();
          auto result = push_and_await(
              mailbox, runtime::Message{std::move(msg)}, std::move(reply));
          if (!result.has_value()) return std::nullopt;
          return Frame{corr, WireDirUpdateReply{result->ok}};
        } else if constexpr (std::is_same_v<T, WireShutdown>) {
          (void)mailbox.push(runtime::Message{runtime::MsgStop{}});
          return std::nullopt;
        } else {
          return std::nullopt;  // a reply frame sent to a server: ignore
        }
      },
      request.payload);
}

}  // namespace omig::transport
