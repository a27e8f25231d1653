#include "transport/transport.hpp"

#include <chrono>
#include <thread>

namespace omig::transport {

namespace {

/// Rebuilds the runtime message for a wire request with a promise reply
/// whose future lands in `reply`. With `reply` null the promise is
/// deliberately unawaited — that is how injected duplicates travel.
template <class WireT, class T>
runtime::Message promise_message(const WireT& w, std::future<T>* reply) {
  runtime::Reply<T> channel;
  if (reply) *reply = channel.get_future();
  return to_message(WireT{w}, std::move(channel));
}

}  // namespace

const char* to_string(SendStatus status) {
  switch (status) {
    case SendStatus::Ok:
      return "ok";
    case SendStatus::Closed:
      return "closed";
    case SendStatus::Unreachable:
      return "unreachable";
    case SendStatus::Oversized:
      return "oversized";
  }
  return "unknown";
}

template <class WireT, class ReplyT>
SendStatus InProcTransport::send_request(std::size_t from, std::size_t to,
                                         const WireT& msg,
                                         std::future<ReplyT>& reply) {
  runtime::Mailbox<runtime::Message>* box = mailboxes_(to);
  if (box == nullptr) return SendStatus::Closed;
  const fault::Decision d = decide(from, to);
  if (d.delay > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>{d.delay});
  }
  if (d.drop) {
    // Lost in flight: the sender observes the loss through the broken
    // reply, exactly as when the message object was destroyed pre-seam.
    break_reply(reply);
    return SendStatus::Ok;
  }
  if (d.duplicate) {
    (void)box->push(
        promise_message(msg, static_cast<std::future<ReplyT>*>(nullptr)));
  }
  const runtime::PushStatus pushed = box->push(promise_message(msg, &reply));
  return pushed == runtime::PushStatus::Ok ? SendStatus::Ok
                                           : SendStatus::Closed;
}

SendStatus InProcTransport::send_invoke(
    std::size_t from, std::size_t to, const WireInvoke& msg,
    std::future<runtime::InvokeResult>& reply) {
  return send_request(from, to, msg, reply);
}

SendStatus InProcTransport::send_install(std::size_t from, std::size_t to,
                                         const WireInstall& msg,
                                         std::future<bool>& reply) {
  return send_request(from, to, msg, reply);
}

SendStatus InProcTransport::send_evict(
    std::size_t from, std::size_t to, const WireEvict& msg,
    std::future<runtime::ObjectState>& reply) {
  return send_request(from, to, msg, reply);
}

SendStatus InProcTransport::send_dir_lookup(
    std::size_t from, std::size_t to, const WireDirLookup& msg,
    std::future<runtime::DirReply>& reply) {
  return send_request(from, to, msg, reply);
}

SendStatus InProcTransport::send_dir_update(
    std::size_t from, std::size_t to, const WireDirUpdate& msg,
    std::future<runtime::DirAck>& reply) {
  return send_request(from, to, msg, reply);
}

SendStatus InProcTransport::send_shutdown(std::size_t to) {
  runtime::Mailbox<runtime::Message>* box = mailboxes_(to);
  if (box == nullptr) return SendStatus::Closed;
  return box->push(runtime::Message{runtime::MsgStop{}}) ==
                 runtime::PushStatus::Ok
             ? SendStatus::Ok
             : SendStatus::Closed;
}

}  // namespace omig::transport
