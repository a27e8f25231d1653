#include "transport/transport.hpp"

#include <chrono>
#include <thread>
#include <type_traits>

namespace omig::transport {

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

SendStatus InProcTransport::send_request(std::size_t from, std::size_t to,
                                         runtime::Message request) {
  runtime::Mailbox<runtime::Message>* box = mailboxes_(to);
  if (box == nullptr) return SendStatus::Closed;
  const fault::Decision d = decide(from, to);
  if (d.delay > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>{d.delay});
  }
  // Lost in flight: `request` dies here unanswered and the sender
  // observes the loss through its broken reply.
  if (d.drop) return SendStatus::Ok;
  if (d.duplicate) {
    // A same-seq copy with a promise reply nobody awaits.
    (void)box->push(std::visit(
        [](const auto& m) -> runtime::Message {
          using M = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<M, runtime::Shutdown>) {
            return m;
          } else {
            return M{m.body, {}};
          }
        },
        request));
  }
  return box->push(std::move(request)) == runtime::PushStatus::Ok
             ? SendStatus::Ok
             : SendStatus::Closed;
}

SendStatus InProcTransport::send_shutdown(std::size_t to) {
  runtime::Mailbox<runtime::Message>* box = mailboxes_(to);
  if (box == nullptr) return SendStatus::Closed;
  return box->push(runtime::Shutdown{}) == runtime::PushStatus::Ok
             ? SendStatus::Ok
             : SendStatus::Closed;
}

}  // namespace omig::transport
