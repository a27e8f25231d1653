// Bridges wire frames onto a live node's mailbox.
//
// The server side of the socket backends: a request frame's body becomes
// a runtime::Request — the same body, with a callback reply channel in
// place of a promise — and is pushed into the mailbox. The call returns at
// once; when the node thread answers, the callback sends the Answer frame
// quoting the request's correlation ID through the Responder. Node
// semantics — at-most-once dedup, reply caches, crash behaviour — stay in
// LiveNode; the bridge only translates.
#pragma once

#include "runtime/mailbox.hpp"
#include "runtime/message.hpp"
#include "transport/node_server.hpp"
#include "transport/wire.hpp"

namespace omig::transport {

/// Pushes one request frame into `mailbox` without waiting; `respond`
/// later receives the reply frame from the node thread. Nothing is sent
/// for a rejected push (mailbox closed), a message discarded by a crash,
/// a fire-and-forget Shutdown, or a nonsensical frame (a reply sent to a
/// server) — the caller's loss signal in those cases is the connection
/// reset.
void serve_on_mailbox(runtime::Mailbox<runtime::Message>& mailbox,
                      Frame request, NodeServer::Responder respond);

}  // namespace omig::transport
