// Messages exchanged between live-runtime nodes.
//
// The live runtime (src/runtime/) is the beyond-paper counterpart of the
// simulator: the same primitives (invoke, migrate, move/end with placement,
// attachments) running on real threads with real mailboxes. Objects are
// linearised for transfer, exactly as Section 3.1 describes proxies
// linearising calls and objects: once at the source, into the serde blob
// of their ObjectState (runtime/serde), which crosses untouched until the
// destination rebuilds it once.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <variant>

#include "util/byte_codec.hpp"

namespace omig::runtime {

/// One-shot reply channel of a request message, written by the node thread
/// that handles it.
///
/// Default-constructed it is a promise: the sender awaits get_future(),
/// and destroying the message unanswered (a crash discarding the mailbox,
/// a rejected push) breaks that future. Constructed from a callback it
/// has no future: set_value() runs the callback on the setting thread —
/// how a request that arrived over the wire sends its reply frame without
/// a thread parked on a future — and destroying it unanswered sends
/// nothing. Either way a second set_value() throws
/// std::future_errc::promise_already_satisfied.
template <class T>
class Reply {
public:
  using Callback = std::function<void(T)>;

  Reply() = default;
  explicit Reply(Callback on_value)
      : channel_{std::in_place_index<1>, std::move(on_value)} {}

  /// Promise mode only (std::bad_variant_access on a callback reply).
  std::future<T> get_future() { return std::get<0>(channel_).get_future(); }

  void set_value(T value) {
    if (auto* promise = std::get_if<0>(&channel_)) {
      promise->set_value(std::move(value));
      return;
    }
    Callback on_value = std::exchange(std::get<1>(channel_), nullptr);
    if (!on_value) {
      throw std::future_error{std::future_errc::promise_already_satisfied};
    }
    on_value(std::move(value));
  }

private:
  std::variant<std::promise<T>, Callback> channel_;
};

/// Linearised object: its type tag plus a string property bag. The type tag
/// selects the factory that rebuilds behaviour at the destination node.
struct ObjectState {
  std::string type;
  std::unordered_map<std::string, std::string> fields;

  friend bool operator==(const ObjectState&, const ObjectState&) = default;
};

/// Result of an invocation: either a payload or an error description.
struct InvokeResult {
  bool ok = false;
  std::string value;  ///< payload on success, error text on failure

  static auto fields(auto& self) { return std::tie(self.ok, self.value); }
  friend bool operator==(const InvokeResult&, const InvokeResult&) = default;
};

/// Answer to a directory lookup: whether this node has an entry for the
/// object (shard-slice record or forwarding hint), and where it points.
struct DirReply {
  bool found = false;
  std::uint64_t node = 0;

  static auto fields(auto& self) { return std::tie(self.found, self.node); }
  friend bool operator==(const DirReply&, const DirReply&) = default;
};

/// Acknowledgement of a directory update.
struct DirAck {
  bool ok = false;

  static auto fields(auto& self) { return std::tie(self.ok); }
  friend bool operator==(const DirAck&, const DirAck&) = default;
};

// --- request bodies ---------------------------------------------------------
//
// Each request is defined once, here, and travels in this form everywhere:
// inside a mailbox (wrapped in a Request with its reply channel) and on the
// wire (transport/wire). `Result` names the reply type; `fields` lists the
// members in wire order, which is all the frame codec needs to encode and
// decode the body.
//
// `seq` identifies the logical request: a retransmission (after a lost
// message or a crashed node) reuses the seq of the original, and the
// receiving node deduplicates. seq 0 disables deduplication.

/// Synchronous method invocation. The method body runs at most once per
/// seq; a duplicate is answered from a bounded reply cache.
struct Invoke {
  using Result = InvokeResult;
  std::uint64_t seq = 0;
  std::string object;
  std::string method;
  std::string argument;

  static auto fields(auto& self) {
    return std::tie(self.seq, self.object, self.method, self.argument);
  }
  friend bool operator==(const Invoke&, const Invoke&) = default;
};

/// Installs a (migrated or new) object on the receiving node; the reply
/// says whether it was installed — false for a blob that does not decode
/// or names an unknown type. Idempotent per seq: a duplicate install of
/// the same (name, seq) is acknowledged without rebuilding the object.
/// With `self_entry` (sharded directory only) a successful install also
/// records `name -> this node` in the node's directory table, so the new
/// host needs no separate DirUpdate.
struct Install {
  using Result = bool;
  std::uint64_t seq = 0;
  std::string name;
  util::Bytes state;  ///< serde blob of the object's ObjectState
  bool self_entry = false;

  static auto fields(auto& self) {
    return std::tie(self.seq, self.name, self.state, self.self_entry);
  }
  friend bool operator==(const Install&, const Install&) = default;
};

/// Evicts an object: the node linearises it, removes it, and replies with
/// the serde blob of its state (an empty blob on failure). Idempotent per
/// seq: a duplicate evict replies with the bytes of the first delivery.
/// With `forward_to` (sharded directory only) the node also records the
/// forwarding entry `name -> *forward_to` in its directory table.
struct Evict {
  using Result = util::Bytes;
  std::uint64_t seq = 0;
  std::string name;
  std::optional<std::uint64_t> forward_to;

  static auto fields(auto& self) {
    return std::tie(self.seq, self.name, self.forward_to);
  }
  friend bool operator==(const Evict&, const Evict&) = default;
};

/// Asks this node for its directory entry for `name` — it answers from its
/// shard slice / forwarding hints (DirectoryKind::Sharded only,
/// docs/directory.md). Read-only and idempotent; seq is carried for
/// symmetry with the other requests but needs no dedup.
struct DirLookup {
  using Result = DirReply;
  std::uint64_t seq = 0;
  std::string name;

  static auto fields(auto& self) { return std::tie(self.seq, self.name); }
  friend bool operator==(const DirLookup&, const DirLookup&) = default;
};

/// Installs this node's directory entry for `name`: shard-slice updates
/// after a migration and restart re-seeding use the same message.
/// Idempotent: the update carries the absolute new value.
struct DirUpdate {
  using Result = DirAck;
  std::uint64_t seq = 0;
  std::string name;
  std::uint64_t node = 0;

  static auto fields(auto& self) {
    return std::tie(self.seq, self.name, self.node);
  }
  friend bool operator==(const DirUpdate&, const DirUpdate&) = default;
};

/// Stops the node's event loop. Fire-and-forget: no reply (over the wire
/// the peer closes the connection instead).
struct Shutdown {
  static auto fields(auto&) { return std::tie(); }
  friend bool operator==(const Shutdown&, const Shutdown&) = default;
};

/// A request body plus the channel its reply goes back through.
template <class B>
struct Request {
  using Body = B;
  B body;
  Reply<typename B::Result> reply;
};

/// What a node's mailbox carries.
using Message = std::variant<Request<Invoke>, Request<Install>,
                             Request<Evict>, Request<DirLookup>,
                             Request<DirUpdate>, Shutdown>;

}  // namespace omig::runtime
