// Messages exchanged between live-runtime nodes.
//
// The live runtime (src/runtime/) is the beyond-paper counterpart of the
// simulator: the same primitives (invoke, migrate, move/end with placement,
// attachments) running on real threads with real mailboxes. Objects are
// linearised into an ObjectState for transfer, exactly as Section 3.1
// describes proxies linearising calls and objects.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>

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

  friend bool operator==(const InvokeResult&, const InvokeResult&) = default;
};

/// Synchronous method invocation, answered through `reply`.
///
/// `seq` identifies the logical request: a retransmission (after a lost
/// message or a crashed node) reuses the seq of the original, and the
/// receiving node deduplicates — the method body runs at most once, the
/// duplicate is answered from a bounded reply cache. seq 0 disables
/// deduplication (single-delivery fast path).
struct MsgInvoke {
  std::string object;
  std::string method;
  std::string argument;
  std::uint64_t seq = 0;
  Reply<InvokeResult> reply;
};

/// Installs a (migrated or new) object on the receiving node. Idempotent
/// per seq: a duplicate install of the same (name, seq) is acknowledged
/// without rebuilding the object. With `self_entry` (sharded directory
/// only) a successful install also records `name -> this node` in the
/// node's directory table, so the new host needs no separate DirUpdate.
struct MsgInstall {
  std::string name;
  ObjectState state;
  std::uint64_t seq = 0;
  bool self_entry = false;
  Reply<bool> done;
};

/// Evicts an object: the node linearises it, removes it, and replies with
/// the state (empty type on failure). Idempotent per seq: a duplicate
/// evict replies with the state captured by the first delivery. With
/// `forward_to` (sharded directory only) the node also records the
/// forwarding entry `name -> *forward_to` in its directory table.
struct MsgEvict {
  std::string name;
  std::uint64_t seq = 0;
  std::optional<std::uint64_t> forward_to;
  Reply<ObjectState> state;
};

/// Answer to a directory lookup: whether this node has an entry for the
/// object (shard-slice record or forwarding hint), and where it points.
struct DirReply {
  bool found = false;
  std::uint64_t node = 0;

  friend bool operator==(const DirReply&, const DirReply&) = default;
};

/// Acknowledgement of a directory update.
struct DirAck {
  bool ok = false;

  friend bool operator==(const DirAck&, const DirAck&) = default;
};

/// Asks this node for its directory entry for `name` — it answers from its
/// shard slice / forwarding hints (DirectoryKind::Sharded only,
/// docs/directory.md). Read-only and idempotent; seq is carried for
/// symmetry with the other requests but needs no dedup.
struct MsgDirLookup {
  std::string name;
  std::uint64_t seq = 0;
  Reply<DirReply> reply;
};

/// Installs (or, with `invalidate`, drops) this node's directory entry for
/// `name`. Idempotent: the update carries the absolute new value.
struct MsgDirUpdate {
  std::string name;
  std::uint64_t node = 0;
  bool invalidate = false;
  std::uint64_t seq = 0;
  Reply<DirAck> done;
};

/// Stops the node's event loop.
struct MsgStop {};

using Message = std::variant<MsgInvoke, MsgInstall, MsgEvict, MsgDirLookup,
                             MsgDirUpdate, MsgStop>;

}  // namespace omig::runtime
