// Live distributed-object system: the paper's primitives on real threads.
//
// Each node is a thread with a mailbox; objects are property bags with a
// method table, linearised for transfer exactly as the proxies of Section
// 3.1 linearise calls. The system layer implements the directory, the
// fix/attach primitives, raw migration, and move/end blocks under either
// conventional or transient-placement semantics — so the paper's conflict
// scenarios can be reproduced outside the simulator.
//
// All inter-node traffic goes through a transport::Transport
// (docs/transport.md). The default InProc backend delivers straight into
// the node mailboxes; the Tcp backend marshals every request into a wire
// frame and sends it over a localhost socket — either to NodeServers
// bridging back into this process's own nodes, or (remote mode) to
// omig_node processes, which makes the system a cluster coordinator.
//
// Failure model (all off by default; see docs/fault_model.md): a
// FaultPlan perturbs message delivery (drop / delay / duplicate) and
// schedules node crashes. The protocol tolerates this with sequence-
// numbered at-most-once delivery, bounded retries with exponential
// backoff, placement-lock leases (a lock held by a dead move-block
// expires; the object is released in place and callers fall back to
// remote invocation — the paper's conflict fallback generalised to
// failures), and crash-consistent recovery: the directory checkpoints
// each object's linearised state at creation and every migration, and
// reinstalls from the checkpoint when a node restarts or a migration
// pulls an object off a dead node.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "migration/adaptive.hpp"
#include "migration/attachment.hpp"
#include "obs/families.hpp"
#include "objsys/locality.hpp"
#include "objsys/location_cache.hpp"
#include "objsys/sharded_directory.hpp"
#include "runtime/live_node.hpp"
#include "store/store.hpp"
#include "trace/event.hpp"
#include "transport/transport.hpp"

namespace omig::trace {
class TraceLog;
}

namespace omig::net {
class EventLoop;
}

namespace omig::transport {
class NodeServer;
class SocketTransport;
}

namespace omig::runtime {

/// Which backend carries inter-node traffic. When Options::remote_nodes
/// is set, InProc is meaningless and upgrades to Tcp; AsyncTcp is
/// honoured in remote mode too.
enum class TransportKind : std::uint8_t {
  InProc,    ///< promise-carrying messages straight into the mailboxes
  Tcp,       ///< wire frames over localhost sockets, blocking I/O +
             ///< one reader thread per peer (NodeServer per node)
  AsyncTcp,  ///< same wire frames, all I/O multiplexed on one
             ///< net::EventLoop shared by the client side and servers
};

/// Placement policy governing move()/visit() blocks (docs/policies.md).
/// Conventional and Placement are the paper's pair; the adaptive kinds
/// are the feedback-driven re-judgement of claim 3: they treat the
/// requested destination as advisory and decide from the per-object
/// access-locality EMA instead.
enum class MovePolicy : std::uint8_t {
  Conventional,  ///< always migrate to the requested node, no locks
  Placement,     ///< transient placement: conflicting moves are refused
  Adaptive,      ///< migrate toward the EMA-dominant caller, hysteresis-gated
  AdaptiveLoad,  ///< Adaptive plus a per-node hosted-objects load veto
};

[[nodiscard]] const char* to_string(MovePolicy policy);
/// Parses "conventional|placement|adaptive|adaptive-load"; throws
/// std::invalid_argument on anything else.
[[nodiscard]] MovePolicy move_policy_from_string(const std::string& name);

class LiveSystem {
public:
  struct Options {
    std::size_t nodes = 2;
    /// Artificial one-way latency added to remote operations, so examples
    /// show timing effects. Zero = as fast as the threads go.
    std::chrono::microseconds remote_latency{0};
    /// Restrict attachment transitiveness to the alliance a move names.
    bool a_transitive_attachments = false;
    /// move()/visit() semantics. Placement (the default) refuses a
    /// conflicting move instead of stealing the object (Section 3.2); the
    /// adaptive kinds migrate toward the EMA-dominant caller instead of
    /// the requested destination (docs/policies.md).
    MovePolicy policy = MovePolicy::Placement;

    // --- adaptive-policy knobs (docs/policies.md) -------------------------
    /// Migrate only when the dominant node's EMA share leads the host's
    /// share by at least this margin (design decision 9, ARCHITECTURE.md).
    double hysteresis_band = 0.2;
    /// Minimum effective EMA sample size before migrating at all.
    double adaptive_min_weight = 4.0;

    // --- location directory (docs/directory.md) ---------------------------
    /// Central: every lookup reads the coordinator's directory map (the
    /// pre-sharding behaviour). Sharded: object names hash to shard slices
    /// served by the nodes themselves, fronted by per-origin lookup caches
    /// and forwarding hints — lookups become messages, so the protocol's
    /// consistency story is observable end to end. Each node serves one
    /// shard.
    objsys::DirectoryKind directory = objsys::DirectoryKind::Central;
    /// How caches learn about migrations (docs/directory.md).
    objsys::ConsistencyStrategy dir_strategy =
        objsys::ConsistencyStrategy::LazyForward;

    // --- transport --------------------------------------------------------
    /// Backend for inter-node traffic (docs/transport.md).
    TransportKind transport = TransportKind::InProc;
    /// Remote cluster mode: endpoints of already-running omig_node
    /// processes, indexed by node id. Non-empty means this system hosts no
    /// local node threads (`nodes` is ignored) and coordinates the cluster
    /// over TCP.
    std::vector<transport::Peer> remote_nodes;
    /// Optional protocol-event trace, recorded at the directory layer on a
    /// logical clock so the same workload yields the same trace under
    /// every transport backend. Non-owning; must outlive the system.
    trace::TraceLog* trace = nullptr;

    // --- fault tolerance (defaults preserve pre-fault behaviour) ----------
    /// Message faults and crash schedule; empty = nothing is perturbed.
    /// Times in the plan are milliseconds after start().
    fault::FaultPlan fault_plan;
    /// Placement-lock lease: a lock older than this expires and the object
    /// is released in place. Zero = locks never expire (paper semantics).
    std::chrono::milliseconds lock_lease{0};
    /// Retransmission budget per message (a lost message or crashed node
    /// breaks the reply promise; each retry re-sends under the same
    /// sequence number, so delivery stays at-most-once).
    int max_retries = 8;
    /// Base backoff between retries; doubled per attempt (capped).
    std::chrono::milliseconds retry_backoff{1};
    /// Optional reply timeout per delivery attempt; zero = wait forever
    /// (losses are observed through broken promises, not timeouts).
    std::chrono::milliseconds reply_timeout{0};

    // --- durability (docs/durability.md) ----------------------------------
    /// Directory for the coordinator's durable store: a CRC32-framed WAL
    /// plus compacted snapshots recording every object checkpoint,
    /// migration, and lease grant. Empty = in-memory only (pre-durability
    /// behaviour). On start() the store is recovered and every surviving
    /// object is reinstalled on its recorded node; no acked migration is
    /// lost across a coordinator restart.
    std::string data_dir;
  };

  /// Token returned by move()/visit(): carries the placement grant, the
  /// set of objects the block locked, and (for visit) where the moved
  /// objects came from.
  struct MoveToken {
    std::uint64_t id = 0;
    bool granted = false;
    bool visit = false;
    std::vector<std::string> locked;
    std::vector<std::pair<std::string, std::size_t>> origins;
  };

  explicit LiveSystem(Options options);
  ~LiveSystem();
  LiveSystem(const LiveSystem&) = delete;
  LiveSystem& operator=(const LiveSystem&) = delete;

  /// Registers the factory that rebuilds objects of `type` after migration.
  /// Must be called before `start()`.
  void register_type(const std::string& type, ObjectFactory factory);

  /// Starts all node threads and the transport (and the fault schedule, if
  /// any). In remote mode no node threads start — the configured omig_node
  /// processes must already be listening.
  void start();
  /// Stops all node threads (also done by the destructor). Idempotent and
  /// safe to call from several threads concurrently. Remote node processes
  /// are left running — see shutdown_remote_nodes().
  void stop();

  [[nodiscard]] std::size_t node_count() const {
    return remote() ? options_.remote_nodes.size() : nodes_.size();
  }
  /// True when this system coordinates omig_node processes over TCP
  /// instead of hosting its own node threads.
  [[nodiscard]] bool remote() const { return !options_.remote_nodes.empty(); }

  /// Creates an object on `node`. Fails (returns false) on duplicate names
  /// or unknown type.
  bool create(const std::string& name, ObjectState state, std::size_t node);

  /// Current node of an object, or nullopt if unknown.
  [[nodiscard]] std::optional<std::size_t> location(
      const std::string& name) const;

  /// Synchronous invocation from outside any node.
  InvokeResult invoke(const std::string& object, const std::string& method,
                      const std::string& argument);

  /// Synchronous invocation on behalf of code running at `from` — counts
  /// remote statistics and pays the artificial remote latency.
  InvokeResult invoke_from(std::size_t from, const std::string& object,
                           const std::string& method,
                           const std::string& argument);

  // --- the paper's primitives ------------------------------------------------
  void fix(const std::string& name);
  void unfix(const std::string& name);
  [[nodiscard]] bool is_fixed(const std::string& name) const;

  /// attach(a, b) in alliance context `alliance` ("" = no context).
  bool attach(const std::string& a, const std::string& b,
              const std::string& alliance = "");
  bool detach(const std::string& a, const std::string& b);

  /// Raw migrate(): moves `object` and its attachment closure (restricted
  /// to `alliance` when a_transitive_attachments is on) to `dest`. Fixed
  /// objects stay. Returns false if the object is unknown.
  bool migrate(const std::string& object, std::size_t dest,
               const std::string& alliance = "");

  /// move(): under placement, grants and locks, or refuses if a conflicting
  /// move holds the object; under the conventional policy it always
  /// migrates (and the token is always granted, with no locks).
  MoveToken move(const std::string& object, std::size_t dest,
                 const std::string& alliance = "");

  /// visit(): like move(), but end() migrates the moved objects back to
  /// where they came from (paper Section 2.3, call-by-visit).
  MoveToken visit(const std::string& object, std::size_t dest,
                  const std::string& alliance = "");

  /// end(): releases the block's placement locks and, for visit tokens,
  /// migrates the moved objects home.
  void end(MoveToken& token);

  // --- failure injection -----------------------------------------------------
  /// Abruptly kills node `node`: queued messages are destroyed, hosted
  /// object state is lost; under TCP its listener goes down too, so peers
  /// observe connection resets. Locks held by move-blocks that originated
  /// there stay held until their lease expires. In remote mode this only
  /// records the death (kill the process yourself) and resets the
  /// connection. Also driven automatically by the fault plan's crashes.
  void crash_node(std::size_t node);
  /// Restarts a crashed node and reconciles the directory: every object
  /// the directory places there is reinstalled from its last checkpoint.
  /// In remote mode the node process must already be back up (relaunch it
  /// and call set_remote_peer first).
  void restart_node(std::size_t node);
  [[nodiscard]] bool node_up(std::size_t node) const;

  /// Remote mode: re-points `node` at a restarted omig_node process (the
  /// relaunched process owns a fresh port).
  void set_remote_peer(std::size_t node, transport::Peer peer);
  /// Remote mode: asks every remote node process to exit (fire-and-forget).
  void shutdown_remote_nodes();

  // --- statistics -------------------------------------------------------------
  [[nodiscard]] std::uint64_t invocations() const;
  [[nodiscard]] std::uint64_t remote_invocations() const;
  [[nodiscard]] std::uint64_t migrations() const;
  [[nodiscard]] std::uint64_t refused_moves() const;
  // Robustness counters (all zero in a fault-free run).
  [[nodiscard]] std::uint64_t retries() const;
  [[nodiscard]] std::uint64_t lease_expiries() const;
  [[nodiscard]] std::uint64_t crashes() const;
  [[nodiscard]] std::uint64_t restarts() const;
  /// Objects reinstalled from a checkpoint (restart reconciliation or a
  /// migration that pulled an object off a dead node).
  [[nodiscard]] std::uint64_t recoveries() const;
  /// Of recoveries(), those whose checkpoint was backed by the durable
  /// store (fsynced append or disk replay) rather than only coordinator
  /// memory. Zero without Options::data_dir.
  [[nodiscard]] std::uint64_t durable_recoveries() const;
  /// Objects rebuilt from the durable store's WAL/snapshot at start().
  [[nodiscard]] std::uint64_t replayed_objects() const;
  /// The coordinator's durable store, or nullptr without a data_dir.
  [[nodiscard]] const store::DurableStore* store() const {
    return store_.get();
  }
  // Adaptive-policy counters (all zero unless Options::policy is
  // Adaptive/AdaptiveLoad; docs/policies.md).
  /// Migrations the adaptive policy decided to perform.
  [[nodiscard]] std::uint64_t policy_migrations() const;
  /// Candidate moves suppressed by the hysteresis band / min weight.
  [[nodiscard]] std::uint64_t policy_suppressed_hysteresis() const;
  /// Candidate moves vetoed by AdaptiveLoad's hosted-objects cap.
  [[nodiscard]] std::uint64_t policy_suppressed_load() const;
  /// Adaptive migrations that exactly undid the object's previous one.
  [[nodiscard]] std::uint64_t policy_reversals() const;
  /// Locality-EMA updates recorded by invocations.
  [[nodiscard]] std::uint64_t ema_updates() const;

  [[nodiscard]] std::uint64_t dropped_messages() const;
  [[nodiscard]] std::uint64_t duplicated_messages() const;
  /// Messages answered from the nodes' dedup caches.
  [[nodiscard]] std::uint64_t deduplicated_messages() const;
  /// Sends the transport rejected with a typed status (closed mailbox,
  /// connection reset, unreachable peer) — each one fed a retry decision.
  [[nodiscard]] std::uint64_t send_rejections() const;
  /// TCP connections re-established after a reset (0 for in-proc).
  [[nodiscard]] std::uint64_t transport_reconnects() const;

  // Sharded-directory counters (all zero under DirectoryKind::Central).
  /// Location resolutions that went through the sharded protocol.
  [[nodiscard]] std::uint64_t dir_lookups() const;
  /// Resolutions answered by the origin's lookup cache.
  [[nodiscard]] std::uint64_t dir_cache_hits() const;
  /// Cached locations that turned out stale (invoke found no resident
  /// object there) and were invalidated.
  [[nodiscard]] std::uint64_t dir_stale_hits() const;
  /// Forwarding-hint hops chased after stale hits (LazyForward).
  [[nodiscard]] std::uint64_t dir_forward_hops() const;
  /// DirUpdate messages sent: shard-owner updates after creations and
  /// migrations, plus restart re-seeding. Forwarding entries and
  /// self-entries ride on the evict and install instead.
  [[nodiscard]] std::uint64_t dir_updates() const;
  /// Cache entries eagerly invalidated by migrations (EagerInvalidate).
  [[nodiscard]] std::uint64_t dir_invalidations() const;
  /// Resolutions that fell back to the coordinator's central map because
  /// the shard owner was unreachable (crash window before re-seeding).
  [[nodiscard]] std::uint64_t dir_fallbacks() const;
  /// Node serving `name`'s directory shard (Sharded mode, after start()).
  [[nodiscard]] std::size_t directory_shard_owner(
      const std::string& name) const {
    return shard_owner(name);
  }
  /// Where `node`'s directory table points `name` (its shard-slice record,
  /// forwarding entry or self-entry), read with one DirLookup; nullopt when
  /// it has no entry or is unreachable. Does not touch the lookup caches
  /// or the dir_* counters.
  [[nodiscard]] std::optional<std::size_t> directory_entry(
      std::size_t node, const std::string& name);

private:
  struct Meta {
    std::string name;
    std::size_t node = 0;
    bool fixed = false;
    bool in_transit = false;
    std::uint64_t locked_by = 0;  ///< move-token id, 0 = unlocked
    /// Lease deadline for the lock (meaningful while locked_by != 0 and
    /// Options::lock_lease is non-zero).
    std::chrono::steady_clock::time_point lease_expiry{};
    /// Serde blob of the last linearised state the directory has seen (the
    /// creation, or the source's evict reply of the most recent
    /// migration) — the crash-recovery checkpoint.
    util::Bytes checkpoint;
    /// Completed relocations of this object (location-history cursor;
    /// persisted in the store's checkpoint records).
    std::uint64_t moves = 0;
    /// The checkpoint is backed by the durable store — a fsynced WAL
    /// append or a recovery replay — so restart reconciliation counts its
    /// reinstall as a durable recovery, not just an in-memory one.
    bool durable = false;
    /// Set while in transit when restart reconciliation had to skip the
    /// object: its host restarted (so the object may be gone from there),
    /// or its shard owner re-seeded its slice without it. end_transit()
    /// reinstalls or republishes before the transit ends.
    bool host_restarted = false;
    bool owner_restarted = false;
  };

  /// Sender id for messages not originating at any node (external clients,
  /// directory operations). Matches only wildcard fault rules.
  static constexpr std::size_t kExternalSender =
      static_cast<std::size_t>(-2);

  /// One member of a cluster hop: an object and the node it moves to.
  using Move = std::pair<objsys::ObjectId, std::size_t>;

  /// One request of a request_batch(): its link and body, and once the
  /// batch returns its reply — nullopt when none came within the budget.
  template <class Body>
  struct Outbound {
    std::size_t from = 0;
    std::size_t to = 0;
    Body body;
    std::optional<typename Body::Result> result{};
    // Retry state of the attempt in flight.
    std::future<typename Body::Result> reply{};
    bool sent = false;  ///< the transport accepted the attempt
    bool done = false;  ///< answered, or stopped by a rejected send
  };

  // These four require `mutex_`, which also guards the attachment graph's
  // traversal scratch. An unknown or failed-create name has no live id.
  [[nodiscard]] objsys::ObjectId id_of_locked(const std::string& name) const;
  Meta& meta_locked(objsys::ObjectId id);
  /// Assigned on first use; "" is no alliance.
  objsys::AllianceId alliance_locked(const std::string& name);
  /// The simulator's cluster rule (AttachmentGraph::cluster).
  [[nodiscard]] std::vector<objsys::ObjectId> closure_locked(
      objsys::ObjectId id, const std::string& alliance);

  /// Claims a batch for relocate() (requires `lock` on `mutex_`). Waits
  /// until no member of `moves` is in transit while holding none of them
  /// — so movers of overlapping closures never each hold what the other
  /// waits for — then marks in transit every member that is not fixed
  /// and, with `skip_resident`, not already at its destination. Returns
  /// the claimed members; `block` tags their MigrationStart events.
  std::vector<Move> claim_locked(std::unique_lock<std::mutex>& lock,
                                 const std::vector<Move>& moves,
                                 std::uint64_t block, bool skip_resident);

  /// Physically relocates each claimed member to its destination, as one
  /// cluster hop: every evict is sent before any reply is awaited, then
  /// every install before any ack, then every owner update
  /// (docs/directory.md § "The owner update comes before the transit
  /// ends").
  void relocate(const std::vector<Move>& moves);

  InvokeResult invoke_impl(std::optional<std::size_t> from,
                           const std::string& object,
                           const std::string& method,
                           const std::string& argument);

  /// True when the transport accepted the send; a typed rejection is
  /// counted and the caller retries (the peer may come back).
  bool sent_ok(transport::SendStatus status);

  /// Waits for a reply future, until `deadline` when Options::reply_timeout
  /// is set. nullopt = the message (or its processing node) died — retry.
  template <class T>
  std::optional<T> await_reply(std::future<T>& reply,
                               std::chrono::steady_clock::time_point deadline);

  /// Sleeps the exponential-backoff delay for retry `attempt` (>= 1).
  void backoff(int attempt);
  /// Every retransmission goes through here: counts `resent` of them in
  /// retries() and omig_runtime_retries_total, then backs off once.
  void retry(int attempt, std::uint64_t resent);

  /// The one retry loop. Sends every request of `batch` before awaiting
  /// any reply, then re-sends only the unanswered ones — the same body,
  /// same seq, so delivery stays at-most-once — each up to
  /// Options::max_retries times, one backoff per round. A typed send
  /// rejection is retried as well (the node may restart within the
  /// budget) unless `stop_on_reject`, which ends that request's attempts.
  template <class Body>
  void request_batch(std::span<Outbound<Body>> batch,
                     bool stop_on_reject = false);
  /// request_batch() of one request; nullopt = no reply within the budget.
  template <class Body>
  std::optional<typename Body::Result> request(std::size_t from,
                                               std::size_t to, Body body);

  /// An Install of serde blob `state` as `name` under a fresh sequence
  /// number.
  Install install_msg(const std::string& name, const util::Bytes& state);
  /// Installs serde blob `state` as `name` on `node` with bounded retries
  /// under one sequence number. Returns false if the node stayed
  /// unreachable or refused the install.
  bool install_with_retry(std::size_t node, const std::string& name,
                          const util::Bytes& state, std::size_t from);

  /// True once any fault machinery is active (injector, crash calls);
  /// gates the bounded-retry deviations from pre-fault behaviour.
  [[nodiscard]] bool faults_active() const;

  /// Releases every placement lock held by `token` (requires `mutex_`).
  void expire_lease(std::uint64_t token);
  /// True if `meta`'s lock lease has expired (requires `mutex_`).
  [[nodiscard]] bool lease_expired(const Meta& meta) const;

  /// True when Options::policy is one of the adaptive kinds.
  [[nodiscard]] bool adaptive_policy() const {
    return options_.policy == MovePolicy::Adaptive ||
           options_.policy == MovePolicy::AdaptiveLoad;
  }
  /// Feeds `object`'s locality EMA with one access from `from` (requires
  /// `mutex_`). No-op unless the policy is adaptive.
  void record_locality_locked(objsys::ObjectId id, std::size_t from);
  /// Where the shared adaptive decision (migration/adaptive.hpp) sends
  /// `id`'s block, or its host (requires `mutex_`). Counts the verdict.
  [[nodiscard]] std::size_t adaptive_target_locked(
      objsys::ObjectId id, const std::string& alliance);

  /// Records a protocol event on the logical clock (requires `mutex_`).
  /// No-op without Options::trace. Pass an invalid `object`, kExternalSender
  /// as `node` and 0 as `block` for events without that operand.
  void trace_locked(trace::EventKind kind, objsys::ObjectId object,
                    std::size_t node, std::uint64_t block = 0);

  /// Replays the fault plan's crash schedule on wall-clock time.
  void run_fault_schedule();

  // --- sharded directory (DirectoryKind::Sharded) ------------------------
  [[nodiscard]] bool sharded() const {
    return options_.directory == objsys::DirectoryKind::Sharded;
  }
  /// Node serving the shard an object name hashes to (FNV-1a: stable
  /// across processes); each node serves one shard.
  [[nodiscard]] std::size_t shard_owner(const std::string& name) const;
  /// Cache index for an origin (kExternalSender maps to the extra slot).
  [[nodiscard]] std::size_t cache_slot(
      std::optional<std::size_t> from) const {
    return from.value_or(node_count());
  }
  /// A DirUpdate publishing `name -> node`, counted in dir_updates().
  /// Best-effort: an unreachable target just stays stale — the resolve
  /// path tolerates that.
  DirUpdate dir_update_msg(const std::string& name, std::size_t node);
  /// One directory lookup served by `target`; nullopt = unreachable.
  std::optional<DirReply> dir_lookup(std::size_t from, std::size_t target,
                                     const std::string& name);
  /// Resolves an object's node through cache -> forwarding chase -> shard
  /// owner -> central-map fallback. `stale` names a node an invoke just
  /// found empty, triggering invalidation and a hint chase from there.
  std::size_t resolve_sharded(std::optional<std::size_t> from,
                              objsys::ObjectId id, const std::string& object,
                              std::optional<std::size_t> stale);
  /// `name -> host` after an install at host (a migration, or a
  /// creation). The evict leaves the source's forwarding entry and the
  /// install the host's self-entry; `owner_written` says that one of them
  /// is known to have reached the shard owner.
  struct Publication {
    objsys::ObjectId id;
    std::string name;
    std::size_t host = 0;
    bool owner_written = false;
  };
  /// Finishes publishing each entry of `moved`: every shard owner not yet
  /// written gets a DirUpdate, all sent before any ack is awaited. Caches
  /// are eagerly invalidated when configured. Callers keep the objects in
  /// transit until this returns.
  void dir_publish(const std::vector<Publication>& moved);
  /// Ends the transit of `id`, now at `host`, after repairing what a
  /// restart during the transit skipped (Meta::host_restarted,
  /// Meta::owner_restarted).
  void end_transit(objsys::ObjectId id, std::size_t host);
  /// Re-seeds a restarted node's shard slice from the central map. Each
  /// entry is written while the object is held in transit, so no
  /// migration's owner update can be overtaken by a stale re-seed; objects
  /// already in transit are left to their migration.
  void dir_reseed_node(std::size_t node);

  /// Rebuilds the directory from the recovered store and reinstalls every
  /// surviving object on its recorded node (start() with a data_dir).
  void recover_from_store();

  Options options_;
  std::unordered_map<std::string, ObjectFactory> factories_;
  std::vector<std::unique_ptr<LiveNode>> nodes_;
  bool started_ = false;

  mutable std::mutex mutex_;
  std::condition_variable transit_cv_;
  /// Name -> dense id, assigned at first create() (or store recovery) and
  /// kept for good; the id is also the trace and locality key.
  std::unordered_map<std::string, objsys::ObjectId> ids_;
  util::DenseTable<objsys::ObjectId, Meta> directory_;
  migration::AttachmentGraph attachments_;
  std::unordered_map<std::string, objsys::AllianceId> alliances_;
  std::vector<char> node_down_;  ///< guarded by mutex_
  std::vector<std::uint64_t> node_restarts_;  ///< per node; guarded by mutex_
  std::uint64_t next_token_ = 1;
  std::uint64_t trace_clock_ = 0;  ///< guarded by mutex_

  /// Access-locality telemetry (docs/policies.md); null unless the policy
  /// is adaptive. Guarded by mutex_, as is the decision's reversal state.
  std::unique_ptr<objsys::LocalityTracker> locality_;
  migration::AdaptiveDecider adaptive_;
  /// Cached obs family ("adaptive" / "adaptive-load"); set in start().
  std::optional<obs::PolicyMetrics> policy_obs_;

  /// Per-origin lookup caches (node_count() + 1 entries; the last one
  /// serves external senders). Pointers because the caches hold mutexes.
  std::vector<std::unique_ptr<objsys::LocationCache>> caches_;

  std::unique_ptr<fault::FaultInjector> injector_;
  /// Coordinator-level durable store (Options::data_dir); null = in-memory.
  std::unique_ptr<store::DurableStore> store_;
  /// Shared proactor loop in AsyncTcp mode (null otherwise). Declared
  /// before the servers and the transport so it destructs after them —
  /// their teardown posts final tasks onto it.
  std::unique_ptr<net::EventLoop> net_loop_;
  /// One frame server per local node in TCP mode (empty otherwise).
  std::vector<std::unique_ptr<transport::NodeServer>> servers_;
  std::unique_ptr<transport::Transport> transport_;
  /// transport_, when it is a socket backend (blocking or async).
  transport::SocketTransport* tcp_ = nullptr;

  std::mutex stop_mutex_;
  std::thread fault_thread_;
  std::mutex fault_mutex_;
  std::condition_variable fault_cv_;
  bool shutting_down_ = false;

  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> invocations_{0};
  std::atomic<std::uint64_t> remote_{0};
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> lease_expiries_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> durable_recoveries_{0};
  std::atomic<std::uint64_t> replayed_objects_{0};
  std::atomic<std::uint64_t> send_rejections_{0};
  std::atomic<std::uint64_t> dir_lookups_{0};
  std::atomic<std::uint64_t> dir_cache_hits_{0};
  std::atomic<std::uint64_t> dir_stale_hits_{0};
  std::atomic<std::uint64_t> dir_hops_{0};
  std::atomic<std::uint64_t> dir_updates_{0};
  std::atomic<std::uint64_t> dir_invalidations_{0};
  std::atomic<std::uint64_t> dir_fallbacks_{0};
  std::atomic<std::uint64_t> policy_migrations_{0};
  std::atomic<std::uint64_t> policy_suppressed_hysteresis_{0};
  std::atomic<std::uint64_t> policy_suppressed_load_{0};
  std::atomic<std::uint64_t> policy_reversals_{0};
  std::atomic<std::uint64_t> ema_updates_{0};
};

}  // namespace omig::runtime
