#include "runtime/live_system.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/families.hpp"
#include "runtime/serde.hpp"
#include "trace/log.hpp"
#include "transport/bridge.hpp"
#include "transport/node_server.hpp"
#include "transport/async_tcp_transport.hpp"
#include "transport/tcp_transport.hpp"
#include "util/assert.hpp"

namespace omig::runtime {

namespace {
/// Per-access EMA retention factor of the locality tracker
/// (docs/policies.md).
constexpr double kEmaDecay = 0.9;
/// AdaptiveLoad: veto migrations into a node whose hosted-object count
/// would exceed this multiple of the per-node mean.
constexpr double kLoadFactor = 2.0;
/// Cache-entry lifetime under ConsistencyStrategy::LeaseTtl.
constexpr std::uint64_t kDirLeaseTtlMs = 50;
/// Auto-compact the durable store after this many WAL appends.
constexpr std::uint64_t kStoreCompactEvery = 256;

/// Wall-clock microseconds since `start`, for the latency histograms.
std::uint64_t us_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

/// Monotonic milliseconds, the stamp the lease-TTL strategy ages by.
std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The id `name` has in `index`, assigned as the next one on first use.
template <class Id>
Id intern(std::unordered_map<std::string, Id>& index, const std::string& name) {
  return index.try_emplace(name, static_cast<std::uint32_t>(index.size()))
      .first->second;
}

/// `ids` as relocate() batch members (LiveSystem::Move) bound for `dest`.
std::vector<std::pair<objsys::ObjectId, std::size_t>> bound_for(
    const std::vector<objsys::ObjectId>& ids, std::size_t dest) {
  std::vector<std::pair<objsys::ObjectId, std::size_t>> moves;
  moves.reserve(ids.size());
  for (const objsys::ObjectId id : ids) moves.emplace_back(id, dest);
  return moves;
}
}  // namespace

const char* to_string(MovePolicy policy) {
  switch (policy) {
    case MovePolicy::Conventional: return "conventional";
    case MovePolicy::Placement: return "placement";
    case MovePolicy::Adaptive: return "adaptive";
    case MovePolicy::AdaptiveLoad: return "adaptive-load";
  }
  return "?";
}

MovePolicy move_policy_from_string(const std::string& name) {
  if (name == "conventional") return MovePolicy::Conventional;
  if (name == "placement") return MovePolicy::Placement;
  if (name == "adaptive") return MovePolicy::Adaptive;
  if (name == "adaptive-load") return MovePolicy::AdaptiveLoad;
  throw std::invalid_argument{
      "unknown move policy '" + name +
      "' (expected conventional|placement|adaptive|adaptive-load)"};
}

LiveSystem::LiveSystem(Options options) : options_{std::move(options)} {
  OMIG_REQUIRE(options_.nodes >= 1 || remote(), "need at least one node");
  OMIG_REQUIRE(options_.max_retries >= 0, "max_retries must be >= 0");
}

LiveSystem::~LiveSystem() { stop(); }

void LiveSystem::register_type(const std::string& type,
                               ObjectFactory factory) {
  OMIG_REQUIRE(!started_, "register types before start()");
  factories_[type] = std::move(factory);
}

void LiveSystem::start() {
  OMIG_REQUIRE(!started_, "system already started");
  const std::size_t count =
      remote() ? options_.remote_nodes.size() : options_.nodes;
  for (const fault::CrashEvent& crash : options_.fault_plan.crashes) {
    OMIG_REQUIRE(crash.node < count,
                 "crash schedule names a node outside the system");
  }
  if (!remote()) {
    nodes_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      nodes_.push_back(std::make_unique<LiveNode>(i, &factories_));
      nodes_.back()->start();
    }
  }
  node_down_.assign(count, 0);
  node_restarts_.assign(count, 0);
  if (sharded()) {
    // One lookup cache per origin; the extra slot serves external callers.
    caches_.clear();
    caches_.reserve(count + 1);
    for (std::size_t i = 0; i <= count; ++i) {
      caches_.push_back(std::make_unique<objsys::LocationCache>());
    }
  }
  if (!options_.fault_plan.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(options_.fault_plan);
  }
  if (adaptive_policy()) {
    locality_ =
        std::make_unique<objsys::LocalityTracker>(count, kEmaDecay);
    policy_obs_ = obs::policy_metrics(to_string(options_.policy));
  }

  // All inter-node traffic goes through one transport; faults inject at
  // this seam, so the same FaultPlan drives every backend identically.
  if (remote() || options_.transport != TransportKind::InProc) {
    const bool async = options_.transport == TransportKind::AsyncTcp;
    if (async) {
      // One proactor loop carries the whole process: every NodeServer's
      // accept/read/write and the client transport's connections.
      net_loop_ = std::make_unique<net::EventLoop>();
      net_loop_->start();
    }
    std::vector<transport::Peer> peers;
    if (remote()) {
      peers = options_.remote_nodes;
    } else {
      // Local TCP: every node gets a loopback frame server bridging onto
      // its mailbox, and traffic takes the full marshalling round trip.
      servers_.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        Mailbox<Message>& box = nodes_[i]->mailbox();
        servers_.push_back(std::make_unique<transport::NodeServer>(
            [&box](transport::Frame frame,
                   transport::NodeServer::Responder respond) {
              transport::serve_on_mailbox(box, std::move(frame),
                                          std::move(respond));
            },
            net_loop_.get()));
        const std::uint16_t port = servers_.back()->start();
        OMIG_REQUIRE(port != 0, "could not bind a loopback listener");
        peers.push_back(transport::Peer{"127.0.0.1", port});
      }
    }
    if (async) {
      transport::AsyncTcpTransport::Options topts;
      topts.peers = std::move(peers);
      topts.loop = net_loop_.get();
      auto tcp = std::make_unique<transport::AsyncTcpTransport>(
          std::move(topts), injector_.get());
      tcp_ = tcp.get();
      transport_ = std::move(tcp);
    } else {
      transport::TcpTransport::Options topts;
      topts.peers = std::move(peers);
      auto tcp = std::make_unique<transport::TcpTransport>(std::move(topts),
                                                           injector_.get());
      tcp_ = tcp.get();
      transport_ = std::move(tcp);
    }
  } else {
    transport_ = std::make_unique<transport::InProcTransport>(
        [this](std::size_t to) {
          return to < nodes_.size() ? &nodes_[to]->mailbox() : nullptr;
        },
        injector_.get());
  }

  if (!options_.data_dir.empty()) {
    // The coordinator's own store. Its identity for disk-fault rules is
    // kExternalSender: wildcard rules reach it, rules naming a concrete
    // node target only that node's store.
    store_ = std::make_unique<store::DurableStore>();
    store::DurableStore::OpenOptions sopts;
    sopts.dir = options_.data_dir;
    sopts.compact_every = kStoreCompactEvery;
    sopts.injector = injector_.get();
    sopts.node = kExternalSender;
    OMIG_REQUIRE(store_->open(std::move(sopts)),
                 "could not open the data-dir store");
    recover_from_store();
  }

  started_ = true;
  if (!options_.fault_plan.crashes.empty()) {
    fault_thread_ = std::thread{[this] { run_fault_schedule(); }};
  }
}

void LiveSystem::recover_from_store() {
  for (const auto& [name, obj] : store_->view()) {
    if (obj.state.empty()) continue;  // location knowledge only, no state
    // Input read from disk: check it before it becomes a checkpoint.
    const auto state = decode(obj.state);
    if (!state.has_value() || !factories_.contains(state->type)) continue;
    const auto node = static_cast<std::size_t>(obj.node);
    if (node >= node_count()) continue;
    objsys::ObjectId id;
    {
      std::lock_guard lock{mutex_};
      id = intern(ids_, name);
      directory_[id] = Meta{.name = name, .node = node,
                            .checkpoint = obj.state, .moves = obj.cursor,
                            .durable = true};
    }
    if (install_with_retry(node, name, obj.state, kExternalSender)) {
      replayed_objects_.fetch_add(1, std::memory_order_relaxed);
      if (sharded()) {
        dir_publish({{id, name, node, shard_owner(name) == node}});
      }
    }
  }
}

void LiveSystem::stop() {
  std::lock_guard stop_lock{stop_mutex_};
  {
    std::lock_guard lock{fault_mutex_};
    shutting_down_ = true;
  }
  fault_cv_.notify_all();
  if (fault_thread_.joinable()) fault_thread_.join();
  for (auto& node : nodes_) node->stop();
  // Servers after nodes: the requests a node drains on stop() can still
  // send their replies; any completed later are dropped by the server.
  for (auto& server : servers_) server->stop();
  // Final compaction: fold the WAL into one snapshot so the next start()
  // recovers from a single file. Best-effort — a dead store skips it.
  if (store_ != nullptr) (void)store_->compact();
}

void LiveSystem::run_fault_schedule() {
  using Clock = std::chrono::steady_clock;
  struct Event {
    Clock::time_point at;
    std::size_t node;
    bool up;
  };
  const Clock::time_point t0 = Clock::now();
  auto after = [&](double millis) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>{millis});
  };
  std::vector<Event> schedule;
  for (const fault::CrashEvent& crash : options_.fault_plan.crashes) {
    schedule.push_back({after(crash.at), crash.node, false});
    if (crash.restarts()) {
      schedule.push_back({after(crash.at + crash.restart_after), crash.node,
                          true});
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Event& a, const Event& b) { return a.at < b.at; });
  std::unique_lock lock{fault_mutex_};
  for (const Event& event : schedule) {
    if (fault_cv_.wait_until(lock, event.at, [&] { return shutting_down_; })) {
      return;  // system is stopping: abandon the rest of the schedule
    }
    lock.unlock();
    if (event.up) {
      restart_node(event.node);
    } else {
      crash_node(event.node);
    }
    lock.lock();
  }
}

bool LiveSystem::sent_ok(transport::SendStatus status) {
  if (status == transport::SendStatus::Ok) return true;
  // The endpoint rejected the message outright (closed mailbox, connection
  // reset, unreachable peer): no delivery was attempted, so the retry
  // layer can count the rejection instead of inferring it from a broken
  // promise.
  send_rejections_.fetch_add(1, std::memory_order_relaxed);
  obs::runtime_metrics().send_rejections->inc();
  return false;
}

template <class T>
std::optional<T> LiveSystem::await_reply(
    std::future<T>& reply, std::chrono::steady_clock::time_point deadline) {
  try {
    if (options_.reply_timeout.count() > 0) {
      if (reply.wait_until(deadline) != std::future_status::ready) {
        return std::nullopt;
      }
    }
    return reply.get();
  } catch (const std::future_error&) {
    // The message died unprocessed — dropped by the injector, discarded by
    // a crash, or lost with a connection reset.
    return std::nullopt;
  }
}

template <class Body>
void LiveSystem::request_batch(std::span<Outbound<Body>> batch,
                               bool stop_on_reject) {
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    std::uint64_t open = 0;
    for (const Outbound<Body>& out : batch) open += out.done ? 0 : 1;
    if (open == 0) return;
    if (attempt > 0) retry(attempt, open);
    // Every open request is in flight before any reply is awaited.
    for (Outbound<Body>& out : batch) {
      if (out.done) continue;
      out.sent = sent_ok(transport_->send(out.from, out.to, out.body,
                                          out.reply));
      // A rejected send means the node is down; it may restart within the
      // retry budget.
      if (!out.sent && stop_on_reject) out.done = true;
    }
    // Each reply gets at least Options::reply_timeout after the last send.
    const auto deadline =
        options_.reply_timeout.count() > 0
            ? std::chrono::steady_clock::now() + options_.reply_timeout
            : std::chrono::steady_clock::time_point{};
    for (Outbound<Body>& out : batch) {
      if (out.done || !out.sent) continue;
      out.result = await_reply(out.reply, deadline);
      out.done = out.result.has_value();
    }
  }
}

template <class Body>
std::optional<typename Body::Result> LiveSystem::request(std::size_t from,
                                                         std::size_t to,
                                                         Body body) {
  Outbound<Body> one{.from = from, .to = to, .body = std::move(body)};
  request_batch(std::span{&one, 1});
  return std::move(one.result);
}

void LiveSystem::retry(int attempt, std::uint64_t resent) {
  retries_.fetch_add(resent, std::memory_order_relaxed);
  obs::runtime_metrics().retries->inc(resent);
  backoff(attempt);
}

void LiveSystem::backoff(int attempt) {
  if (options_.retry_backoff.count() <= 0) return;
  const int shift = std::min(attempt - 1, 6);
  std::this_thread::sleep_for(options_.retry_backoff * (1 << shift));
}

bool LiveSystem::faults_active() const {
  return injector_ != nullptr ||
         crashes_.load(std::memory_order_relaxed) > 0;
}

Install LiveSystem::install_msg(const std::string& name,
                                const util::Bytes& state) {
  // The new host records its own self-entry as it installs, so forwarding
  // chases that reach it terminate without a separate DirUpdate.
  return Install{.seq = next_seq_.fetch_add(1, std::memory_order_relaxed),
                 .name = name,
                 .state = state,
                 .self_entry = sharded()};
}

bool LiveSystem::install_with_retry(std::size_t node, const std::string& name,
                                    const util::Bytes& state,
                                    std::size_t from) {
  return request(from, node, install_msg(name, state)).value_or(false);
}

bool LiveSystem::create(const std::string& name, ObjectState state,
                        std::size_t node) {
  OMIG_REQUIRE(started_, "start() the system first");
  OMIG_REQUIRE(node < node_count(), "node index out of range");
  if (!factories_.contains(state.type)) return false;
  // Linearised once: the install, the checkpoint and the store append all
  // carry these bytes.
  const util::Bytes blob = encode(state);
  objsys::ObjectId id;
  {
    std::lock_guard lock{mutex_};
    id = intern(ids_, name);
    auto [meta, inserted] = directory_.try_emplace(id);
    if (!inserted) return false;
    meta.name = name;
    meta.node = node;
    meta.checkpoint = blob;  // creation-time recovery checkpoint
    trace_locked(trace::EventKind::ReplicaCreated, id, node);
  }
  const bool ok = install_with_retry(node, name, blob, kExternalSender);
  if (!ok) {
    // Free the slot and any attachment made while the install ran.
    std::lock_guard lock{mutex_};
    for (const objsys::ObjectId peer : attachments_.closure(id)) {
      attachments_.detach(id, peer);
    }
    directory_.erase(id);
    return false;
  }
  // The install left the host's self-entry; seed the shard owner's slice
  // too when another node serves it.
  if (sharded()) {
    dir_publish({{id, name, node, shard_owner(name) == node}});
  }
  if (store_ != nullptr) {
    // Persist the creation checkpoint; only a fsynced append upgrades the
    // entry to durable (an injected fsync failure leaves it in-memory).
    const auto outcome = store_->checkpoint(name, node, 0, blob);
    if (outcome.durable) {
      std::lock_guard lock{mutex_};
      if (Meta* meta = directory_.find(id)) meta->durable = true;
    }
  }
  return true;
}

std::optional<std::size_t> LiveSystem::location(
    const std::string& name) const {
  std::lock_guard lock{mutex_};
  const objsys::ObjectId id = id_of_locked(name);
  if (!id.valid()) return std::nullopt;
  return directory_.find(id)->node;
}

InvokeResult LiveSystem::invoke(const std::string& object,
                                const std::string& method,
                                const std::string& argument) {
  return invoke_impl(std::nullopt, object, method, argument);
}

InvokeResult LiveSystem::invoke_from(std::size_t from,
                                     const std::string& object,
                                     const std::string& method,
                                     const std::string& argument) {
  return invoke_impl(from, object, method, argument);
}

InvokeResult LiveSystem::invoke_impl(std::optional<std::size_t> from,
                                     const std::string& object,
                                     const std::string& method,
                                     const std::string& argument) {
  OMIG_REQUIRE(started_, "start() the system first");
  const auto wall_start = std::chrono::steady_clock::now();
  // Rounds spent on "object not resident". Fault-free this loops only while
  // a migration races the delivery; under faults a recovering object may
  // stay non-resident for a while, so the loop is bounded then.
  int stale_rounds = 0;
  constexpr int kMaxStaleRounds = 64;
  // Sharded mode: a node the previous round found empty — the resolve
  // path invalidates its cache entry and chases the forwarding hints.
  std::optional<std::size_t> stale;
  // The locality EMA counts logical invocations, so feed it once even if
  // stale rounds retry the delivery.
  bool locality_recorded = false;
  for (;;) {
    std::size_t node;
    objsys::ObjectId id;
    {
      std::unique_lock lock{mutex_};
      id = id_of_locked(object);
      // "The call is blocked until the object is operational once again."
      const Meta* meta = nullptr;
      transit_cv_.wait(lock, [&] {
        meta = id.valid() ? directory_.find(id) : nullptr;
        return meta == nullptr || !meta->in_transit;
      });
      if (meta == nullptr) {
        return InvokeResult{false, "unknown object: " + object};
      }
      node = meta->node;
      if (!locality_recorded && from.has_value()) {
        record_locality_locked(id, *from);
        locality_recorded = true;
      }
    }
    if (sharded()) {
      node = resolve_sharded(from, id, object, stale);
      stale.reset();
    }
    invocations_.fetch_add(1, std::memory_order_relaxed);
    const bool remote_call = !from.has_value() || *from != node;
    (remote_call ? obs::runtime_metrics().invocations_remote
                 : obs::runtime_metrics().invocations_local)
        ->inc();
    if (remote_call) {
      remote_.fetch_add(1, std::memory_order_relaxed);
      if (options_.remote_latency.count() > 0) {
        std::this_thread::sleep_for(options_.remote_latency);
      }
    }
    // One logical request: every retransmission reuses this seq, so the
    // hosting node executes the method at most once.
    const std::optional<InvokeResult> result = request(
        from.value_or(kExternalSender), node,
        Invoke{.seq = next_seq_.fetch_add(1, std::memory_order_relaxed),
               .object = object,
               .method = method,
               .argument = argument});
    if (!result.has_value()) {
      return InvokeResult{
          false, "node unreachable: " + std::to_string(node) + " (" + object +
                     ")"};
    }
    if (remote_call && options_.remote_latency.count() > 0) {
      std::this_thread::sleep_for(options_.remote_latency);  // result message
    }
    // A migration can race the delivery: the directory said `node`, but the
    // object was evicted before our message arrived. Retry — this mirrors
    // real systems forwarding calls to the new location. After a crash the
    // object may be awaiting reinstallation, so give recovery time and
    // give up eventually instead of spinning forever.
    if (!result->ok && result->value.starts_with("object not resident")) {
      if (sharded()) stale = node;
      if (faults_active()) {
        if (++stale_rounds > kMaxStaleRounds) return *result;
        backoff(1);
      }
      continue;
    }
    (remote_call ? obs::runtime_metrics().invoke_remote_us
                 : obs::runtime_metrics().invoke_local_us)
        ->record(us_since(wall_start));
    return *result;
  }
}

objsys::ObjectId LiveSystem::id_of_locked(const std::string& name) const {
  const auto it = ids_.find(name);
  return it != ids_.end() && directory_.contains(it->second)
             ? it->second
             : objsys::ObjectId::invalid();
}

LiveSystem::Meta& LiveSystem::meta_locked(objsys::ObjectId id) {
  Meta* meta = directory_.find(id);
  OMIG_ASSERT(meta != nullptr);
  return *meta;
}

objsys::AllianceId LiveSystem::alliance_locked(const std::string& name) {
  return name.empty() ? objsys::AllianceId::invalid()
                      : intern(alliances_, name);
}

void LiveSystem::fix(const std::string& name) {
  std::lock_guard lock{mutex_};
  const objsys::ObjectId id = id_of_locked(name);
  OMIG_REQUIRE(id.valid(), "fix: unknown object");
  meta_locked(id).fixed = true;
  trace_locked(trace::EventKind::Fix, id, kExternalSender);
}

void LiveSystem::unfix(const std::string& name) {
  std::lock_guard lock{mutex_};
  const objsys::ObjectId id = id_of_locked(name);
  OMIG_REQUIRE(id.valid(), "unfix: unknown object");
  meta_locked(id).fixed = false;
  trace_locked(trace::EventKind::Unfix, id, kExternalSender);
}

bool LiveSystem::is_fixed(const std::string& name) const {
  std::lock_guard lock{mutex_};
  const objsys::ObjectId id = id_of_locked(name);
  OMIG_REQUIRE(id.valid(), "is_fixed: unknown object");
  return directory_.find(id)->fixed;
}

bool LiveSystem::attach(const std::string& a, const std::string& b,
                        const std::string& alliance) {
  std::lock_guard lock{mutex_};
  const objsys::ObjectId ia = id_of_locked(a);
  const objsys::ObjectId ib = id_of_locked(b);
  if (!ia.valid() || !ib.valid()) return false;
  return attachments_.attach(ia, ib, alliance_locked(alliance));
}

bool LiveSystem::detach(const std::string& a, const std::string& b) {
  std::lock_guard lock{mutex_};
  const objsys::ObjectId ia = id_of_locked(a);
  const objsys::ObjectId ib = id_of_locked(b);
  return ia.valid() && ib.valid() && attachments_.detach(ia, ib);
}

std::vector<objsys::ObjectId> LiveSystem::closure_locked(
    objsys::ObjectId id, const std::string& alliance) {
  return attachments_.cluster(id, alliance_locked(alliance),
                              options_.a_transitive_attachments);
}

std::vector<LiveSystem::Move> LiveSystem::claim_locked(
    std::unique_lock<std::mutex>& lock, const std::vector<Move>& moves,
    std::uint64_t block, bool skip_resident) {
  // Like MigrationManager::transfer: wait before claiming anything, never
  // between two claims.
  transit_cv_.wait(lock, [&] {
    return std::none_of(moves.begin(), moves.end(), [&](const Move& move) {
      const Meta* meta = directory_.find(move.first);
      return meta != nullptr && meta->in_transit;
    });
  });
  std::vector<Move> claimed;
  for (const auto& [id, dest] : moves) {
    Meta* meta = directory_.find(id);
    if (meta == nullptr) continue;
    if (meta->fixed || (skip_resident && meta->node == dest)) continue;
    meta->in_transit = true;
    trace_locked(trace::EventKind::MigrationStart, id, dest, block);
    claimed.emplace_back(id, dest);
  }
  return claimed;
}

void LiveSystem::relocate(const std::vector<Move>& moves) {
  const auto wall_start = std::chrono::steady_clock::now();
  // One member's progress through the hop's phases.
  struct Hop {
    objsys::ObjectId id;
    std::string name;
    std::size_t src = 0;
    std::size_t dest = 0;
    std::size_t target = 0;  ///< where the object ends up
    bool evict_answered = false;
    bool installed = false;
    /// Restarts of the install target seen before the install: a later
    /// one skipped this object in its reconciliation, as it was in transit.
    std::uint64_t target_restarts = 0;
    std::uint64_t cursor = 0;
    util::Bytes state{};  ///< the source's evict reply, forwarded as is
  };
  std::vector<Hop> hops;
  std::vector<const Move*> resident;
  {
    std::lock_guard lock{mutex_};
    for (const Move& move : moves) {
      const Meta& meta = meta_locked(move.first);
      if (meta.node == move.second) {
        resident.push_back(&move);
      } else {
        hops.push_back({.id = move.first,
                        .name = meta.name,
                        .src = meta.node,
                        .dest = move.second,
                        .target = move.second});
      }
    }
  }
  for (const Move* move : resident) end_transit(move->first, move->second);

  // Pull every member's state off its source; each evict travels
  // dest -> src. A dead source ends that member's attempts early —
  // recovery takes over below. The source records its forwarding entry as
  // it gives the object up.
  std::vector<Outbound<Evict>> evicts;
  evicts.reserve(hops.size());
  for (const Hop& hop : hops) {
    Evict evict{.seq = next_seq_.fetch_add(1, std::memory_order_relaxed),
                .name = hop.name,
                .forward_to = std::nullopt};
    if (sharded()) evict.forward_to = static_cast<std::uint64_t>(hop.dest);
    evicts.push_back(
        {.from = hop.dest, .to = hop.src, .body = std::move(evict)});
  }
  request_batch(std::span{evicts}, /*stop_on_reject=*/true);
  {
    std::lock_guard lock{mutex_};
    for (std::size_t i = 0; i < hops.size(); ++i) {
      Hop& hop = hops[i];
      std::optional<util::Bytes>& state = evicts[i].result;
      // Only an answered evict is known to have left src's forwarding entry.
      hop.evict_answered = state.has_value();
      if (!state.has_value() || state->empty()) {
        // The source is unreachable or lost the object with a crash:
        // recover the last checkpoint. Degraded mode — updates since the
        // checkpoint are gone, but the object itself survives
        // (docs/fault_model.md).
        state = meta_locked(hop.id).checkpoint;
        recoveries_.fetch_add(1, std::memory_order_relaxed);
        obs::runtime_metrics().recoveries->inc();
      }
      OMIG_ASSERT(!state->empty());
      hop.state = std::move(*state);
    }
  }

  if (!hops.empty() && options_.remote_latency.count() > 0) {
    std::this_thread::sleep_for(options_.remote_latency);  // the transfer
  }
  {
    // The state now in flight becomes each object's recovery checkpoint.
    std::lock_guard lock{mutex_};
    for (Hop& hop : hops) {
      meta_locked(hop.id).checkpoint = hop.state;
      hop.target_restarts = node_restarts_[hop.dest];
    }
  }

  std::vector<Outbound<Install>> installs;
  installs.reserve(hops.size());
  for (const Hop& hop : hops) {
    installs.push_back({.from = hop.src,
                        .to = hop.dest,
                        .body = install_msg(hop.name, hop.state)});
  }
  request_batch(std::span{installs});
  // Destination died mid-move: put the object back on the source. If that
  // is down too, the directory entry plus checkpoint let restart
  // reconciliation revive it there — the object is never lost. The
  // reinstall's self-entry overwrites the forwarding entry the evict left
  // at the source (its shard slice, when it owns the shard).
  std::vector<Outbound<Install>> fallbacks;
  std::vector<Hop*> returned;
  {
    std::lock_guard lock{mutex_};
    for (std::size_t i = 0; i < hops.size(); ++i) {
      Hop& hop = hops[i];
      hop.installed = installs[i].result.value_or(false);
      if (hop.installed) continue;
      hop.target = hop.src;
      hop.target_restarts = node_restarts_[hop.src];
      returned.push_back(&hop);
    }
  }
  for (const Hop* hop : returned) {
    fallbacks.push_back({.from = hop->dest,
                         .to = hop->src,
                         .body = install_msg(hop->name, hop->state)});
  }
  request_batch(std::span{fallbacks});
  for (std::size_t i = 0; i < returned.size(); ++i) {
    returned[i]->installed = fallbacks[i].result.value_or(false);
  }

  {
    std::lock_guard lock{mutex_};
    for (Hop& hop : hops) {
      Meta& meta = meta_locked(hop.id);
      meta.node = hop.target;
      meta.host_restarted =
          node_restarts_[hop.target] != hop.target_restarts;
      if (hop.target != hop.src) hop.cursor = ++meta.moves;
    }
  }
  // The owner updates are acked before the transits end, so the next move
  // of an object cannot overtake its update: updates for one object reach
  // the owner in order, and its slice never names a node the object left.
  if (sharded()) {
    std::vector<Publication> published;
    published.reserve(hops.size());
    for (const Hop& hop : hops) {
      // The owner already holds `name -> target` if it is the target and
      // acked the install, or it is the source, answered the evict, and
      // the object left it.
      const std::size_t owner = shard_owner(hop.name);
      const bool owner_written =
          (owner == hop.target && hop.installed) ||
          (owner == hop.src && hop.target != hop.src && hop.evict_answered);
      published.push_back({hop.id, hop.name, hop.target, owner_written});
    }
    dir_publish(published);
    // Both ends' lookup caches learn the move; their own tables already
    // hold it (the source's forwarding entry, the target's self-entry).
    const std::uint64_t stamp = now_ms();
    for (const Hop& hop : hops) {
      if (!hop.installed) continue;
      const auto target = static_cast<std::uint64_t>(hop.target);
      caches_[hop.src]->put(hop.id, target, stamp);
      caches_[hop.target]->put(hop.id, target, stamp);
    }
  }
  for (const Hop& hop : hops) end_transit(hop.id, hop.target);

  for (const Hop& hop : hops) {
    if (store_ != nullptr && hop.target != hop.src) {
      // Log the location change, then checkpoint the in-flight state under
      // the new home — both fsynced before relocate() acks the migration,
      // so no acked migration is ever lost (docs/durability.md).
      (void)store_->migration(hop.name, hop.src, hop.target);
      const auto outcome =
          store_->checkpoint(hop.name, hop.target, hop.cursor, hop.state);
      std::lock_guard lock{mutex_};
      meta_locked(hop.id).durable = outcome.durable;
    }
    if (hop.target == hop.dest) {
      migrations_.fetch_add(1, std::memory_order_relaxed);
      obs::runtime_metrics().migrations->inc();
      // From the hop's start: the member waited for the whole batch.
      obs::runtime_metrics().migration_us->record(us_since(wall_start));
    }
  }
  transit_cv_.notify_all();
}

bool LiveSystem::migrate(const std::string& object, std::size_t dest,
                         const std::string& alliance) {
  OMIG_REQUIRE(started_, "start() the system first");
  OMIG_REQUIRE(dest < node_count(), "node index out of range");
  std::vector<Move> to_move;
  {
    std::unique_lock lock{mutex_};
    const objsys::ObjectId id = id_of_locked(object);
    if (!id.valid()) return false;
    to_move = claim_locked(
        lock, bound_for(closure_locked(id, alliance), dest), 0, false);
  }
  relocate(to_move);
  return true;
}

LiveSystem::MoveToken LiveSystem::visit(const std::string& object,
                                        std::size_t dest,
                                        const std::string& alliance) {
  MoveToken token = move(object, dest, alliance);
  token.visit = true;
  return token;
}

LiveSystem::MoveToken LiveSystem::move(const std::string& object,
                                       std::size_t dest,
                                       const std::string& alliance) {
  OMIG_REQUIRE(started_, "start() the system first");
  OMIG_REQUIRE(dest < node_count(), "node index out of range");
  MoveToken token;
  std::vector<Move> to_move;
  {
    std::unique_lock lock{mutex_};
    const objsys::ObjectId id = id_of_locked(object);
    if (!id.valid()) return token;  // not granted
    token.id = next_token_++;
    trace_locked(trace::EventKind::BlockBegin, id, dest, token.id);

    // The adaptive kinds treat `dest` as advisory: the closure relocates
    // to the EMA's choice (the current host when the telemetry says stay,
    // which relocate() resolves as a no-op), under placement locking.
    std::size_t target = dest;

    if (options_.policy != MovePolicy::Conventional) {
      // A lock whose lease ran out belongs to a block that died (node
      // crash) or stalled past its budget: release everything it holds —
      // the objects stay in place — and let this move proceed.
      const Meta& meta = meta_locked(id);
      if (lease_expired(meta)) expire_lease(meta.locked_by);
      // Transient placement: a conflicting unfinished move refuses us.
      if (meta.locked_by != 0 || meta.fixed) {
        refused_.fetch_add(1, std::memory_order_relaxed);
        obs::runtime_metrics().refused_moves->inc();
        trace_locked(trace::EventKind::MoveRefused, id, dest, token.id);
        return token;  // granted = false: caller invokes remotely
      }
      if (adaptive_policy()) target = adaptive_target_locked(id, alliance);
      const auto lease_deadline =
          std::chrono::steady_clock::now() + options_.lock_lease;
      std::vector<objsys::ObjectId> locked;
      for (const objsys::ObjectId member : closure_locked(id, alliance)) {
        Meta& m = meta_locked(member);
        if (lease_expired(m)) expire_lease(m.locked_by);
        if (m.locked_by != 0) continue;  // partial move
        m.locked_by = token.id;
        m.lease_expiry = lease_deadline;
        obs::runtime_metrics().lease_acquisitions->inc();
        if (store_ != nullptr) {
          // Audit record, unsynced: lease grants ride on the next synced
          // append (recovery never restores leases — they expire).
          (void)store_->lease(m.name, token.id);
        }
        locked.push_back(member);
        token.locked.push_back(m.name);
        trace_locked(trace::EventKind::Lock, member, target, token.id);
      }
      to_move =
          claim_locked(lock, bound_for(locked, target), token.id, false);
    } else {
      // Conventional: always migrate, no locks.
      to_move = claim_locked(
          lock, bound_for(closure_locked(id, alliance), dest), token.id,
          false);
    }
    token.granted = true;
    for (const Move& move : to_move) {
      const Meta& meta = meta_locked(move.first);
      token.origins.emplace_back(meta.name, meta.node);
    }
  }
  relocate(to_move);
  return token;
}

void LiveSystem::record_locality_locked(objsys::ObjectId id,
                                        std::size_t from) {
  if (locality_ == nullptr || from >= node_count()) return;
  locality_->record(id, objsys::NodeId{static_cast<std::uint32_t>(from)});
  ema_updates_.fetch_add(1, std::memory_order_relaxed);
  policy_obs_->ema_updates->inc();
}

std::size_t LiveSystem::adaptive_target_locked(objsys::ObjectId id,
                                               const std::string& alliance) {
  const std::size_t host = meta_locked(id).node;
  const objsys::NodeId host_id{static_cast<std::uint32_t>(host)};
  const migration::AdaptiveDecision decision = adaptive_.decide(
      id, host_id, locality_->estimate(id, host_id),
      migration::AdaptiveKnobs{
          .min_weight = options_.adaptive_min_weight,
          .hysteresis_band = options_.hysteresis_band,
          .load_factor = kLoadFactor,
          .load_aware = options_.policy == MovePolicy::AdaptiveLoad},
      [&](objsys::NodeId dest) {
        std::size_t at_dest = 0;
        directory_.for_each([&](objsys::ObjectId, const Meta& meta) {
          at_dest += meta.node == dest.value();
        });
        return migration::HostLoad{
            .at_dest = at_dest,
            .moving = closure_locked(id, alliance).size(),
            .objects = directory_.size(),
            .nodes = node_count()};
      });
  switch (decision.verdict) {
    case migration::AdaptiveVerdict::Stay:
      return host;
    case migration::AdaptiveVerdict::Hysteresis:
      policy_suppressed_hysteresis_.fetch_add(1, std::memory_order_relaxed);
      policy_obs_->suppressed_hysteresis->inc();
      return host;
    case migration::AdaptiveVerdict::Load:
      policy_suppressed_load_.fetch_add(1, std::memory_order_relaxed);
      policy_obs_->suppressed_load->inc();
      return host;
    case migration::AdaptiveVerdict::Migrate:
      break;
  }
  if (decision.reversal) {
    policy_reversals_.fetch_add(1, std::memory_order_relaxed);
    policy_obs_->pingpong_reversals->inc();
  }
  policy_migrations_.fetch_add(1, std::memory_order_relaxed);
  policy_obs_->migrations_triggered->inc();
  return decision.dest.value();
}

void LiveSystem::end(MoveToken& token) {
  if (token.id == 0) return;
  {
    std::lock_guard lock{mutex_};
    for (const std::string& name : token.locked) {
      const objsys::ObjectId id = id_of_locked(name);
      if (!id.valid()) continue;
      // locked_by may no longer be ours: the lease may have expired and
      // another block taken over — only release what we still hold.
      Meta& meta = meta_locked(id);
      if (meta.locked_by == token.id) {
        meta.locked_by = 0;
        trace_locked(trace::EventKind::Unlock, id, kExternalSender,
                     token.id);
      }
    }
    token.locked.clear();
    trace_locked(trace::EventKind::BlockEnd, objsys::ObjectId::invalid(),
                 kExternalSender, token.id);
  }
  if (token.visit && token.granted) {
    // visit(): the objects migrate back to where they came from, as one
    // hop.
    std::vector<Move> origins;
    std::vector<Move> home;
    {
      std::unique_lock lock{mutex_};
      for (const auto& [name, origin] : token.origins) {
        const objsys::ObjectId id = id_of_locked(name);
        if (id.valid()) origins.emplace_back(id, origin);
      }
      home = claim_locked(lock, origins, token.id, true);
    }
    relocate(home);
    token.origins.clear();
  }
}

bool LiveSystem::lease_expired(const Meta& meta) const {
  return options_.lock_lease.count() > 0 && meta.locked_by != 0 &&
         std::chrono::steady_clock::now() >= meta.lease_expiry;
}

void LiveSystem::expire_lease(std::uint64_t token) {
  // The whole block's lease expires at once: every lock it holds is
  // released and the objects stay where they are ("released in place").
  directory_.for_each([&](objsys::ObjectId id, Meta& meta) {
    if (meta.locked_by == token) {
      meta.locked_by = 0;
      trace_locked(trace::EventKind::Unlock, id, kExternalSender, token);
    }
  });
  lease_expiries_.fetch_add(1, std::memory_order_relaxed);
  obs::runtime_metrics().lease_expiries->inc();
}

void LiveSystem::trace_locked(trace::EventKind kind, objsys::ObjectId object,
                              std::size_t node, std::uint64_t block) {
  if (options_.trace == nullptr) return;
  trace::Event event;
  // Logical time: transport backends interleave wall-clock time
  // differently, but the directory orders protocol events identically.
  event.time = static_cast<double>(trace_clock_++);
  event.kind = kind;
  event.object = object;
  if (node < node_count()) {
    event.node = objsys::NodeId{static_cast<std::uint32_t>(node)};
  }
  if (block != 0) {
    event.block = objsys::BlockId{static_cast<std::uint32_t>(block)};
  }
  options_.trace->record(event);
}

void LiveSystem::crash_node(std::size_t node) {
  OMIG_REQUIRE(started_, "start() the system first");
  OMIG_REQUIRE(node < node_count(), "node index out of range");
  {
    std::lock_guard lock{mutex_};
    node_down_[node] = 1;
  }
  if (!remote()) {
    nodes_[node]->crash();
    // Under TCP the node's listener dies with it: peers observe connection
    // resets, and their pending replies break immediately.
    if (node < servers_.size()) servers_[node]->stop();
  }
  // The node's lookup cache dies with it (its directory slice and hints
  // are node-thread state and died inside crash() already).
  if (sharded() && node < caches_.size()) caches_[node]->clear();
  transport_->on_node_crash(node);
  crashes_.fetch_add(1, std::memory_order_relaxed);
  obs::runtime_metrics().crashes->inc();
}

void LiveSystem::restart_node(std::size_t node) {
  OMIG_REQUIRE(started_, "start() the system first");
  OMIG_REQUIRE(node < node_count(), "node index out of range");
  if (!remote()) {
    nodes_[node]->restart();
    if (node < servers_.size()) {
      // A restarted process would come up on a fresh port; the in-process
      // stand-in does the same, and the transport is re-pointed at it.
      const std::uint16_t port = servers_[node]->start();
      OMIG_REQUIRE(port != 0, "could not rebind the node's listener");
      if (tcp_ != nullptr) {
        tcp_->set_peer(node, transport::Peer{"127.0.0.1", port});
      }
    }
  }
  transport_->on_node_restart(node);
  // Reconcile the directory with the freshly-empty node: reinstall every
  // object placed there from its checkpoint, holding it in transit so no
  // migration evicts it before the reinstall lands. In-transit objects are
  // skipped — their migration is in progress, and end_transit() reinstalls
  // them if they end up here.
  std::vector<std::pair<objsys::ObjectId, Meta>> to_restore;
  {
    std::lock_guard lock{mutex_};
    node_down_[node] = 0;
    ++node_restarts_[node];
    directory_.for_each([&](objsys::ObjectId id, Meta& meta) {
      if (meta.node != node) return;
      if (meta.in_transit) {
        meta.host_restarted = true;
        return;
      }
      meta.in_transit = true;
      to_restore.emplace_back(id, meta);
    });
  }
  // Each reinstall records its own self-entry (sharded directory).
  for (const auto& [id, meta] : to_restore) {
    if (install_with_retry(node, meta.name, meta.checkpoint,
                           kExternalSender)) {
      recoveries_.fetch_add(1, std::memory_order_relaxed);
      obs::runtime_metrics().recoveries->inc();
      if (meta.durable) {
        // The checkpoint that revived this object was disk-backed — the
        // distinction durable_recoveries() reports.
        durable_recoveries_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    {
      std::lock_guard lock{mutex_};
      meta_locked(id).in_transit = false;
    }
    transit_cv_.notify_all();
  }
  // The fresh node serves an empty directory slice; rebuild it from the
  // central map.
  if (sharded()) dir_reseed_node(node);
  restarts_.fetch_add(1, std::memory_order_relaxed);
  obs::runtime_metrics().restarts->inc();
}

std::size_t LiveSystem::shard_owner(const std::string& name) const {
  // FNV-1a: deterministic across processes, so a remote coordinator and a
  // test model agree on every name's shard.
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : name) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return static_cast<std::size_t>(hash % node_count());
}

DirUpdate LiveSystem::dir_update_msg(const std::string& name,
                                     std::size_t node) {
  dir_updates_.fetch_add(1, std::memory_order_relaxed);
  obs::dir_metrics().updates->inc();
  return DirUpdate{.seq = next_seq_.fetch_add(1, std::memory_order_relaxed),
                   .name = name,
                   .node = static_cast<std::uint64_t>(node)};
}

std::optional<DirReply> LiveSystem::dir_lookup(std::size_t from,
                                               std::size_t target,
                                               const std::string& name) {
  return request(
      from, target,
      DirLookup{.seq = next_seq_.fetch_add(1, std::memory_order_relaxed),
                .name = name});
}

std::optional<std::size_t> LiveSystem::directory_entry(
    std::size_t node, const std::string& name) {
  OMIG_REQUIRE(node < node_count(), "node index out of range");
  const auto reply = dir_lookup(kExternalSender, node, name);
  if (!reply.has_value() || !reply->found) return std::nullopt;
  return static_cast<std::size_t>(reply->node);
}

std::size_t LiveSystem::resolve_sharded(std::optional<std::size_t> from,
                                        objsys::ObjectId id,
                                        const std::string& object,
                                        std::optional<std::size_t> stale) {
  const auto wall_start = std::chrono::steady_clock::now();
  obs::DirMetrics& metrics = obs::dir_metrics();
  dir_lookups_.fetch_add(1, std::memory_order_relaxed);
  objsys::LocationCache& cache = *caches_[cache_slot(from)];
  const std::size_t origin = from.value_or(kExternalSender);
  auto finish = [&](std::size_t node) {
    cache.put(id, static_cast<std::uint64_t>(node), now_ms());
    metrics.lookup_us->record(us_since(wall_start));
    return node;
  };

  if (stale.has_value()) {
    // The previous attempt found no object at *stale: drop the lie from
    // the cache, then chase the forwarding hints migrations left behind.
    // Hints record each node's last departure destination, so departure
    // times rise strictly along the chain — it cannot cycle — and the hop
    // cap (= node count, one shard each) bounds the walk before the owner
    // takes over.
    dir_stale_hits_.fetch_add(1, std::memory_order_relaxed);
    metrics.lookups_stale->inc();
    cache.invalidate(id);
    if (options_.dir_strategy == objsys::ConsistencyStrategy::LazyForward) {
      std::size_t at = *stale;
      for (std::size_t hop = 0; hop < node_count(); ++hop) {
        if (!node_up(at)) break;
        auto hint = dir_lookup(origin, at, object);
        if (!hint.has_value()) break;  // unreachable mid-chase: ask owner
        const auto next = hint->found
                              ? static_cast<std::size_t>(hint->node)
                              : at;
        if (next >= node_count()) break;  // corrupt hint: distrust it
        if (next == at) {
          // A self-entry (or no hint at all): the chain terminates here.
          // The starting node just failed an invoke, though — never trust
          // it to name itself; fall through to the owner instead.
          if (at != *stale) return finish(at);
          break;
        }
        dir_hops_.fetch_add(1, std::memory_order_relaxed);
        metrics.forward_hops->inc();
        at = next;
      }
    }
  } else if (auto cached = cache.get(id); cached.has_value()) {
    bool fresh = true;
    if (options_.dir_strategy == objsys::ConsistencyStrategy::LeaseTtl) {
      fresh = now_ms() - cached->stamp <= kDirLeaseTtlMs;
    }
    const auto node = static_cast<std::size_t>(cached->node);
    if (fresh && node < node_count() && node_up(node)) {
      dir_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      metrics.lookups_hit->inc();
      metrics.lookup_us->record(us_since(wall_start));
      return node;
    }
    cache.invalidate(id);
  }

  // Cache miss (or a failed chase): consult the shard owner's slice.
  const std::size_t owner = shard_owner(object);
  if (!stale.has_value()) metrics.lookups_miss->inc();
  if (node_up(owner)) {
    auto reply = dir_lookup(origin, owner, object);
    if (reply.has_value() && reply->found) {
      const auto node = static_cast<std::size_t>(reply->node);
      if (node < node_count() && node_up(node)) return finish(node);
    }
  }
  // Owner down or its slice not yet re-seeded: the coordinator's map is
  // the model's durable layer, and the last resort.
  dir_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  metrics.fallbacks->inc();
  std::size_t node = owner;
  {
    std::lock_guard lock{mutex_};
    if (const Meta* meta = directory_.find(id)) node = meta->node;
  }
  return finish(node);
}

void LiveSystem::dir_publish(const std::vector<Publication>& moved) {
  // A crashed owner is skipped: the central map already names host, and
  // its restart re-seeds the slice from there (or marks the object for
  // end_transit() to republish).
  std::vector<Outbound<DirUpdate>> updates;
  for (const auto& [id, name, host, owner_written] : moved) {
    const std::size_t owner = shard_owner(name);
    if (!owner_written && node_up(owner)) {
      updates.push_back({.from = kExternalSender,
                         .to = owner,
                         .body = dir_update_msg(name, host)});
    }
  }
  request_batch(std::span{updates});
  if (options_.dir_strategy != objsys::ConsistencyStrategy::EagerInvalidate) {
    return;
  }
  for (const Publication& p : moved) {
    for (auto& cache : caches_) {
      if (cache->invalidate(p.id)) {
        dir_invalidations_.fetch_add(1, std::memory_order_relaxed);
        obs::dir_metrics().invalidations->inc();
      }
    }
  }
}

void LiveSystem::end_transit(objsys::ObjectId id, std::size_t host) {
  for (;;) {
    bool reinstall = false;
    std::string name;
    util::Bytes state;
    {
      std::lock_guard lock{mutex_};
      Meta& meta = meta_locked(id);
      if (!meta.host_restarted && !meta.owner_restarted) {
        meta.in_transit = false;
        trace_locked(trace::EventKind::MigrationEnd, id, host);
        return;
      }
      reinstall = std::exchange(meta.host_restarted, false);
      meta.owner_restarted = false;
      name = meta.name;
      if (reinstall) state = meta.checkpoint;
    }
    // The host restarted after the object reached it, or the owner re-seeded
    // its slice while the object was on its way: restore the object from
    // its checkpoint (no invoke ran on it in transit) and republish.
    if (reinstall && install_with_retry(host, name, state, kExternalSender)) {
      recoveries_.fetch_add(1, std::memory_order_relaxed);
      obs::runtime_metrics().recoveries->inc();
    }
    if (sharded()) dir_publish({{id, name, host, false}});
  }
}

void LiveSystem::dir_reseed_node(std::size_t node) {
  std::vector<objsys::ObjectId> slice;
  {
    std::lock_guard lock{mutex_};
    directory_.for_each([&](objsys::ObjectId id, const Meta& meta) {
      if (shard_owner(meta.name) == node) slice.push_back(id);
    });
  }
  for (const objsys::ObjectId id : slice) {
    std::size_t host = 0;
    std::string name;
    {
      std::lock_guard lock{mutex_};
      Meta& meta = meta_locked(id);
      if (meta.in_transit) {
        meta.owner_restarted = true;
        continue;
      }
      meta.in_transit = true;
      host = meta.node;
      name = meta.name;
    }
    // A target that stays down is re-seeded by its next restart.
    (void)request(kExternalSender, node, dir_update_msg(name, host));
    {
      std::lock_guard lock{mutex_};
      meta_locked(id).in_transit = false;
    }
    transit_cv_.notify_all();
  }
}

bool LiveSystem::node_up(std::size_t node) const {
  OMIG_REQUIRE(node < node_count(), "node index out of range");
  std::lock_guard lock{mutex_};
  return node_down_[node] == 0;
}

void LiveSystem::set_remote_peer(std::size_t node, transport::Peer peer) {
  OMIG_REQUIRE(remote(), "set_remote_peer is for remote clusters");
  OMIG_REQUIRE(node < node_count(), "node index out of range");
  if (tcp_ != nullptr) tcp_->set_peer(node, std::move(peer));
}

void LiveSystem::shutdown_remote_nodes() {
  if (!remote() || transport_ == nullptr) return;
  for (std::size_t node = 0; node < node_count(); ++node) {
    (void)transport_->send_shutdown(node);
  }
}

std::uint64_t LiveSystem::invocations() const { return invocations_.load(); }
std::uint64_t LiveSystem::remote_invocations() const { return remote_.load(); }
std::uint64_t LiveSystem::migrations() const { return migrations_.load(); }
std::uint64_t LiveSystem::refused_moves() const { return refused_.load(); }
std::uint64_t LiveSystem::policy_migrations() const {
  return policy_migrations_.load();
}
std::uint64_t LiveSystem::policy_suppressed_hysteresis() const {
  return policy_suppressed_hysteresis_.load();
}
std::uint64_t LiveSystem::policy_suppressed_load() const {
  return policy_suppressed_load_.load();
}
std::uint64_t LiveSystem::policy_reversals() const {
  return policy_reversals_.load();
}
std::uint64_t LiveSystem::ema_updates() const { return ema_updates_.load(); }
std::uint64_t LiveSystem::retries() const { return retries_.load(); }
std::uint64_t LiveSystem::lease_expiries() const {
  return lease_expiries_.load();
}
std::uint64_t LiveSystem::crashes() const { return crashes_.load(); }
std::uint64_t LiveSystem::restarts() const { return restarts_.load(); }
std::uint64_t LiveSystem::recoveries() const { return recoveries_.load(); }
std::uint64_t LiveSystem::durable_recoveries() const {
  return durable_recoveries_.load();
}
std::uint64_t LiveSystem::replayed_objects() const {
  return replayed_objects_.load();
}

std::uint64_t LiveSystem::dropped_messages() const {
  return injector_ ? injector_->counters().dropped.load() : 0;
}

std::uint64_t LiveSystem::duplicated_messages() const {
  return injector_ ? injector_->counters().duplicated.load() : 0;
}

std::uint64_t LiveSystem::deduplicated_messages() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->deduplicated();
  return total;
}

std::uint64_t LiveSystem::send_rejections() const {
  return send_rejections_.load();
}

std::uint64_t LiveSystem::dir_lookups() const { return dir_lookups_.load(); }
std::uint64_t LiveSystem::dir_cache_hits() const {
  return dir_cache_hits_.load();
}
std::uint64_t LiveSystem::dir_stale_hits() const {
  return dir_stale_hits_.load();
}
std::uint64_t LiveSystem::dir_forward_hops() const { return dir_hops_.load(); }
std::uint64_t LiveSystem::dir_updates() const { return dir_updates_.load(); }
std::uint64_t LiveSystem::dir_invalidations() const {
  return dir_invalidations_.load();
}
std::uint64_t LiveSystem::dir_fallbacks() const {
  return dir_fallbacks_.load();
}

std::uint64_t LiveSystem::transport_reconnects() const {
  return tcp_ != nullptr ? tcp_->reconnects() : 0;
}

}  // namespace omig::runtime
