// Transport backend throughput and connection-scaling bench.
//
// Measures the three transport backends against the identical request
// path (marshal → transport → node mailbox → object method → reply):
//
//   echo phase   — serial round-trip RTT (p50/p99 us) and pipelined
//                  frames/sec per backend (inproc / tcp / async_tcp);
//   ladder phase — connections held concurrently against ONE node server:
//                  blocking tcp pays one OS reader thread per connection,
//                  the event-loop backend pays one fd. The ladder records
//                  wall time to establish-and-echo on every link plus the
//                  client's thread count and RSS at each rung.
//
// The frame server runs in a forked child process (its own fd budget), so
// the 10 000-connection rung fits under a 20 000-fd rlimit on each side —
// the same split a real omig_node deployment has. Prints one JSON
// document; scripts/bench_baseline.sh --transport merges it into
// BENCH_transport.json.
//
// Both processes pin themselves to one CPU each, as the perfbench driver
// (perfbench/main.cpp) does: the client to the last CPU it may run on,
// the server child to the one before it (the same CPU when only one is
// allowed). Each process's own thread handoffs then stay local context
// switches instead of vCPU wake-ups, which is what made unpinned serial
// RTT rows vary by ±30% between runs on a shared VM. The JSON records the
// two CPUs.
//
// Knobs: OMIG_BENCH_SERIAL / OMIG_BENCH_PIPELINED / OMIG_BENCH_WINDOW,
// OMIG_BENCH_LADDER_TCP_MAX (default 1000: a 10k-thread client is exactly
// the configuration the thread-per-peer backend exists to avoid).
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "runtime/demo_types.hpp"
#include "runtime/live_node.hpp"
#include "runtime/serde.hpp"
#include "transport/async_tcp_transport.hpp"
#include "transport/bridge.hpp"
#include "transport/node_server.hpp"
#include "transport/tcp_transport.hpp"
#include "transport/transport.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using omig::runtime::Install;
using omig::runtime::Invoke;
using omig::transport::AsyncTcpTransport;
using omig::transport::InProcTransport;
using omig::transport::Peer;
using omig::transport::SendStatus;
using omig::transport::TcpTransport;
using omig::transport::Transport;

constexpr std::size_t kSender = 4096;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Reads one numeric field (kB for Vm*, plain for Threads) from
/// /proc/self/status.
long proc_status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      long value = 0;
      std::sscanf(line.c_str() + std::strlen(key), "%ld", &value);
      return value;
    }
  }
  return 0;
}

bool install_counter(Transport& transport, const std::string& name,
                     std::uint64_t& seq) {
  Install msg;
  msg.seq = seq++;
  msg.name = name;
  msg.state = omig::runtime::encode(
      omig::runtime::make_state("counter", {{"count", "0"}}));
  std::future<bool> done;
  if (transport.send(kSender, 0, msg, done) != SendStatus::Ok) {
    return false;
  }
  return done.get();
}

struct EchoResult {
  std::string backend;
  std::size_t round_trips = 0;
  double rtt_p50_us = 0.0;
  double rtt_p99_us = 0.0;
  double pipelined_wall_ms = 0.0;
  double frames_per_sec = 0.0;  ///< request + reply frames
};

/// Serial RTT distribution, then pipelined throughput with a bounded
/// window of outstanding requests — the shape the live runtime's
/// concurrent mailboxes produce.
EchoResult run_echo(const std::string& backend, Transport& transport,
                    std::uint64_t& seq) {
  const auto serial =
      static_cast<std::size_t>(omig::bench::env_int("OMIG_BENCH_SERIAL", 2000));
  const auto pipelined = static_cast<std::size_t>(
      omig::bench::env_int("OMIG_BENCH_PIPELINED", 20000));
  const auto window =
      static_cast<std::size_t>(omig::bench::env_int("OMIG_BENCH_WINDOW", 256));
  const std::string obj = "echo_" + backend;
  if (!install_counter(transport, obj, seq)) return {backend};

  auto invoke = [&](std::future<omig::runtime::InvokeResult>& reply) {
    Invoke msg;
    msg.seq = seq++;
    msg.object = obj;
    msg.method = "add";
    msg.argument = "1";
    return transport.send(kSender, 0, msg, reply);
  };

  EchoResult r;
  r.backend = backend;
  std::vector<std::uint64_t> rtt_ns;
  rtt_ns.reserve(serial);
  for (std::size_t i = 0; i < serial; ++i) {
    std::future<omig::runtime::InvokeResult> reply;
    const auto t0 = Clock::now();
    if (invoke(reply) != SendStatus::Ok || !reply.get().ok) return r;
    rtt_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count()));
  }
  std::sort(rtt_ns.begin(), rtt_ns.end());
  auto at = [&](double q) {
    const auto idx = std::min(
        rtt_ns.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(rtt_ns.size())));
    return static_cast<double>(rtt_ns[idx]) / 1e3;
  };
  r.rtt_p50_us = at(0.50);
  r.rtt_p99_us = at(0.99);

  const auto t0 = Clock::now();
  std::vector<std::future<omig::runtime::InvokeResult>> inflight;
  inflight.reserve(window);
  std::size_t issued = 0;
  std::size_t completed = 0;
  while (completed < pipelined) {
    while (issued < pipelined && inflight.size() < window) {
      std::future<omig::runtime::InvokeResult> reply;
      if (invoke(reply) != SendStatus::Ok) return r;
      inflight.push_back(std::move(reply));
      ++issued;
    }
    for (auto& reply : inflight) {
      if (!reply.get().ok) return r;
      ++completed;
    }
    inflight.clear();
  }
  r.pipelined_wall_ms = ms_since(t0);
  r.round_trips = serial + pipelined;
  r.frames_per_sec = 2.0 * static_cast<double>(pipelined) /
                     (r.pipelined_wall_ms / 1e3);
  return r;
}

struct LadderResult {
  std::string backend;
  std::size_t target_conns = 0;
  std::size_t connected = 0;
  double wall_ms = 0.0;
  long client_threads = 0;
  long client_rss_mb = 0;
  bool ok = false;
};

/// Opens `conns` links to the server (one peer entry per link), completes
/// one echo round trip on every link, and samples the client process
/// while all links are still up.
LadderResult run_ladder(const std::string& backend, std::uint16_t port,
                        std::size_t conns, std::uint64_t& seq) {
  LadderResult r;
  r.backend = backend;
  r.target_conns = conns;
  std::unique_ptr<Transport> transport;
  if (backend == "async_tcp") {
    AsyncTcpTransport::Options opts;
    opts.peers.assign(conns, Peer{"127.0.0.1", port});
    opts.max_connect_attempts = 8;
    opts.connect_backoff = std::chrono::milliseconds{5};
    transport = std::make_unique<AsyncTcpTransport>(std::move(opts), nullptr);
  } else {
    TcpTransport::Options opts;
    opts.peers.assign(conns, Peer{"127.0.0.1", port});
    opts.max_connect_attempts = 8;
    opts.connect_backoff = std::chrono::milliseconds{5};
    transport = std::make_unique<TcpTransport>(std::move(opts), nullptr);
  }
  const std::string obj = "lad_" + backend + "_" + std::to_string(conns);
  if (!install_counter(*transport, obj, seq)) return r;

  const auto t0 = Clock::now();
  std::vector<std::future<omig::runtime::InvokeResult>> replies;
  replies.reserve(conns);
  for (std::size_t conn = 0; conn < conns; ++conn) {
    Invoke msg;
    msg.seq = seq++;
    msg.object = obj;
    msg.method = "get";
    std::future<omig::runtime::InvokeResult> reply;
    if (transport->send(kSender, conn, msg, reply) != SendStatus::Ok) {
      return r;
    }
    replies.push_back(std::move(reply));
  }
  for (auto& reply : replies) {
    try {
      if (!reply.get().ok) return r;
    } catch (const std::future_error&) {
      return r;
    }
    ++r.connected;
  }
  r.wall_ms = ms_since(t0);
  r.client_threads = proc_status_field("Threads:");
  r.client_rss_mb = proc_status_field("VmRSS:") / 1024;
  r.ok = r.connected == conns;
  return r;
}

/// The last two CPUs this process may run on, as {client, server}; both
/// the same CPU when only one is allowed, -1 if the mask is unreadable.
std::pair<int, int> bench_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {-1, -1};
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus.size() < 2; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return {-1, -1};
  return {cpus.front(), cpus.back()};
}

/// Restricts the calling process (all its future threads) to `cpu`.
void pin_to_cpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  CPU_SET(cpu, &pinned);
  if (sched_setaffinity(0, sizeof pinned, &pinned) != 0) {
    std::perror("sched_setaffinity");
  }
}

/// The frame server, in a forked child: a real LiveNode behind a
/// NodeServer, exactly what `omig_node --port` runs. Writes the bound
/// port to `port_fd`, serves until `stop_fd` reaches EOF.
[[noreturn]] void server_child(int port_fd, int stop_fd) {
  auto factories = omig::runtime::demo_factories();
  omig::runtime::LiveNode node(0, &factories);
  node.start();
  omig::transport::NodeServer server(
      [&node](omig::transport::Frame frame,
              omig::transport::NodeServer::Responder respond) {
        omig::transport::serve_on_mailbox(node.mailbox(), std::move(frame),
                                          std::move(respond));
      });
  const std::uint16_t port = server.start();
  (void)!write(port_fd, &port, sizeof(port));
  close(port_fd);
  char byte = 0;
  while (read(stop_fd, &byte, 1) > 0) {
  }
  server.stop();
  node.stop();
  std::_Exit(0);
}

}  // namespace

int main() {
  // Fork the server before any thread exists in this process.
  int port_pipe[2];
  int stop_pipe[2];
  if (pipe(port_pipe) != 0 || pipe(stop_pipe) != 0) return 1;
  const auto [client_cpu, server_cpu] = bench_cpus();
  const pid_t child = fork();
  if (child < 0) return 1;
  if (child == 0) {
    pin_to_cpu(server_cpu);
    close(port_pipe[0]);
    close(stop_pipe[1]);
    server_child(port_pipe[1], stop_pipe[0]);
  }
  pin_to_cpu(client_cpu);
  close(port_pipe[1]);
  close(stop_pipe[0]);
  std::uint16_t port = 0;
  if (read(port_pipe[0], &port, sizeof(port)) != sizeof(port) || port == 0) {
    std::fprintf(stderr, "server child failed to bind\n");
    return 1;
  }
  close(port_pipe[0]);

  std::uint64_t seq = 1;
  std::vector<EchoResult> echo;

  {
    // In-process baseline: same request path, no wire.
    auto factories = omig::runtime::demo_factories();
    omig::runtime::LiveNode node(0, &factories);
    node.start();
    InProcTransport inproc(
        [&node](std::size_t) { return &node.mailbox(); }, nullptr);
    echo.push_back(run_echo("inproc", inproc, seq));
    node.stop();
  }
  {
    TcpTransport::Options opts;
    opts.peers = {Peer{"127.0.0.1", port}};
    TcpTransport tcp(std::move(opts), nullptr);
    echo.push_back(run_echo("tcp", tcp, seq));
  }
  {
    AsyncTcpTransport::Options opts;
    opts.peers = {Peer{"127.0.0.1", port}};
    AsyncTcpTransport async(std::move(opts), nullptr);
    echo.push_back(run_echo("async_tcp", async, seq));
  }

  const long tcp_ladder_max =
      omig::bench::env_int("OMIG_BENCH_LADDER_TCP_MAX", 1000);
  std::vector<LadderResult> ladder;
  for (const std::size_t conns : {std::size_t{100}, std::size_t{1000}}) {
    if (static_cast<long>(conns) <= tcp_ladder_max) {
      ladder.push_back(run_ladder("tcp", port, conns, seq));
    }
  }
  for (const std::size_t conns :
       {std::size_t{100}, std::size_t{1000}, std::size_t{10000}}) {
    ladder.push_back(run_ladder("async_tcp", port, conns, seq));
  }

  std::ostringstream out;
  out << "{\n  \"cpus\": {\"client\": " << client_cpu
      << ", \"server\": " << server_cpu << "},\n  \"echo\": [\n";
  for (std::size_t i = 0; i < echo.size(); ++i) {
    const auto& r = echo[i];
    out << "    {\"backend\": \"" << r.backend
        << "\", \"round_trips\": " << r.round_trips
        << ", \"rtt_p50_us\": " << r.rtt_p50_us
        << ", \"rtt_p99_us\": " << r.rtt_p99_us
        << ", \"frames_per_sec\": " << r.frames_per_sec << "}"
        << (i + 1 < echo.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"ladder\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const auto& r = ladder[i];
    out << "    {\"backend\": \"" << r.backend
        << "\", \"target_conns\": " << r.target_conns
        << ", \"connected\": " << r.connected
        << ", \"wall_ms\": " << r.wall_ms
        << ", \"client_threads\": " << r.client_threads
        << ", \"client_rss_mb\": " << r.client_rss_mb
        << ", \"ok\": " << (r.ok ? "true" : "false") << "}"
        << (i + 1 < ladder.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::fputs(out.str().c_str(), stdout);

  close(stop_pipe[1]);  // EOF → child stops
  int status = 0;
  waitpid(child, &status, 0);
  return 0;
}
