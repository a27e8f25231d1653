// Microbenchmarks of the live multi-threaded runtime (google-benchmark):
// local vs remote invocation throughput, migration latency including the
// byte-level linearisation round trip, and placement move/end cycles.
//
// The invoke and migration benches carry a transport dimension — arg 0 is
// the backend (0 = in-proc mailboxes, 1 = TCP over loopback) — so the wire
// marshalling + socket round trip shows up as a measured delta against the
// identical in-process workload (docs/transport.md).
#include <benchmark/benchmark.h>

#include "runtime/demo_types.hpp"
#include "runtime/live_system.hpp"
#include "runtime/serde.hpp"
#include "transport/wire.hpp"

namespace {

using namespace omig::runtime;

ObjectState counter_state() { return make_state("counter", {{"count", "0"}}); }

TransportKind kind_of(const benchmark::State& state) {
  return state.range(0) == 0 ? TransportKind::InProc : TransportKind::Tcp;
}

std::unique_ptr<LiveSystem> make_system(std::size_t nodes,
                                        TransportKind transport) {
  LiveSystem::Options opts;
  opts.nodes = nodes;
  opts.transport = transport;
  auto sys = std::make_unique<LiveSystem>(opts);
  register_demo_types(*sys);
  sys->start();
  sys->create("c", counter_state(), 0);
  return sys;
}

void set_transport_label(benchmark::State& state) {
  state.SetLabel(state.range(0) == 0 ? "inproc" : "tcp");
}

void BM_LiveInvokeLocal(benchmark::State& state) {
  auto sys = make_system(2, kind_of(state));
  set_transport_label(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->invoke_from(0, "c", "add", "1"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LiveInvokeLocal)->Arg(0)->Arg(1);

void BM_LiveInvokeRemote(benchmark::State& state) {
  auto sys = make_system(2, kind_of(state));
  set_transport_label(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->invoke_from(1, "c", "add", "1"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LiveInvokeRemote)->Arg(0)->Arg(1);

void BM_LiveMigrateRoundTrip(benchmark::State& state) {
  auto sys = make_system(2, kind_of(state));
  set_transport_label(state);
  for (auto _ : state) {
    sys->migrate("c", 1);
    sys->migrate("c", 0);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_LiveMigrateRoundTrip)->Arg(0)->Arg(1);

void BM_LiveMoveEndCycle(benchmark::State& state) {
  auto sys = make_system(3, kind_of(state));
  set_transport_label(state);
  std::size_t dest = 1;
  for (auto _ : state) {
    auto token = sys->move("c", dest);
    sys->end(token);
    dest = 3 - dest;  // alternate 1 <-> 2
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LiveMoveEndCycle)->Arg(0)->Arg(1);

void BM_SerdeRoundTrip(benchmark::State& state) {
  ObjectState s;
  s.type = "cart";
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    s.fields["field-" + std::to_string(i)] = std::string(32, 'x');
  }
  for (auto _ : state) {
    auto decoded = decode(encode(s));
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerdeRoundTrip)->Arg(4)->Arg(64);

// Pure codec cost of one wire frame (no sockets): encode an install request
// carrying the serde blob of a `range(0)`-field object state, then strictly
// decode it back. The blob is opaque to the frame codec, so this excludes
// BM_SerdeRoundTrip's cost.
void BM_WireFrameRoundTrip(benchmark::State& state) {
  using namespace omig::transport;
  ObjectState s;
  s.type = "cart";
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    s.fields["field-" + std::to_string(i)] = std::string(32, 'x');
  }
  omig::runtime::Install msg;
  msg.seq = 1;
  msg.name = "c";
  msg.state = encode(s);
  const Frame frame{42, msg};
  for (auto _ : state) {
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    auto decoded = decode_payload(
        {bytes.data() + 4, bytes.size() - 4});
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireFrameRoundTrip)->Arg(4)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
