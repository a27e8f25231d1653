// End-to-end benchmark of the omig live runtime and simulator.
//
//   omig_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR
//
// Live workloads drive an in-process runtime::LiveSystem (4 nodes) from two
// closed-loop client threads that replay scenario::make_scenario burst
// streams through the public API and time every call. sim-fig16 runs the
// paper's Figure 16 grid through core::run_experiment on util::Executor,
// the executor core::run_sweep uses, and checks it against core::run_sweep.
//
// Spans are recorded here, around the calls into the program, never inside
// it; they are kept in memory and written to DIR as a Chrome trace when the
// run ends. End-to-end times are scaled to a reference host speed with a
// probe run next to each measured interval (see "host speed" below). The
// lines before the last are for people: the CPUs the run is pinned to, the
// host's steal share and slowdown, one "name value unit [n=samples]
// [passes=N]" line per metric and the failed fraction. The last line is the
// JSON result perfbench/run.py forwards. perfbench/README.md lists the
// workloads and which end-to-end metric each layer metric should move.
#include <sched.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "obs/families.hpp"
#include "runtime/demo_types.hpp"
#include "runtime/live_system.hpp"
#include "scenario/scenario.hpp"
#include "util/executor.hpp"

namespace {

using omig::runtime::LiveSystem;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Raw per-call samples. Quantiles are nearest-rank over the sorted values.
class Samples {
public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const auto n = static_cast<double>(sorted.size());
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
  }
  [[nodiscard]] double mean() const {
    if (values_.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }

private:
  std::vector<double> values_;
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------------ spans

struct Span {
  const char* name = "";
  std::uint64_t trace_id = 0;  ///< shared by the spans of one burst / cell
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    ///< 0 = root
  Clock::time_point start;
  Clock::time_point end;
  int tid = 0;
};

/// One thread's span buffer. Ids are reserved before a span's children are
/// recorded, so a parent can be added after them, when it ends.
class SpanLog {
public:
  SpanLog(int tid, std::uint64_t id_base) : tid_{tid}, next_{id_base} {}

  void set_enabled(bool on) { enabled_ = on; }
  std::uint64_t reserve() { return enabled_ ? next_++ : 0; }
  void add(std::uint64_t id, const char* name, std::uint64_t trace_id,
           std::uint64_t parent, Clock::time_point start,
           Clock::time_point end) {
    if (enabled_) {
      spans_.push_back({name, trace_id, id, parent, start, end, tid_});
    }
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
  int tid_;
  std::uint64_t next_;
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// Mean self time per span name in µs: a span's duration minus the part of
/// its interval that its children cover (children may overlap each other,
/// e.g. sweep cells on two threads).
std::map<std::string, double> self_times_us(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, std::pair<double, std::size_t>> acc;
  for (const Span& s : spans) {
    double covered = 0.0;
    if (auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const Span* c : it->second) {
        const auto a = std::max(c->start, s.start);
        const auto b = std::min(c->end, s.end);
        if (a < b) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::optional<std::pair<Clock::time_point, Clock::time_point>> run;
      for (const auto& [a, b] : iv) {
        if (run && a <= run->second) {
          run->second = std::max(run->second, b);
          continue;
        }
        if (run) covered += us_between(run->first, run->second);
        run.emplace(a, b);
      }
      if (run) covered += us_between(run->first, run->second);
    }
    auto& [sum, n] = acc[s.name];
    sum += us_between(s.start, s.end) - covered;
    ++n;
  }
  std::map<std::string, double> out;
  for (const auto& [name, a] : acc) {
    out[name] = a.first / static_cast<double>(a.second);
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        Clock::time_point t0) {
  std::ofstream os{path};
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << us_between(t0, s.start)
       << ",\"dur\":" << us_between(s.start, s.end)
       << ",\"args\":{\"trace_id\":" << s.trace_id << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << "}}";
    first = false;
  }
  os << "\n]}\n";
}

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< raw samples behind a quantile/mean, 0 = n/a
  std::size_t passes = 0;   ///< passes it is the mean over, 0 = n/a
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0, std::size_t passes = 0) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), samples, passes});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }

  void print(std::ostream& os) const {
    char buf[64];
    for (const Metric& m : metrics) {
      std::snprintf(buf, sizeof buf, "%.6g", m.value);
      os << m.name << ' ' << buf << ' ' << m.unit;
      if (m.samples > 0) os << " n=" << m.samples;
      if (m.passes > 0) os << " passes=" << m.passes;
      os << '\n';
    }
    os << "attempted " << attempted << " failed " << failed << " failed_frac "
       << ratio(static_cast<double>(failed), static_cast<double>(attempted))
       << '\n';
    for (const std::string& e : errors) os << "CHECK FAILED: " << e << '\n';
    os << "{\"correct\": " << (errors.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics) {
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    os << "}}\n";
  }
};

/// Peak resident set of this process image. Read from VmHWM, not
/// getrusage(): ru_maxrss carries the parent's peak across fork and exec.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// End-to-end figures of each untraced pass (live) or sweep (sim), at the
/// reference host speed. A run reports their means: the host-speed probes
/// leave some pass-to-pass spread, and a mean moves smoothly with it where
/// a median of few passes jumps.
struct PassStats {
  /// peak_rss_mb is read after this many passes, a fixed amount of work:
  /// the runtime's resident set grows with the operations it has served,
  /// and a fixed-time run serves fewer on a slow host.
  static constexpr std::size_t kRssPasses = 8;

  Samples seconds, block_p50, block_p99, invoke_p50, invoke_p99;
  double blocks = 0.0;
  double busy_s = 0.0;
  std::optional<double> rss_mb;
  std::size_t block_samples = 0;
  std::size_t invoke_samples = 0;

  /// `scale` turns the pass's times into times at the reference host speed.
  void add(double wall, double pass_blocks, const Samples& block_us,
           const Samples& invoke_us, double scale) {
    seconds.add(wall * scale);
    blocks += pass_blocks;
    busy_s += wall * scale;
    block_p50.add(block_us.quantile(0.5) * scale);
    block_p99.add(block_us.quantile(0.99) * scale);
    invoke_p50.add(invoke_us.quantile(0.5) * scale);
    invoke_p99.add(invoke_us.quantile(0.99) * scale);
    block_samples += block_us.size();
    invoke_samples += invoke_us.size();
    if (seconds.size() == kRssPasses) rss_mb = peak_rss_mb();
  }

  void emit(Report& r, const Samples& setup_s) const {
    const std::size_t n = seconds.size();
    r.add("setup_s", setup_s.quantile(0.5), "s", setup_s.size());
    r.add("peak_rss_mb", rss_mb.value_or(peak_rss_mb()), "MB");
    r.add("blocks_per_s", blocks / busy_s, "1/s", 0, n);
    r.add("block_p50_us", block_p50.mean(), "us", block_samples, n);
    r.add("block_p99_us", block_p99.mean(), "us", block_samples, n);
    r.add("invoke_p50_us", invoke_p50.mean(), "us", invoke_samples, n);
    r.add("invoke_p99_us", invoke_p99.mean(), "us", invoke_samples, n);
    r.add("sweep_s", seconds.mean(), "s", 0, n);
  }
};

/// Every per-layer metric, in the order BENCHMARK.json lists them. A
/// workload reports 0 for the layers it bypasses.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> names{
      {"runtime.move_p50_us", "us"},
      {"runtime.move_p99_us", "us"},
      {"runtime.end_p50_us", "us"},
      {"runtime.end_p99_us", "us"},
      {"runtime.migration_mean_us", "us"},
      {"runtime.migrations_per_block", "count"},
      {"runtime.refused_frac", "ratio"},
      {"runtime.retries", "count"},
      {"runtime.block_self_us", "us"},
      {"runtime.invoke_local_mean_us", "us"},
      {"runtime.invoke_remote_mean_us", "us"},
      {"runtime.remote_invoke_frac", "ratio"},
      {"transport.frames_per_invoke", "count"},
      {"transport.bytes_per_frame", "bytes"},
      {"transport.send_rejections", "count"},
      {"transport.reconnects", "count"},
      {"objsys.dir_lookups_per_invoke", "count"},
      {"objsys.dir_hit_frac", "ratio"},
      {"objsys.dir_stale_frac", "ratio"},
      {"objsys.dir_forward_hops_per_lookup", "count"},
      {"objsys.dir_lookup_mean_us", "us"},
      {"objsys.dir_updates_per_migration", "count"},
      {"store.wal_appends_per_migration", "count"},
      {"store.fsyncs_per_migration", "count"},
      {"store.wal_bytes_per_append", "bytes"},
      {"store.snapshot_installs", "count"},
      {"store.recovery_s", "s"},
      {"store.replayed_objects", "count"},
      {"sim.events", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"migration.migrations", "count"},
      {"migration.transfers", "count"},
      {"migration.control_messages", "count"},
      {"migration.blocked_calls", "count"},
      {"core.cell_p50_s", "s"},
      {"core.cell_max_s", "s"},
      {"core.sweep_efficiency", "ratio"},
      {"span.workload.self_us", "us"},
      {"span.setup.self_us", "us"},
      {"span.create.self_us", "us"},
      {"span.attach.self_us", "us"},
      {"span.move.self_us", "us"},
      {"span.visit.self_us", "us"},
      {"span.invoke.self_us", "us"},
      {"span.end.self_us", "us"},
      {"span.sweep.self_us", "us"},
      {"span.cell.self_us", "us"},
      {"trace.overhead_frac", "ratio"},
  };
  return names;
}

/// Per-layer values keyed by metric name; emitted in layer_metrics() order.
struct LayerValues {
  std::map<std::string, std::pair<double, std::size_t>> values;
  void set(const std::string& name, double v, std::size_t samples = 0) {
    values[name] = {v, samples};
  }
  void set(const std::string& name, std::pair<double, std::size_t> v) {
    values[name] = v;
  }
  void emit(Report& report) const {
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = values.find(name);
      if (it == values.end()) {
        report.add(name, 0.0, unit);
      } else {
        report.add(name, it->second.first, unit, it->second.second);
      }
    }
  }
  void add_self_times(const std::vector<Span>& spans) {
    for (const auto& [name, us] : self_times_us(spans)) {
      // A burst's self time is the client's own time between its calls.
      set(name == "burst" ? "runtime.block_self_us"
                          : "span." + name + ".self_us",
          us);
    }
  }
};

/// The aggregate "cpu" line of /proc/stat (empty if unreadable). Printed
/// with each run so that a noisy run on a shared host can be recognised.
std::vector<std::uint64_t> host_cpu_ticks() {
  std::ifstream stat{"/proc/stat"};
  std::string label;
  stat >> label;
  std::vector<std::uint64_t> ticks;
  for (std::uint64_t v = 0; label == "cpu" && stat >> v;) ticks.push_back(v);
  return ticks;
}

/// Restricts this process, before it starts any thread, to the last `n`
/// CPUs it may run on; returns them. On a shared virtual machine a runtime
/// spread over every vCPU pays the hypervisor's scheduling delay on each
/// cross-thread handoff: unpinned live runs saw 15-19% steal and a 3x
/// throughput range, pinned runs about 1% steal. Pinning keeps handoffs
/// local context switches, so the figures measure the mechanism's cost per
/// operation, not multi-core scaling.
std::vector<int> pin_to_cpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && std::ssize(cpus) < n; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.insert(cpus.begin(), cpu);
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (const int cpu : cpus) CPU_SET(cpu, &pinned);
  if (sched_setaffinity(0, sizeof pinned, &pinned) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  return cpus;
}

// ------------------------------------------------------------- host speed
//
// Host speed on a shared virtual machine is not steady. Each vCPU runs at
// full speed or at about half of it, in spells of seconds to minutes (a
// fixed loop took 7.5 ms or 15 ms on the same vCPU). Over 30 s runs, the
// raw end-to-end times of identical code spread 0.1-0.3 (interquartile
// range / median of 5-10 runs), and taking the fastest passes did not
// help: some runs never met a fast spell. So every end-to-end time is
// scaled to a reference host speed. A fixed probe, independent of the
// program, runs on the same CPUs next to each measured interval, and the
// interval is multiplied by (reference µs) / (probe µs). The scaled values
// stay in seconds and µs: they read as raw times on a host in its fast
// state.
//
// Each workload kind has the probe that shares its cost mix. The live
// runtime's cost is thread handoffs and syscalls; the simulator's is CPU
// work on an event queue. A CPU probe over-corrects the live workloads
// (their slowdown is about half the CPU probe's), and left their spread at
// 0.05-0.15; the handoff probe brought it to 0.02-0.08. The simulator's
// spread fell from 0.33 to 0.03 with the CPU probe.

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

/// Probe times on a 4-vCPU Xeon VM in its fast state.
constexpr double kCpuProbeRefUs = 400.0;
constexpr double kHandoffProbeRefUs = 1200.0;

/// Keeps cpu_probe_us()'s loop from being optimised out.
std::atomic<std::uint64_t> probe_sink{0};

/// Thread CPU µs of fixed work shaped like a discrete-event simulator's
/// inner loop: pop the earliest event of a binary heap, push a later one,
/// update a table entry.
double cpu_probe_us() {
  constexpr std::size_t kEvents = 1024;
  constexpr std::size_t kTable = 4096;
  constexpr int kSteps = 20000;
  thread_local std::vector<std::uint64_t> heap, table;
  const double t0 = thread_cpu_us();
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  heap.resize(kEvents);
  table.assign(kTable, 0);
  for (auto& e : heap) e = next();
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const std::uint64_t t = heap.back();
    heap.back() = t + (next() & 0xffff);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    acc += table[(next() >> 7) % kTable] += t;
  }
  const double us = thread_cpu_us() - t0;
  probe_sink.store(acc, std::memory_order_relaxed);
  return us;
}

/// Wall µs of 300 one-byte round trips over a socketpair between the
/// calling thread and a helper thread on the same CPUs: each way, a write,
/// a wakeup, a context switch and a read. Mean of 3 probes.
double handoff_probe_us() {
  constexpr int kTrips = 300;
  constexpr int kProbes = 3;
  double total = 0.0;
  for (int p = 0; p < kProbes; ++p) {
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    bool ok = true;
    const auto t0 = Clock::now();
    std::thread peer([fd = fds[1]] {
      char c = 0;
      for (int i = 0; i < kTrips; ++i) {
        if (read(fd, &c, 1) != 1 || write(fd, &c, 1) != 1) {
          ::shutdown(fd, SHUT_RDWR);  // ends the caller's read
          return;
        }
      }
    });
    char c = 'x';
    for (int i = 0; ok && i < kTrips; ++i) {
      ok = write(fds[0], &c, 1) == 1 && read(fds[0], &c, 1) == 1;
    }
    const auto t1 = Clock::now();
    if (!ok) ::shutdown(fds[0], SHUT_RDWR);  // ends the peer's read
    peer.join();
    close(fds[0]);
    close(fds[1]);
    if (!ok) throw std::runtime_error("handoff probe: socketpair I/O failed");
    total += us_between(t0, t1);
  }
  return total / kProbes;
}

/// Turns probe times into the factors that scale measured times to the
/// reference host speed, and keeps the slowdowns (probe / reference) for
/// the info line that tells a reader how far a run's times were scaled.
class HostSpeed {
public:
  explicit HostSpeed(double ref_us) : ref_us_{ref_us} {}

  /// Factor for an interval measured between probes of `before_us` and
  /// `after_us`.
  double scale(double before_us, double after_us) {
    const double slowdown = (before_us + after_us) / (2.0 * ref_us_);
    slowdowns_.add(slowdown);
    return 1.0 / slowdown;
  }

  void print(std::ostream& os) const {
    os << "host_slowdown " << slowdowns_.quantile(0.5) << " (median of "
       << slowdowns_.size() << ", range " << slowdowns_.quantile(0.0) << "-"
       << slowdowns_.quantile(1.0)
       << "; not a metric: end-to-end times are divided by it)\n";
  }

private:
  double ref_us_;
  Samples slowdowns_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

/// Times `set_up` at least kMinSetups times and until kSetupBudgetS has
/// passed (capped at kMaxSetups), so a cheap set-up still has a steady
/// median. `tear_down` undoes the previous set-up, untimed. The times are
/// scaled to the reference host speed by `probe` runs before and after.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 200;
constexpr double kSetupBudgetS = 0.25;

template <class Probe, class TearDown, class SetUp>
Samples time_setups(SpanLog& spans, HostSpeed& speed, Probe&& probe,
                    TearDown&& tear_down, SetUp&& set_up) {
  std::vector<double> raw;
  double spent = 0.0;
  const double probe_before = probe();
  for (int k = 0; k < kMaxSetups && (k < kMinSetups || spent < kSetupBudgetS);
       ++k) {
    tear_down();
    const std::uint64_t id = spans.reserve();
    const auto t0 = Clock::now();
    set_up(id);
    const auto t1 = Clock::now();
    spans.add(id, "setup", id, 0, t0, t1);
    raw.push_back(seconds_between(t0, t1));
    spent += seconds_between(t0, t1);
  }
  const double scale = speed.scale(probe_before, probe());
  Samples seconds;
  for (const double s : raw) seconds.add(s * scale);
  return seconds;
}

// ----------------------------------------------------------- live workloads

struct LiveWorkload {
  omig::scenario::ScenarioOptions scenario;
  LiveSystem::Options system;
  int bursts_per_pass = 0;  ///< per client
  /// Bursts per client replayed on a WAL-backed copy after the measured
  /// window (check_durability); 0 = no store.
  int durable_bursts = 0;
};

constexpr int kClients = 2;
constexpr std::size_t kNodes = 4;

LiveWorkload make_live_workload(const std::string& name) {
  LiveWorkload w;
  w.scenario.nodes = static_cast<int>(kNodes);
  w.scenario.sources = 8;
  w.scenario.objects = 48;
  w.system.nodes = kNodes;
  w.system.policy = omig::runtime::MovePolicy::Placement;
  w.system.directory = omig::objsys::DirectoryKind::Sharded;
  w.system.dir_strategy = omig::objsys::ConsistencyStrategy::LazyForward;
  if (name == "invoke-cache") {
    w.scenario.name = "cache";
    w.scenario.zipf_theta = 0.99;
    w.scenario.read_fraction = 0.9;
    w.scenario.move_fraction = 0.05;
    w.system.transport = omig::runtime::TransportKind::AsyncTcp;
    w.bursts_per_pass = 4000;
  } else if (name == "visit-social") {
    w.scenario.name = "social";
    w.system.transport = omig::runtime::TransportKind::InProc;
    w.system.a_transitive_attachments = true;
    w.bursts_per_pass = 1500;
    w.durable_bursts = 100;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

/// Starts a system and materialises the population as demo counters.
std::unique_ptr<LiveSystem> set_up_system(
    const LiveSystem::Options& options, const omig::scenario::Population& pop,
    SpanLog& spans, std::uint64_t parent) {
  auto system = std::make_unique<LiveSystem>(options);
  omig::runtime::register_demo_types(*system);
  system->start();
  for (const auto& spec : pop.objects) {
    const auto t0 = Clock::now();
    const bool ok = system->create(
        spec.name, omig::runtime::make_state("counter", {{"count", "0"}}),
        spec.home % kNodes);
    spans.add(spans.reserve(), "create", parent, parent, t0, Clock::now());
    if (!ok) throw std::runtime_error("create failed: " + spec.name);
  }
  for (const auto& edge : pop.attachments) {
    const auto t0 = Clock::now();
    const bool ok = system->attach(
        pop.objects[edge.a].name, pop.objects[edge.b].name,
        edge.alliance != omig::scenario::kNone ? pop.alliances[edge.alliance]
                                               : "");
    spans.add(spans.reserve(), "attach", parent, parent, t0, Clock::now());
    if (!ok) throw std::runtime_error("attach failed");
  }
  return system;
}

/// What the clients measured: raw per-call samples and operation counts.
struct Tally {
  Samples burst_us, invoke_us, move_us, end_us;
  std::uint64_t bursts = 0, blocks = 0, refusals = 0, invokes = 0,
                failed = 0;

  void merge(const Tally& o, bool with_samples = true) {
    if (with_samples) {
      burst_us.append(o.burst_us);
      invoke_us.append(o.invoke_us);
      move_us.append(o.move_us);
      end_us.append(o.end_us);
    }
    bursts += o.bursts;
    blocks += o.blocks;
    refusals += o.refusals;
    invokes += o.invokes;
    failed += o.failed;
  }
};

/// One closed-loop client: a static share of the sources, replayed round
/// robin, each from its own per-source stream.
struct Client {
  Client(int index, const omig::scenario::Scenario& scenario,
         std::uint64_t seed)
      : spans{index + 1, (static_cast<std::uint64_t>(index) + 1) << 40} {
    for (std::size_t s = static_cast<std::size_t>(index);
         s < scenario.sources(); s += kClients) {
      sources.push_back(s);
      rngs.emplace_back(
          omig::scenario::source_stream(seed, scenario.name(), s), 0);
    }
  }

  std::vector<std::size_t> sources;
  std::vector<omig::sim::Rng> rngs;
  std::size_t cursor = 0;
  omig::scenario::Burst burst;
  SpanLog spans;
  Tally tally;
};

void run_burst(LiveSystem& system, const omig::scenario::Scenario& scenario,
               Client& c, std::vector<std::atomic<std::uint64_t>>& adds,
               std::uint64_t root) {
  namespace sc = omig::scenario;
  const std::size_t i = c.cursor++ % c.sources.size();
  const std::size_t source = c.sources[i];
  (void)scenario.next_arrival(source, c.rngs[i]);  // closed loop: no pacing
  scenario.next_burst(source, c.rngs[i], c.burst);
  const sc::Population& pop = scenario.population();
  const std::size_t origin =
      (c.burst.origin != sc::kNone ? c.burst.origin
                                   : scenario.source_node(source)) %
      kNodes;

  const std::uint64_t burst_id = c.spans.reserve();
  const auto t0 = Clock::now();
  LiveSystem::MoveToken token;
  const bool has_block = c.burst.target != sc::kNone;
  if (has_block) {
    const std::string& target = pop.objects[c.burst.target].name;
    const std::string alliance = c.burst.alliance != sc::kNone
                                     ? pop.alliances[c.burst.alliance]
                                     : "";
    const auto m0 = Clock::now();
    token = c.burst.visit ? system.visit(target, origin, alliance)
                          : system.move(target, origin, alliance);
    const auto m1 = Clock::now();
    c.tally.move_us.add(us_between(m0, m1));
    c.spans.add(c.spans.reserve(), c.burst.visit ? "visit" : "move",
                burst_id, burst_id, m0, m1);
    ++c.tally.blocks;
    if (!token.granted) ++c.tally.refusals;
  }
  for (const sc::Burst::Call& call : c.burst.calls) {
    const std::string& object = pop.objects[call.object].name;
    const auto i0 = Clock::now();
    const omig::runtime::InvokeResult result =
        call.read ? system.invoke_from(origin, object, "get", "")
                  : system.invoke_from(origin, object, "add", "1");
    const auto i1 = Clock::now();
    c.tally.invoke_us.add(us_between(i0, i1));
    c.spans.add(c.spans.reserve(), "invoke", burst_id, burst_id, i0, i1);
    ++c.tally.invokes;
    if (!result.ok) {
      ++c.tally.failed;
    } else if (!call.read) {
      adds[call.object].fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (has_block) {
    const auto e0 = Clock::now();
    system.end(token);
    const auto e1 = Clock::now();
    c.tally.end_us.add(us_between(e0, e1));
    c.spans.add(c.spans.reserve(), "end", burst_id, burst_id, e0, e1);
  }
  const auto t1 = Clock::now();
  c.tally.burst_us.add(us_between(t0, t1));
  c.spans.add(burst_id, "burst", burst_id, root, t0, t1);
  ++c.tally.bursts;
}

/// Runs `bursts` bursts on every client concurrently; returns when the pass
/// started and ended.
std::pair<Clock::time_point, Clock::time_point> run_pass(
    LiveSystem& system, const omig::scenario::Scenario& scenario,
    std::vector<Client>& clients,
    std::vector<std::atomic<std::uint64_t>>& adds, int bursts, bool traced,
    std::uint64_t root) {
  std::vector<std::exception_ptr> errors(clients.size());
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t k = 0; k < clients.size(); ++k) {
      clients[k].spans.set_enabled(traced);
      threads.emplace_back([&, k] {
        try {
          for (int b = 0; b < bursts; ++b) {
            run_burst(system, scenario, clients[k], adds, root);
          }
        } catch (...) {
          errors[k] = std::current_exception();
        }
      });
    }
  }  // the jthreads join here, also if starting one of them threw
  const auto t1 = Clock::now();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return {t0, t1};
}

/// Counters the program exports, read before and after the measured window.
std::map<std::string, double> capture(const LiveSystem& s) {
  const auto& rt = omig::obs::runtime_metrics();
  const auto& tr = omig::obs::transport_metrics();
  const auto& st = omig::obs::store_metrics();
  const auto& dir = omig::obs::dir_metrics();
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"invocations", d(s.invocations())},
      {"remote", d(s.remote_invocations())},
      {"migrations", d(s.migrations())},
      {"retries", d(s.retries())},
      {"send_rejections", d(s.send_rejections())},
      {"reconnects", d(s.transport_reconnects())},
      {"dir_lookups", d(s.dir_lookups())},
      {"dir_hits", d(s.dir_cache_hits())},
      {"dir_stale", d(s.dir_stale_hits())},
      {"dir_hops", d(s.dir_forward_hops())},
      {"dir_updates", d(s.dir_updates())},
      {"inv_local_sum", d(rt.invoke_local_us->sum())},
      {"inv_local_n", d(rt.invoke_local_us->count())},
      {"inv_remote_sum", d(rt.invoke_remote_us->sum())},
      {"inv_remote_n", d(rt.invoke_remote_us->count())},
      {"mig_sum", d(rt.migration_us->sum())},
      {"mig_n", d(rt.migration_us->count())},
      {"frames_out", d(tr.frames_out->value())},
      {"frame_bytes_out", d(tr.frame_bytes_out->value())},
      {"lookup_sum", d(dir.lookup_us->sum())},
      {"lookup_n", d(dir.lookup_us->count())},
      {"wal_appends", d(st.wal_appends->value())},
      {"wal_fsyncs", d(st.wal_fsyncs->value())},
      {"wal_bytes", d(st.wal_bytes->value())},
      {"snapshot_installs", d(st.snapshot_installs->value())},
  };
}

std::map<std::string, double> operator-(
    std::map<std::string, double> after,
    const std::map<std::string, double>& before) {
  for (auto& [key, value] : after) value -= before.at(key);
  return after;
}

std::vector<Client> make_clients(const omig::scenario::Scenario& scenario,
                                 std::uint64_t seed) {
  std::vector<Client> clients;
  for (int k = 0; k < kClients; ++k) clients.emplace_back(k, scenario, seed);
  return clients;
}

/// Moves the clients' tallies into one.
Tally collect(std::vector<Client>& clients) {
  Tally t;
  for (Client& c : clients) {
    t.merge(c.tally);
    c.tally = Tally{};
  }
  return t;
}

/// Checks that every counter holds exactly the adds that were acked.
void check_counters(LiveSystem& system, const omig::scenario::Population& pop,
                    const std::vector<std::atomic<std::uint64_t>>& adds,
                    Report& report) {
  for (std::size_t o = 0; o < pop.objects.size(); ++o) {
    const auto got = system.invoke(pop.objects[o].name, "get", "");
    const std::string want = std::to_string(adds[o].load());
    report.check(got.ok && got.value == want,
                 pop.objects[o].name + " holds " + got.value + ", expected " +
                     want);
  }
}

struct Durability {
  std::map<std::string, double> delta;  ///< capture() over the replay
  double recovery_s = 0.0;
  double replayed = 0.0;
};

/// Replays `w.durable_bursts` bursts per client on a WAL-backed copy of the
/// workload's system, stops it, and checks that a fresh system on the same
/// directory recovers every object where it was. Runs after the measured
/// window: fsync latency on a shared disk is too unsteady to time.
Durability check_durability(const LiveWorkload& w,
                            const omig::scenario::Scenario& scenario,
                            const Args& args, Report& report) {
  const auto& pop = scenario.population();
  LiveSystem::Options options = w.system;
  options.data_dir = args.work_dir + "/store-" + args.workload;
  std::filesystem::remove_all(options.data_dir);
  SpanLog no_spans{0, 1};
  auto system = set_up_system(options, pop, no_spans, 0);
  std::vector<std::atomic<std::uint64_t>> adds(pop.objects.size());
  std::vector<Client> clients = make_clients(scenario, args.seed);
  const auto before = capture(*system);
  run_pass(*system, scenario, clients, adds, w.durable_bursts, false, 0);
  Durability out;
  out.delta = capture(*system) - before;
  const Tally t = collect(clients);
  report.attempted += t.invokes + 2 * t.blocks;
  report.failed += t.failed;
  check_counters(*system, pop, adds, report);

  std::vector<std::optional<std::size_t>> where;
  for (const auto& spec : pop.objects) {
    where.push_back(system->location(spec.name));
  }
  system->stop();
  system.reset();
  const auto r0 = Clock::now();
  LiveSystem reopened{options};
  omig::runtime::register_demo_types(reopened);
  reopened.start();
  out.recovery_s = seconds_between(r0, Clock::now());
  out.replayed = static_cast<double>(reopened.replayed_objects());
  report.check(reopened.replayed_objects() == pop.objects.size(),
               "recovered " + std::to_string(reopened.replayed_objects()) +
                   " of " + std::to_string(pop.objects.size()) + " objects");
  for (std::size_t o = 0; o < pop.objects.size(); ++o) {
    report.check(where[o].has_value() &&
                     reopened.location(pop.objects[o].name) == where[o],
                 pop.objects[o].name + " not recovered at its location");
  }
  reopened.stop();
  std::filesystem::remove_all(options.data_dir);
  return out;
}

void run_live(const Args& args, Report& report) {
  const LiveWorkload w = make_live_workload(args.workload);
  const auto scenario = omig::scenario::make_scenario(w.scenario);
  const auto& pop = scenario->population();
  const auto run_start = Clock::now();
  SpanLog main_spans{0, 1};
  main_spans.set_enabled(args.trace);

  std::unique_ptr<LiveSystem> system;
  HostSpeed speed{kHandoffProbeRefUs};
  const Samples setup_s = time_setups(
      main_spans, speed, handoff_probe_us,
      [&] {
        if (system) system->stop();
        system.reset();
      },
      [&](std::uint64_t id) {
        system = set_up_system(w.system, pop, main_spans, id);
      });

  std::vector<std::atomic<std::uint64_t>> adds(pop.objects.size());
  std::vector<Client> clients = make_clients(*scenario, args.seed);

  // Warm-up: one unmeasured pass fills caches and finishes lazy set-up.
  run_pass(*system, *scenario, clients, adds, w.bursts_per_pass, false, 0);
  Tally all = collect(clients);
  const std::uint64_t warmup_calls = all.invokes + 2 * all.blocks;
  const std::uint64_t warmup_failed = all.failed;
  all = Tally{};

  const auto before = capture(*system);
  PassStats stats;
  Samples traced_pass_s;
  double busy = 0.0;
  // A probe between passes, so that each pass lies between two.
  double probe_before = handoff_probe_us();
  // A traced run needs at least one traced and one untraced pass.
  for (int pass = 0; busy < args.seconds || (args.trace && pass < 2);
       ++pass) {
    // A traced run alternates traced and untraced passes so the overhead
    // is measured on the same system state.
    const bool traced = args.trace && pass % 2 == 1;
    const std::uint64_t root = traced ? main_spans.reserve() : 0;
    const auto [t0, t1] = run_pass(*system, *scenario, clients, adds,
                                   w.bursts_per_pass, traced, root);
    if (traced) main_spans.add(root, "workload", root, 0, t0, t1);
    const double wall = seconds_between(t0, t1);
    busy += wall;
    const double probe_after = handoff_probe_us();
    const double scale = speed.scale(probe_before, probe_after);
    probe_before = probe_after;
    const Tally t = collect(clients);
    if (traced) {
      traced_pass_s.add(wall * scale);
    } else {
      stats.add(wall, static_cast<double>(t.bursts), t.burst_us, t.invoke_us,
                scale);
    }
    // Pooled samples feed only the traced run's per-layer quantiles, so an
    // untraced run's memory does not grow with its length.
    all.merge(t, args.trace);
  }
  const auto delta = capture(*system) - before;

  std::vector<Span> spans = main_spans.spans();
  for (const Client& c : clients) {
    spans.insert(spans.end(), c.spans.spans().begin(), c.spans.spans().end());
  }
  report.attempted = warmup_calls + all.invokes + 2 * all.blocks;
  report.failed = warmup_failed + all.failed;
  check_counters(*system, pop, adds, report);
  system->stop();
  system.reset();

  std::optional<Durability> durable;
  if (w.durable_bursts > 0) {
    durable = check_durability(w, *scenario, args, report);
  }
  report.check(report.failed == 0,
               std::to_string(report.failed) + " calls failed");

  speed.print(std::cout);
  if (!args.trace) {
    stats.emit(report, setup_s);
    return;
  }

  LayerValues layer;
  const double blocks = static_cast<double>(all.blocks);
  const double invocations = delta.at("invocations");
  const double migrations = delta.at("migrations");
  const double lookups = delta.at("dir_lookups");
  auto mean_us = [&](const char* sum, const char* n) {
    return std::make_pair(ratio(delta.at(sum), delta.at(n)),
                          static_cast<std::size_t>(delta.at(n)));
  };
  const std::size_t moves = all.move_us.size();
  layer.set("runtime.move_p50_us", all.move_us.quantile(0.5), moves);
  layer.set("runtime.move_p99_us", all.move_us.quantile(0.99), moves);
  layer.set("runtime.end_p50_us", all.end_us.quantile(0.5), moves);
  layer.set("runtime.end_p99_us", all.end_us.quantile(0.99), moves);
  layer.set("runtime.migration_mean_us", mean_us("mig_sum", "mig_n"));
  layer.set("runtime.migrations_per_block", ratio(migrations, blocks));
  layer.set("runtime.refused_frac",
            ratio(static_cast<double>(all.refusals), blocks));
  layer.set("runtime.retries", delta.at("retries"));
  layer.set("runtime.invoke_local_mean_us",
            mean_us("inv_local_sum", "inv_local_n"));
  layer.set("runtime.invoke_remote_mean_us",
            mean_us("inv_remote_sum", "inv_remote_n"));
  layer.set("runtime.remote_invoke_frac",
            ratio(delta.at("remote"), invocations));
  layer.set("transport.frames_per_invoke",
            ratio(delta.at("frames_out"), invocations));
  layer.set("transport.bytes_per_frame",
            ratio(delta.at("frame_bytes_out"), delta.at("frames_out")));
  layer.set("transport.send_rejections", delta.at("send_rejections"));
  layer.set("transport.reconnects", delta.at("reconnects"));
  layer.set("objsys.dir_lookups_per_invoke", ratio(lookups, invocations));
  layer.set("objsys.dir_hit_frac", ratio(delta.at("dir_hits"), lookups));
  layer.set("objsys.dir_stale_frac", ratio(delta.at("dir_stale"), lookups));
  layer.set("objsys.dir_forward_hops_per_lookup",
            ratio(delta.at("dir_hops"), lookups));
  layer.set("objsys.dir_lookup_mean_us", mean_us("lookup_sum", "lookup_n"));
  layer.set("objsys.dir_updates_per_migration",
            ratio(delta.at("dir_updates"), migrations));
  if (durable) {
    const auto& d = durable->delta;
    layer.set("store.wal_appends_per_migration",
              ratio(d.at("wal_appends"), d.at("migrations")));
    layer.set("store.fsyncs_per_migration",
              ratio(d.at("wal_fsyncs"), d.at("migrations")));
    layer.set("store.wal_bytes_per_append",
              ratio(d.at("wal_bytes"), d.at("wal_appends")));
    layer.set("store.snapshot_installs", d.at("snapshot_installs"));
    layer.set("store.recovery_s", durable->recovery_s);
    layer.set("store.replayed_objects", durable->replayed);
  }

  layer.add_self_times(spans);
  layer.set("trace.overhead_frac",
            ratio(traced_pass_s.quantile(0.5) - stats.seconds.quantile(0.5),
                  stats.seconds.quantile(0.5)));
  layer.emit(report);
  write_chrome_trace(args.work_dir + "/trace-" + args.workload + ".json",
                     spans, run_start);
}

// -------------------------------------------------------------- sim-fig16

/// Simulated blocks per cell. The stopping rule is pinned (not read from
/// the OMIG_* environment) so every cell does the same amount of work.
constexpr std::uint64_t kBlocksPerCell = 4000;
constexpr int kSweepThreads = 2;
/// Distinct sweep seeds per run: averages out how much work one seed's
/// grid happens to draw.
constexpr std::size_t kSweepSeeds = 8;

std::vector<omig::core::SweepVariant> fig16_variants() {
  using omig::migration::AttachTransitivity;
  using omig::migration::PolicyKind;
  auto variant = [](std::string label, PolicyKind policy,
                    AttachTransitivity trans) {
    return omig::core::SweepVariant{
        std::move(label), [policy, trans](double x) {
          auto cfg =
              omig::core::fig16_config(static_cast<int>(x), policy, trans);
          cfg.stopping = omig::stats::StoppingRule{};
          cfg.stopping.min_observations = kBlocksPerCell;
          cfg.stopping.max_observations = kBlocksPerCell;
          return cfg;
        }};
  };
  return {
      variant("without-migration", PolicyKind::Sedentary,
              AttachTransitivity::Unrestricted),
      variant("migration+unrestricted", PolicyKind::Conventional,
              AttachTransitivity::Unrestricted),
      variant("migration+A-transitive", PolicyKind::Conventional,
              AttachTransitivity::ATransitive),
      variant("placement+unrestricted", PolicyKind::Placement,
              AttachTransitivity::Unrestricted),
      variant("placement+A-transitive", PolicyKind::Placement,
              AttachTransitivity::ATransitive),
  };
}

struct Cell {
  std::size_t variant = 0;
  std::size_t x = 0;
  omig::core::ExperimentConfig config;
  omig::core::ExperimentResult result;
  Clock::time_point start, end;
  /// CPU time of the cell's thread: unlike wall time, it leaves out time
  /// the thread waited for a CPU.
  double cpu_us = 0.0;
  /// cpu_probe_us() on the cell's thread just before and after the cell,
  /// and their wall time.
  double probe_before_us = 0.0, probe_after_us = 0.0, probe_s = 0.0;
};

bool same_result(const omig::core::ExperimentResult& a,
                 const omig::core::ExperimentResult& b) {
  return a.blocks == b.blocks && a.calls == b.calls &&
         a.migrations == b.migrations && a.transfers == b.transfers &&
         a.control_messages == b.control_messages &&
         a.remote_calls == b.remote_calls &&
         a.blocked_calls == b.blocked_calls && a.events == b.events &&
         a.total_per_call == b.total_per_call &&
         a.call_duration == b.call_duration &&
         a.migration_per_call == b.migration_per_call &&
         a.sim_time == b.sim_time;
}

void run_sim(const Args& args, Report& report) {
  const auto run_start = Clock::now();
  SpanLog main_spans{0, 1};
  main_spans.set_enabled(args.trace);

  // Set-up: the grid's configs and the sweep's thread pool.
  std::vector<Cell> cells;
  std::unique_ptr<omig::util::Executor> executor;
  std::vector<double> xs;
  std::vector<omig::core::SweepVariant> variants;
  HostSpeed speed{kCpuProbeRefUs};
  const Samples setup_s = time_setups(
      main_spans, speed, [] { return cpu_probe_us(); },
      [&] { executor.reset(); },
      [&](std::uint64_t) {
        variants = fig16_variants();
        xs.clear();
        for (int c = 1; c <= 12; ++c) xs.push_back(c);
        cells.clear();
        for (std::size_t xi = 0; xi < xs.size(); ++xi) {
          for (std::size_t vi = 0; vi < variants.size(); ++vi) {
            cells.push_back(
                {vi, xi, variants[vi].make_config(xs[xi]), {}, {}, {}});
          }
        }
        executor = std::make_unique<omig::util::Executor>(kSweepThreads);
      });

  // The program's own sweep: the reference every measured sweep must equal.
  omig::core::SweepOptions options;
  options.threads = kSweepThreads;
  options.base_seed = args.seed;
  const auto points = omig::core::run_sweep(xs, variants, options);

  // Cell spans go to per-cell slots, so the pool's threads never share one.
  std::vector<Span> cell_spans(cells.size());
  auto sweep = [&](std::uint64_t seed, bool traced, std::uint64_t sweep_id) {
    for (Cell& cell : cells) {
      cell.config.seed = omig::core::cell_seed(seed, cell.variant, cell.x, 0);
    }
    const auto t0 = Clock::now();
    executor->parallel_for(cells.size(), [&](std::size_t i) {
      Cell& cell = cells[i];
      const auto p0 = Clock::now();
      cell.probe_before_us = cpu_probe_us();
      cell.start = Clock::now();
      const double cpu0 = thread_cpu_us();
      cell.result = omig::core::run_experiment(cell.config);
      cell.cpu_us = thread_cpu_us() - cpu0;
      cell.end = Clock::now();
      cell.probe_after_us = cpu_probe_us();
      cell.probe_s = seconds_between(p0, cell.start) +
                     seconds_between(cell.end, Clock::now());
      if (traced) {
        cell_spans[i] = {"cell", sweep_id, sweep_id + 1 + i, sweep_id,
                         cell.start, cell.end, 1};
      }
    });
    return std::make_pair(t0, Clock::now());
  };

  PassStats stats;
  Samples untraced_wall_s, traced_wall_s, cell_s;
  std::vector<Span> spans = main_spans.spans();
  std::uint64_t events = 0;
  double cell_wall = 0.0, probe_wall = 0.0;
  double busy = 0.0;
  bool repeat_ok = true;
  // Sweep k uses base seed k % kSweepSeeds of this run (the first is the
  // run's own seed), so each seed repeats within a run and must give the
  // same results each time; the first also must equal core::run_sweep's.
  std::vector<std::vector<omig::core::ExperimentResult>> reference(kSweepSeeds);
  for (const auto& point : points) {
    reference[0].insert(reference[0].end(), point.results.begin(),
                        point.results.end());
  }
  std::uint64_t next_id = std::uint64_t{1} << 20;
  for (int rep = 0; busy < args.seconds || (args.trace && rep < 2); ++rep) {
    const auto slot = static_cast<std::size_t>(rep) % kSweepSeeds;
    const std::uint64_t seed =
        slot == 0 ? args.seed : omig::core::cell_seed(args.seed, 0, 0, slot);
    const bool traced = args.trace && rep % 2 == 1;
    const std::uint64_t sweep_id = next_id;
    next_id += cells.size() + 1;
    const auto [t0, t1] = sweep(seed, traced, sweep_id);
    const double wall = seconds_between(t0, t1);
    busy += wall;
    if (traced) {
      traced_wall_s.add(wall);
      spans.push_back({"sweep", sweep_id, sweep_id, 0, t0, t1, 0});
      spans.insert(spans.end(), cell_spans.begin(), cell_spans.end());
    } else {
      untraced_wall_s.add(wall);
    }
    const bool first = reference[slot].empty();
    // Host CPU per simulated block / call, at the reference host speed.
    Samples block_us, call_us;
    double blocks = 0.0, cpu_s = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      if (first) {
        reference[slot].push_back(cell.result);
      } else {
        repeat_ok = repeat_ok && same_result(cell.result, reference[slot][i]);
      }
      const double cpu_us =
          cell.cpu_us * speed.scale(cell.probe_before_us, cell.probe_after_us);
      cpu_s += cpu_us * 1e-6;
      block_us.add(cpu_us / static_cast<double>(cell.result.blocks));
      call_us.add(cpu_us / static_cast<double>(cell.result.calls));
      const double us = us_between(cell.start, cell.end);
      cell_s.add(us * 1e-6);
      cell_wall += us * 1e-6;
      probe_wall += cell.probe_s;
      blocks += static_cast<double>(cell.result.blocks);
      events += cell.result.events;
    }
    // The sweep's time is its cells' scaled CPU time spread over the
    // threads: the wall time of an evenly packed sweep without probes.
    if (!traced) {
      stats.add(cpu_s / kSweepThreads, blocks, block_us, call_us, 1.0);
    }
  }
  report.check(repeat_ok, "a sweep's results differ from an earlier sweep or "
                          "from core::run_sweep on the same seed");

  // attempted: cells run; failed: cells whose sweep raised (none: it throws).
  report.attempted = cell_s.size();
  report.failed = 0;

  speed.print(std::cout);
  if (!args.trace) {
    stats.emit(report, setup_s);
    return;
  }

  LayerValues layer;
  std::uint64_t migrations = 0, transfers = 0, control = 0, blocked = 0,
                sweep_events = 0;
  for (const auto& point : points) {
    for (const auto& r : point.results) {
      migrations += r.migrations;
      transfers += r.transfers;
      control += r.control_messages;
      blocked += r.blocked_calls;
      sweep_events += r.events;
    }
  }
  layer.set("sim.events", static_cast<double>(sweep_events));
  layer.set("sim.host_ns_per_event",
            cell_wall * 1e9 / static_cast<double>(events));
  layer.set("migration.migrations", static_cast<double>(migrations));
  layer.set("migration.transfers", static_cast<double>(transfers));
  layer.set("migration.control_messages", static_cast<double>(control));
  layer.set("migration.blocked_calls", static_cast<double>(blocked));
  layer.set("core.cell_p50_s", cell_s.quantile(0.5), cell_s.size());
  layer.set("core.cell_max_s", cell_s.quantile(1.0), cell_s.size());
  layer.set("core.sweep_efficiency",
            ratio(cell_wall + probe_wall, kSweepThreads * busy));
  layer.add_self_times(spans);
  layer.set("trace.overhead_frac",
            ratio(traced_wall_s.quantile(0.5) - untraced_wall_s.quantile(0.5),
                  untraced_wall_s.quantile(0.5)));
  layer.emit(report);
  write_chrome_trace(args.work_dir + "/trace-" + args.workload + ".json",
                     spans, run_start);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || !(args.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: omig_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 --work-dir DIR");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.work_dir);
    Report report;
    // One CPU per sweep thread for the simulator; one CPU for the live
    // runtime, whose nodes and clients mostly hand work to each other.
    const bool sim = args.workload == "sim-fig16";
    std::cout << "pinned to CPU";
    for (const int cpu : pin_to_cpus(sim ? kSweepThreads : 1)) {
      std::cout << ' ' << cpu;
    }
    std::cout << '\n';
    const auto cpu_before = host_cpu_ticks();
    if (sim) {
      run_sim(args, report);
    } else {
      run_live(args, report);
    }
    const auto cpu_after = host_cpu_ticks();
    if (cpu_before.size() > 7 && cpu_after.size() == cpu_before.size()) {
      // Field 8 of the cpu line is steal: time the hypervisor ran others.
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < cpu_after.size(); ++i) {
        total += cpu_after[i] - cpu_before[i];
      }
      std::cout << "host_steal_frac "
                << ratio(static_cast<double>(cpu_after[7] - cpu_before[7]),
                         static_cast<double>(total))
                << " (not a metric: CPU time the host gave to other guests)\n";
    }
    report.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "omig_perfbench: " << e.what() << '\n';
    return 1;
  }
}
