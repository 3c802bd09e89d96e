// perfbench: connection establishment, small RPCs and a full-duplex
// stream through bertha's negotiated chunnel stack, measured end to end
// (untraced) and per layer (traced, with the decorators in layers.hpp).
//
//   perfbench --workload rpc_small|stream_duplex|connect_churn
//             --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace
// 1 the per-layer ones. Why each workload exists, and which layer metric
// should move which end-to-end metric, is in NOTES.md.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/ping.hpp"
#include "control/cluster.hpp"
#include "core/endpoint.hpp"
#include "core/renegotiation.hpp"
#include "io/buffer_pool.hpp"
#include "io/timer_wheel.hpp"
#include "layers.hpp"
#include "net/factory.hpp"
#include "sim/simnic.hpp"
#include "util/rand.hpp"

using namespace bertha;
using namespace perfbench;

namespace {

// --- fixed workload parameters ---

constexpr size_t kSmall = 64;
constexpr size_t kLarge = 16 * 1024;
constexpr int kCallers = 2;               // rpc_small: one per connection
constexpr double kStreamRate = 750;       // stream_duplex offered msgs/s
constexpr Duration kStreamPoll = ms(5);   // receiver's recv deadline
constexpr Duration kLatencyLimit = ms(10);
constexpr Duration kOpTimeout = seconds(5);
constexpr int kSetups = 5;               // worlds per untraced run
constexpr size_t kTemplates = 32;        // distinct payload templates
constexpr Duration kWindow = seconds(1); // metrics are averaged over windows

const std::vector<std::string> kRpcStack(kChunnelTypes.begin(),
                                         kChunnelTypes.end());
const std::vector<std::string> kChurnStack = {"serialize", "encrypt", "frame",
                                              "reliable"};

// One line of the human-readable record above the JSON result.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void note(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::printf("# ");
  std::vprintf(fmt, ap);
  std::printf("\n");
  va_end(ap);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double to_us(Duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Host-wide steal time from /proc/stat, in ms.
double steal_ms() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  f >> cpu;
  for (uint64_t& x : v) f >> x;
  return static_cast<double>(v[7]) * 1000.0 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

// A field of /proc/self/status ("Threads", "VmRSS").
double proc_status(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  size_t n = std::strlen(key);
  while (std::getline(f, line))
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':')
      return std::atof(line.c_str() + n + 1);
  return 0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double idx = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// Mean of the middle half: drops the windows that a spell of contention
// from other tenants spoiled, and averages over the system's own faster
// and slower spells where a median would jump between them.
double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t cut = v.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; i++) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// Seeded payload: the first half is byte runs (compressible), the second
// half random bytes.
Bytes make_payload(Rng& rng, size_t n) {
  Bytes b(n);
  size_t i = 0;
  while (i < n / 2) {
    auto v = static_cast<uint8_t>(rng.next_below(256));
    size_t run = 8 + rng.next_below(57);
    for (size_t k = 0; k < run && i < n / 2; k++) b[i++] = v;
  }
  for (; i < n; i++) b[i] = static_cast<uint8_t>(rng.next_below(256));
  return b;
}

std::vector<Bytes> make_templates(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Bytes> out;
  for (size_t i = 0; i < kTemplates; i++) out.push_back(make_payload(rng, n));
  return out;
}

// Message `id` is template id % kTemplates with the id in its last 8
// bytes (inside the random half), so every echo is distinguishable.
Bytes payload_for(const std::vector<Bytes>& templates, uint64_t id) {
  Bytes b = templates[id % templates.size()];
  std::memcpy(b.data() + b.size() - 8, &id, 8);
  return b;
}

uint64_t payload_id(const Bytes& b) {
  uint64_t id = 0;
  if (b.size() >= 8) std::memcpy(&id, b.data() + b.size() - 8, 8);
  return id;
}

std::vector<NegotiatedNode> chain_of(const ConnPtr& c) {
  auto t = std::dynamic_pointer_cast<TransitionableConnection>(c);
  return t ? t->chain() : std::vector<NegotiatedNode>{};
}

std::string chain_str(const std::vector<NegotiatedNode>& chain) {
  std::string s;
  for (const auto& n : chain) s += (s.empty() ? "" : " |> ") + n.impl_name;
  return s;
}

// Waits up to 2 s for `pred`, for counters that settle asynchronously
// (close frames, replicated releases).
bool settles(const std::function<bool()>& pred) {
  Deadline dl = Deadline::after(seconds(2));
  while (!pred()) {
    if (dl.expired()) return false;
    sleep_for(ms(2));
  }
  return true;
}

// --- one timed phase ---

struct Sample {
  int64_t at_ns;  // completion time, from the start of the phase
  float lat_us;
};

struct Phase {
  uint64_t attempted = 0, failed = 0, completed = 0, ontime = 0;
  uint64_t payload_bytes = 0;  // of correct echoes
  uint64_t conns = 0, offloaded = 0;
  double gen_late_ms = 0;
  std::vector<std::string> errors;  // correctness failures
  std::vector<Sample> samples;
  std::vector<double> boundary_cpu_s;  // process CPU at each window edge
  double elapsed_s = 0, cpu_s = 0, steal_ms = 0;

  void error(const std::string& why) {
    if (errors.size() < 8) errors.push_back(why);
  }
  void fail(const std::string& why) {
    failed++;
    error(why);
  }
  void merge(Phase&& o) {
    attempted += o.attempted;
    failed += o.failed;
    completed += o.completed;
    ontime += o.ontime;
    payload_bytes += o.payload_bytes;
    conns += o.conns;
    offloaded += o.offloaded;
    for (const auto& e : o.errors) error(e);
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
  }
  void record(TimePoint t0, TimePoint at, Duration lat, size_t bytes) {
    completed++;
    payload_bytes += bytes;
    if (lat <= kLatencyLimit) ontime++;
    samples.push_back({(at - t0).count(), static_cast<float>(to_us(lat))});
  }
};

// Runs `body(phase, t0)` while a monitor samples process CPU at every
// window edge.
Phase timed_phase(const std::function<void(Phase&, TimePoint)>& body) {
  Phase ph;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  double steal0 = steal_ms();
  double cpu0 = process_cpu_s();
  TimePoint t0 = now();
  ph.boundary_cpu_s.push_back(cpu0);
  std::vector<double> edges;
  std::thread monitor([&] {
    std::unique_lock<std::mutex> lk(mu);
    for (int k = 1;; k++) {
      if (cv.wait_until(lk, t0 + k * kWindow, [&] { return done; })) return;
      edges.push_back(process_cpu_s());
    }
  });
  body(ph, t0);
  TimePoint t1 = now();
  {
    std::lock_guard<std::mutex> lk(mu);
    done = true;
  }
  cv.notify_all();
  monitor.join();
  ph.boundary_cpu_s.insert(ph.boundary_cpu_s.end(), edges.begin(), edges.end());
  ph.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  ph.cpu_s = process_cpu_s() - cpu0;
  ph.steal_ms = steal_ms() - steal0;
  return ph;
}

// Per-window figures of whole 1 s windows, pooled over phases. A phase
// shorter than one window counts as one window of its own length.
struct Windows {
  std::vector<double> p50, p99, ops, cpu;

  void add(const Phase& ph) {
    size_t n = ph.boundary_cpu_s.size() - 1;
    std::vector<std::vector<double>> lat(std::max<size_t>(n, 1));
    for (const Sample& s : ph.samples) {
      auto w = n ? static_cast<size_t>(s.at_ns / kWindow.count()) : 0;
      if (w < lat.size()) lat[w].push_back(s.lat_us);
    }
    double secs = n ? std::chrono::duration<double>(kWindow).count() : ph.elapsed_s;
    std::string per;
    for (size_t w = 0; w < lat.size(); w++) {
      if (lat[w].empty()) continue;
      double cpu_s = n ? ph.boundary_cpu_s[w + 1] - ph.boundary_cpu_s[w] : ph.cpu_s;
      p50.push_back(percentile(lat[w], 0.5));
      p99.push_back(percentile(lat[w], 0.99));
      ops.push_back(static_cast<double>(lat[w].size()) / secs);
      cpu.push_back(cpu_s * 1e6 / static_cast<double>(lat[w].size()));
      per += " " + std::to_string(static_cast<int>(p50.back())) + "/" +
             std::to_string(static_cast<int>(ops.back()));
    }
    note("per-window p50_us/ops:%s", per.c_str());
  }
};

// --- workloads ---

template <typename T>
T must(Result<T> r, const char* what) {
  if (!r.ok())
    throw std::runtime_error(std::string(what) + ": " + r.error().to_string());
  return std::move(r).value();
}

void must(Result<void> r, const char* what) {
  if (!r.ok())
    throw std::runtime_error(std::string(what) + ": " + r.error().to_string());
}

// A runtime whose chunnels (and, traced, discovery handle) are the stock
// ones, decorated when `traced`.
std::shared_ptr<Runtime> make_runtime(const std::string& host,
                                      std::shared_ptr<TransportFactory> tf,
                                      DiscoveryPtr disc, FaultStatsPtr stats,
                                      bool traced) {
  RuntimeConfig cfg;
  cfg.host_id = host;
  cfg.transports = std::move(tf);
  cfg.discovery = traced ? timed_discovery(std::move(disc)) : std::move(disc);
  cfg.fault_stats = std::move(stats);
  auto rt = must(Runtime::create(std::move(cfg)), "runtime");
  must(register_stock(*rt, traced), "chunnels");
  return rt;
}

ChunnelDag dag_of(const std::vector<std::string>& types) {
  std::vector<ChunnelSpec> specs;
  for (const auto& t : types) specs.emplace_back(t);
  return ChunnelDag::chain(std::move(specs));
}

// One request/echo on `conn`, checked byte for byte.
void rpc(Connection& conn, const Bytes& payload, Phase& ph, TimePoint t0) {
  ph.attempted++;
  TimePoint start = now();
  if (auto s = conn.send(Msg(Bytes(payload))); !s.ok())
    return ph.fail("send: " + s.error().to_string());
  auto echo = conn.recv(Deadline::after(kOpTimeout));
  if (!echo.ok()) return ph.fail("recv: " + echo.error().to_string());
  TimePoint end = now();
  if (echo.value().payload != payload)
    return ph.fail("echo differs from request " +
                   std::to_string(payload_id(payload)));
  ph.record(t0, end, end - start, payload.size());
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the world and warms it up; everything before timing starts.
  virtual void setup(bool traced, uint64_t seed) = 0;
  virtual Phase run(Duration length) = 0;
  // Post-run invariants; appends failures to ph.errors.
  virtual void check(Phase& ph) = 0;
  // The client side's negotiated chain.
  virtual std::vector<NegotiatedNode> chain() const = 0;
  virtual std::vector<std::shared_ptr<Runtime>> runtimes() const = 0;
  // Connections established since setup began.
  virtual uint64_t conns_total() const = 0;
  virtual const std::vector<std::string>& stack() const { return kRpcStack; }
  virtual size_t payload_size() const { return kSmall; }
  virtual bool floor_on_mem() const { return false; }
  virtual uint64_t control_failovers() const { return 0; }
  virtual uint64_t control_view_changes() const { return 0; }
};

// rpc_small: 2 callers, each a closed loop of 64 B request/echo on its
// own connection, over UDP loopback through the reactor.
class RpcSmall final : public Workload {
 public:
  void setup(bool traced, uint64_t seed) override {
    templates_ = make_templates(seed, kSmall);
    auto disc = std::make_shared<DiscoveryState>();
    auto stats = std::make_shared<FaultStats>();
    auto tf = std::make_shared<DefaultTransportFactory>();
    srv_rt_ = make_runtime("pb-srv", tf, disc, stats, traced);
    cli_rt_ = make_runtime("pb-cli", tf, disc, stats, traced);
    server_ = must(PingServer::start(srv_rt_, dag_of(kRpcStack),
                                     Addr::udp("127.0.0.1", 0)),
                   "ping server");
    auto ep = must(cli_rt_->endpoint("pb-rpc", ChunnelDag::empty()), "ep");
    for (int c = 0; c < kCallers; c++)
      conns_.push_back(must(
          ep.connect(server_->addr(), Deadline::after(seconds(10))), "connect"));
    Phase warm;
    for (auto& conn : conns_)
      for (int i = 0; i < 300; i++)
        rpc(*conn, payload_for(templates_, next_id_++), warm, now());
    sent_ += warm.attempted;
    if (warm.failed) throw std::runtime_error("warm-up: " + warm.errors[0]);
  }

  Phase run(Duration length) override {
    return timed_phase([&](Phase& ph, TimePoint t0) {
      std::vector<Phase> per(kCallers);
      std::vector<std::thread> callers;
      for (int c = 0; c < kCallers; c++)
        callers.emplace_back([&, c] {
          // Ids interleave so the callers never send the same bytes.
          for (uint64_t i = next_id_ + static_cast<uint64_t>(c);
               now() < t0 + length; i += kCallers) {
            rpc(*conns_[static_cast<size_t>(c)], payload_for(templates_, i),
                per[static_cast<size_t>(c)], t0);
            if (per[static_cast<size_t>(c)].failed) return;
          }
        });
      for (auto& t : callers) t.join();
      for (auto& p : per) {
        sent_ += p.attempted;
        ph.merge(std::move(p));
      }
    });
  }

  void check(Phase& ph) override {
    if (!settles([&] { return server_->echoed() == sent_; }))
      ph.errors.push_back("PingServer echoed " +
                          std::to_string(server_->echoed()) + " of " +
                          std::to_string(sent_) + " requests");
  }

  std::vector<NegotiatedNode> chain() const override {
    return chain_of(conns_.front());
  }
  std::vector<std::shared_ptr<Runtime>> runtimes() const override {
    return {srv_rt_, cli_rt_};
  }
  uint64_t conns_total() const override { return conns_.size(); }

  ~RpcSmall() override {
    for (auto& c : conns_) c->close();
    if (server_) server_->stop();
  }

 private:
  std::vector<Bytes> templates_;
  std::shared_ptr<Runtime> srv_rt_, cli_rt_;
  std::unique_ptr<PingServer> server_;
  std::vector<ConnPtr> conns_;
  uint64_t next_id_ = 0;
  uint64_t sent_ = 0;
};

// stream_duplex: an open loop of 16 KiB messages at a fixed rate on one
// connection over the mem transport; a sender thread sends on schedule
// while a receiver thread drains the echoes.
class StreamDuplex final : public Workload {
 public:
  void setup(bool traced, uint64_t seed) override {
    templates_ = make_templates(seed, kLarge);
    auto disc = std::make_shared<DiscoveryState>();
    auto stats = std::make_shared<FaultStats>();
    auto tf = std::make_shared<DefaultTransportFactory>(MemNetwork::create());
    srv_rt_ = make_runtime("pb-srv", tf, disc, stats, traced);
    cli_rt_ = make_runtime("pb-cli", tf, disc, stats, traced);
    server_ = must(PingServer::start(srv_rt_, dag_of(kRpcStack),
                                     Addr::mem("pb-srv", 100)),
                   "ping server");
    conn_ = must(must(cli_rt_->endpoint("pb-stream", ChunnelDag::empty()), "ep")
                     .connect(server_->addr(), Deadline::after(seconds(10))),
                 "connect");
    Phase warm;
    for (int i = 0; i < 200; i++)
      rpc(*conn_, payload_for(templates_, next_id_++), warm, now());
    sent_ += warm.attempted;
    received_ += warm.completed;
    if (warm.failed) throw std::runtime_error("warm-up: " + warm.errors[0]);
  }

  Phase run(Duration length) override {
    return timed_phase([&](Phase& ph, TimePoint t0) {
      const auto period = Duration(static_cast<int64_t>(1e9 / kStreamRate));
      const uint64_t due = static_cast<uint64_t>(length / period);
      const uint64_t first = next_id_;
      // Sends may run late, but stop one run length past the schedule;
      // echoes are awaited one run length past that.
      const TimePoint send_stop = t0 + 2 * length;
      const TimePoint drain_stop = t0 + 3 * length;
      std::vector<TimePoint> sched(due);
      for (uint64_t i = 0; i < due; i++)
        sched[i] = t0 + period * static_cast<int64_t>(i);
      std::vector<uint8_t> seen(due, 0);
      std::atomic<uint64_t> sent{0};
      std::atomic<bool> sender_done{false};
      std::string send_error;
      double late_max_ms = 0;

      std::thread sender([&] {
        for (uint64_t i = 0; i < due; i++) {
          if (now() < sched[i]) std::this_thread::sleep_until(sched[i]);
          if (now() >= send_stop) break;
          late_max_ms = std::max(late_max_ms, to_us(now() - sched[i]) / 1e3);
          auto s = conn_->send(Msg(payload_for(templates_, first + i)));
          if (!s.ok()) {
            send_error = "send: " + s.error().to_string();
            break;
          }
          sent.store(i + 1, std::memory_order_release);
        }
        sender_done.store(true, std::memory_order_release);
      });
      std::thread receiver([&] {
        uint64_t got = 0;
        for (;;) {
          bool all_sent = sender_done.load(std::memory_order_acquire);
          if (all_sent && got >= sent.load(std::memory_order_acquire)) return;
          if (now() >= drain_stop) return;
          auto m = conn_->recv(Deadline::at(std::min(drain_stop, now() + kStreamPoll)));
          if (!m.ok()) {
            if (m.error().code == Errc::timed_out) continue;
            ph.error("recv: " + m.error().to_string());
            return;
          }
          TimePoint at = now();
          const Bytes& p = m.value().payload;
          uint64_t id = payload_id(p);
          if (id < first || id - first >= due || seen[id - first] ||
              p != payload_for(templates_, id)) {
            ph.error("echo " + std::to_string(id) + " unexpected or corrupt");
            continue;
          }
          seen[id - first] = 1;
          got++;
          ph.record(t0, at, at - sched[id - first], p.size());
        }
      });
      sender.join();
      receiver.join();
      // Every due message is echoed or failed: unsent, send errors and
      // echoes missing at the drain deadline all count.
      ph.attempted = due;
      ph.failed = due - ph.completed;
      if (!send_error.empty()) ph.error(send_error);
      ph.gen_late_ms = late_max_ms;
      next_id_ += due;
      sent_ += sent.load();
      received_ += ph.completed;
    });
  }

  // The server echoed at least what came back and at most what was
  // sent; exactly what was sent once the stream has drained.
  void check(Phase& ph) override {
    bool drained = ph.failed == 0;
    settles([&] { return !drained || server_->echoed() == sent_; });
    uint64_t echoed = server_->echoed();
    if (echoed < received_ || echoed > sent_ || (drained && echoed != sent_))
      ph.errors.push_back("PingServer echoed " + std::to_string(echoed) +
                          " messages; client sent " + std::to_string(sent_) +
                          " and received " + std::to_string(received_));
  }

  std::vector<NegotiatedNode> chain() const override { return chain_of(conn_); }
  std::vector<std::shared_ptr<Runtime>> runtimes() const override {
    return {srv_rt_, cli_rt_};
  }
  uint64_t conns_total() const override { return 1; }
  size_t payload_size() const override { return kLarge; }
  bool floor_on_mem() const override { return true; }

  ~StreamDuplex() override {
    if (conn_) conn_->close();
    if (server_) server_->stop();
  }

 private:
  std::vector<Bytes> templates_;
  std::shared_ptr<Runtime> srv_rt_, cli_rt_;
  std::unique_ptr<PingServer> server_;
  ConnPtr conn_;
  uint64_t next_id_ = 0;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
};

// connect_churn: one caller cycling connect -> one 64 B RPC -> close
// against a server whose DAG offers a NIC-offloadable encrypt. Discovery
// is a 2-partition x 3-replica cluster, and a SimNic advertises
// encrypt/nic with a 2-engine pool, so every establishment reads the
// catalogue and acquires an engine, and every close releases it.
class ConnectChurn final : public Workload {
 public:
  void setup(bool traced, uint64_t seed) override {
    templates_ = make_templates(seed, kSmall);
    auto net = MemNetwork::create();
    auto tf = std::make_shared<DefaultTransportFactory>(net);
    stats_ = std::make_shared<FaultStats>();

    DiscoveryCluster::Config ccfg;
    ccfg.partitions = 2;
    ccfg.replicas = 3;
    ccfg.sequencer_candidates = 2;
    ccfg.transports = tf;
    ccfg.replica.apply_timeout = ms(250);
    ccfg.replica.sweep_period = ms(25);
    ccfg.replica.server.keepalive = ms(50);
    ccfg.replica.stats = stats_;
    cluster_ = must(DiscoveryCluster::start(std::move(ccfg)), "cluster");

    RemoteDiscovery::Options rpc_opts;
    rpc_opts.rpc_timeout = ms(50);
    rpc_opts.retries = 5;
    rpc_opts.backoff = {ms(2), 2.0, ms(20), 0.3};
    rpc_opts.stats = stats_;
    srv_disc_ = must(cluster_->client("pb-srv-disc", rpc_opts), "client");
    cli_disc_ = must(cluster_->client("pb-cli-disc", rpc_opts), "client");

    SimNic::Config nic_cfg;
    nic_cfg.crypto_engines = 2;
    nic_ = must(SimNic::create(srv_disc_, nic_cfg), "nic");
    must(nic_->advertise_offloads(), "advertise");

    srv_rt_ = make_runtime("pb-srv", tf, srv_disc_, stats_, traced);
    cli_rt_ = make_runtime("pb-cli", tf, cli_disc_, stats_, traced);
    listener_ = must(must(srv_rt_->endpoint("pb-churn", dag_of(kChurnStack)),
                          "ep")
                         .listen(Addr::udp("127.0.0.1", 0)),
                     "listen");
    echo_ = std::thread([this] { echo_loop(); });
    ep_ = std::make_unique<Endpoint>(
        must(cli_rt_->endpoint("pb-churn-cli", ChunnelDag::empty()), "ep"));
    Phase warm;
    for (int i = 0; i < 100; i++) cycle(warm, now());
    if (warm.failed) throw std::runtime_error("warm-up: " + warm.errors[0]);
  }

  Phase run(Duration length) override {
    return timed_phase([&](Phase& ph, TimePoint t0) {
      while (now() < t0 + length && ph.failed == 0) cycle(ph, t0);
    });
  }

  void check(Phase& ph) override {
    if (!settles([&] { return echoed_.load() == cycles_; }))
      ph.errors.push_back("server echoed " + std::to_string(echoed_.load()) +
                          " of " + std::to_string(cycles_) + " requests");
    if (!settles([&] { return listener_->connections_live() == 0; }))
      ph.errors.push_back(std::to_string(listener_->connections_live()) +
                          " server connections still live after close");
    const std::string pool = nic_->crypto_pool();
    auto engines_in_use = [&] {
      uint64_t in_use = 0;
      for (size_t p = 0; p < cluster_->partitions(); p++)
        for (size_t r = 0; r < cluster_->replicas(p); r++)
          if (cluster_->alive(p, r))
            in_use += cluster_->replica(p, r)->state()->pool_in_use(pool);
      return in_use;
    };
    if (!settles([&] { return engines_in_use() == 0; }))
      ph.errors.push_back(std::to_string(engines_in_use()) +
                          " NIC engines still in use after close");
  }

  std::vector<NegotiatedNode> chain() const override { return last_chain_; }
  std::vector<std::shared_ptr<Runtime>> runtimes() const override {
    return {srv_rt_, cli_rt_};
  }
  uint64_t conns_total() const override { return conns_; }
  const std::vector<std::string>& stack() const override { return kChurnStack; }
  uint64_t control_failovers() const override {
    return srv_disc_->server_failovers() + cli_disc_->server_failovers();
  }
  uint64_t control_view_changes() const override {
    uint64_t v = 0;
    for (size_t p = 0; p < cluster_->partitions(); p++)
      for (size_t r = 0; r < cluster_->replicas(p); r++)
        if (cluster_->alive(p, r)) v += cluster_->replica(p, r)->view_changes();
    return v;
  }

  ~ConnectChurn() override {
    if (listener_) listener_->close();
    if (echo_.joinable()) echo_.join();
    ep_.reset();
    srv_rt_.reset();
    cli_rt_.reset();
    srv_disc_.reset();
    cli_disc_.reset();
    if (cluster_) cluster_->stop();
  }

 private:
  // Serves connections one at a time: the caller is a closed loop.
  void echo_loop() {
    for (;;) {
      auto c = listener_->accept();
      if (!c.ok()) return;
      ConnPtr conn = std::move(c).value();
      for (;;) {
        auto m = conn->recv(Deadline::after(kOpTimeout));
        if (!m.ok()) break;
        Msg reply;
        reply.dst = m.value().src;
        reply.payload = std::move(m.value().payload);
        echoed_.fetch_add(1);
        if (!conn->send(std::move(reply)).ok()) break;
      }
      conn->close();
    }
  }

  void cycle(Phase& ph, TimePoint t0) {
    ph.attempted++;
    TimePoint start = now();
    auto c = ep_->connect(listener_->addr(), Deadline::after(kOpTimeout));
    if (!c.ok()) return ph.fail("connect: " + c.error().to_string());
    TimePoint connected = now();
    ConnPtr conn = std::move(c).value();
    conns_++;
    ph.conns++;
    last_chain_ = chain_of(conn);
    for (const auto& n : last_chain_)
      if (n.impl_name == "encrypt/nic") ph.offloaded++;
    Bytes payload = payload_for(templates_, cycles_++);
    auto s = conn->send(Msg(Bytes(payload)));
    auto echo = s.ok() ? conn->recv(Deadline::after(kOpTimeout))
                       : Result<Msg>(s.error());
    conn->close();
    if (!echo.ok()) return ph.fail("rpc: " + echo.error().to_string());
    if (echo.value().payload != payload)
      return ph.fail("echo differs from request");
    ph.record(t0, now(), connected - start, payload.size());
  }

  std::vector<Bytes> templates_;
  FaultStatsPtr stats_;
  std::unique_ptr<DiscoveryCluster> cluster_;
  std::shared_ptr<ClusterDiscovery> srv_disc_, cli_disc_;
  std::unique_ptr<SimNic> nic_;
  std::shared_ptr<Runtime> srv_rt_, cli_rt_;
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<Endpoint> ep_;
  std::thread echo_;
  std::atomic<uint64_t> echoed_{0};
  uint64_t cycles_ = 0;
  uint64_t conns_ = 0;
  std::vector<NegotiatedNode> last_chain_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "rpc_small") return std::make_unique<RpcSmall>();
  if (name == "stream_duplex") return std::make_unique<StreamDuplex>();
  if (name == "connect_churn") return std::make_unique<ConnectChurn>();
  return nullptr;
}

// --- bare-transport floor ---

// Median round trip of `size`-byte datagrams between two raw transports
// (no Bertha layer on the path), echoed by a helper thread.
double floor_rtt_us(bool mem, size_t size, int trips) {
  auto tf = std::make_shared<DefaultTransportFactory>(MemNetwork::create());
  Addr a = mem ? Addr::mem("floor-a", 1) : Addr::udp("127.0.0.1", 0);
  Addr b = mem ? Addr::mem("floor-b", 1) : Addr::udp("127.0.0.1", 0);
  TransportPtr cli = must(tf->bind(a), "floor bind");
  TransportPtr srv = must(tf->bind(b), "floor bind");
  Addr srv_addr = srv->local_addr();
  std::thread echo([&] {
    for (;;) {
      auto p = srv->recv(Deadline::after(seconds(2)));
      if (!p.ok()) return;
      (void)srv->send_to(p.value().src, p.value().payload);
    }
  });
  Bytes payload(size, 0x5a);
  std::vector<double> rtts;
  for (int i = 0; i < trips; i++) {
    TimePoint t = now();
    if (!cli->send_to(srv_addr, payload).ok()) break;
    if (!cli->recv(Deadline::after(seconds(1))).ok()) break;
    rtts.push_back(to_us(now() - t));
  }
  srv->close();
  echo.join();
  if (rtts.size() != static_cast<size_t>(trips))
    throw std::runtime_error("bare transport round trip failed");
  return median(rtts);
}

// --- output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); i++)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

// The chain must be the workload's stack, in order.
void check_chain(const Workload& w, Phase& ph) {
  std::vector<std::string> types;
  for (const auto& n : w.chain()) types.push_back(n.type);
  if (types != w.stack())
    ph.errors.push_back("negotiated chain " + chain_str(w.chain()) +
                        " is not the workload's stack");
}

void report_noise(const char* label, const Phase& ph) {
  note("%s: %.2f s timed, cpu %.3f s, host steal %.1f ms, threads %.0f, "
       "rss %.1f MB",
       label, ph.elapsed_s, ph.cpu_s, ph.steal_ms, proc_status("Threads"),
       proc_status("VmRSS") / 1024.0);
}

void report_e2e(const Phase& ph) {
  note("samples %zu; fail_ratio %.6f; ontime_ratio %.6f (limit %.0f ms); "
       "generator late by up to %.1f ms",
       ph.samples.size(),
       ratio(static_cast<double>(ph.failed), static_cast<double>(ph.attempted)),
       ratio(static_cast<double>(ph.ontime), static_cast<double>(ph.attempted)),
       to_us(kLatencyLimit) / 1e3, ph.gen_late_ms);
  for (const auto& e : ph.errors) note("error: %s", e.c_str());
}

// The timed phase is split over kSetups freshly set-up worlds: a world can
// settle into a faster or slower spell for its whole life, and pooling the
// windows of several averages over that. Each set-up is timed for setup_s.
int run_untraced(const std::string& name, uint64_t seed, Duration length) {
  std::vector<double> setups;
  Windows windows;
  Phase all;
  for (int i = 0; i < kSetups; i++) {
    auto w = make_workload(name);
    TimePoint t = now();
    w->setup(false, seed);
    setups.push_back(std::chrono::duration<double>(now() - t).count());
    if (i == 0)
      note("workload %s, seed %" PRIu64 ", negotiated %s", name.c_str(), seed,
           chain_str(w->chain()).c_str());
    Phase ph = w->run(length / kSetups);
    w->check(ph);
    check_chain(*w, ph);
    report_noise("world", ph);
    note("connections %" PRIu64 " (%" PRIu64 " offloaded), control failovers %" PRIu64
         ", view changes %" PRIu64,
         ph.conns, ph.offloaded, w->control_failovers(), w->control_view_changes());
    windows.add(ph);
    all.elapsed_s += ph.elapsed_s;
    all.gen_late_ms = std::max(all.gen_late_ms, ph.gen_late_ms);
    all.merge(std::move(ph));
  }
  report_e2e(all);
  std::vector<Metric> m = {
      {"lat_p50_us", trimmed_mean(windows.p50), "us"},
      {"lat_p99_us", trimmed_mean(windows.p99), "us"},
      {"ops_per_s", trimmed_mean(windows.ops), "1/s"},
      {"cpu_us_per_op", trimmed_mean(windows.cpu), "us"},
      {"goodput_mbps",
       static_cast<double>(all.payload_bytes) * 8 / 1e6 / std::max(all.elapsed_s, 1e-9),
       "Mbit/s"},
      {"setup_s", median(setups), "s"},
  };
  bool correct = all.errors.empty() && all.completed > 0;
  print_result(correct, all.attempted, all.failed, m);
  return correct ? 0 : 1;
}

// Counters the traced run differences over its timed phase, summed over
// the workload's runtimes.
struct Counters {
  std::array<LayerTotals, kLayers> layers;
  DiscoveryTotals discovery;
  BufferPool::Stats pool;
  uint64_t batches = 0, dgrams = 0, polls = 0, fired = 0, retries = 0;
};

Counters read_counters(const Workload& w) {
  Counters c;
  c.layers = layer_snapshot();
  c.discovery = discovery_snapshot();
  c.pool = BufferPool::default_pool().stats();
  for (const auto& rt : w.runtimes()) {
    if (auto r = rt->reactor()) {
      auto s = r->stats();
      c.batches += s.batches;
      c.dgrams += s.datagrams;
      c.polls += s.polls;
    }
    if (auto t = rt->timer_wheel()) c.fired += t->stats().fired;
  }
  c.retries = w.runtimes().front()->fault_stats().rpc_retries.load();
  return c;
}

// The decorated runtimes must negotiate the untraced chain and bind
// exactly the implementations in it that this process can instantiate.
std::vector<std::string> transparency_errors(
    const Workload& w, const std::vector<NegotiatedNode>& untraced,
    const std::set<std::string>& bound) {
  std::vector<std::string> errors;
  auto names = [](const std::vector<NegotiatedNode>& c) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& n : c) out.emplace_back(n.type, n.impl_name);
    return out;
  };
  std::vector<NegotiatedNode> chain = w.chain();
  if (names(chain) != names(untraced))
    errors.push_back("traced chain " + chain_str(chain) +
                     " differs from untraced " + chain_str(untraced));
  std::set<std::string> want;
  for (const auto& n : chain)
    if (w.runtimes().front()->registry().has(n.type, n.impl_name))
      want.insert(n.impl_name);
  if (want != bound) errors.push_back("decorators bound a different set of impls");
  return errors;
}

int run_traced(const std::string& name, uint64_t seed, Duration length) {
  double steal0 = steal_ms();
  // Untraced half: the base for trace.overhead_ratio, and the chain the
  // traced half must reproduce.
  Phase base;
  std::vector<NegotiatedNode> base_chain;
  {
    auto w = make_workload(name);
    w->setup(false, seed);
    base_chain = w->chain();
    base = w->run(length / 2);
    w->check(base);
    check_chain(*w, base);
    report_noise("untraced half", base);
  }
  Windows().add(base);  // for its per-window line
  report_e2e(base);

  take_bound_impls();
  auto life_layers = layer_snapshot();
  auto life_disc = discovery_snapshot();
  auto w = make_workload(name);
  w->setup(true, seed);
  std::vector<std::string> errors =
      transparency_errors(*w, base_chain, take_bound_impls());

  Counters c0 = read_counters(*w);
  Phase ph = w->run(length / 2);
  Counters c1 = read_counters(*w);
  w->check(ph);
  check_chain(*w, ph);
  ph.errors.insert(ph.errors.end(), errors.begin(), errors.end());
  double threads = proc_status("Threads");
  double rss_mb = proc_status("VmRSS") / 1024.0;
  report_noise("traced half", ph);
  for (const auto& e : ph.errors) note("error: %s", e.c_str());

  // Per application message (a request and its echo count once each),
  // summed over the client and server halves; connection-level figures
  // cover the traced world's whole life, set-up included.
  const double msgs = std::max(1.0, 2.0 * static_cast<double>(ph.completed));
  const double conns = std::max(1.0, static_cast<double>(w->conns_total()));
  auto per_msg = [&](uint64_t v) { return static_cast<double>(v) / msgs; };
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  std::vector<Metric> m;
  for (size_t l = 0; l < kLayers; l++) {
    LayerTotals t = c1.layers[l] - c0.layers[l];
    std::string p = l == kBaseLayer ? "net.base."
                                    : "chunnel." + std::string(kChunnelTypes[l]) + ".";
    double wait_ns = std::max(0.0, d(t.send_ns + t.recv_ns, t.cpu_ns));
    m.push_back({p + "send_us", per_msg(t.send_ns) / 1e3, "us"});
    m.push_back({p + "recv_us", per_msg(t.recv_ns) / 1e3, "us"});
    m.push_back({p + "cpu_us", per_msg(t.cpu_ns) / 1e3, "us"});
    m.push_back({p + "wait_us", wait_ns / 1e3 / msgs, "us"});
    if (l == kBaseLayer) continue;
    m.push_back({p + "allocs", per_msg(t.allocs), "count"});
    m.push_back({p + "alloc_bytes", per_msg(t.alloc_bytes), "B"});
    m.push_back({p + "wrap_us",
                 d(c1.layers[l].wrap_ns, life_layers[l].wrap_ns) / 1e3 / conns, "us"});
    if (std::string_view(kChunnelTypes[l]) == "reliable")
      m.push_back({"chunnel.reliable.wire_per_msg",
                   ratio(d(c1.layers[kBaseLayer].sends, c0.layers[kBaseLayer].sends),
                         static_cast<double>(t.sends)),
                   "count"});
  }

  double udp64 = floor_rtt_us(false, kSmall, 2000);
  double udp16k = floor_rtt_us(false, kLarge, 500);
  double mem64 = floor_rtt_us(true, kSmall, 2000);
  double mem16k = floor_rtt_us(true, kLarge, 500);
  bool big = w->payload_size() == kLarge;
  m.push_back({"net.floor_rtt_us",
               w->floor_on_mem() ? (big ? mem16k : mem64) : (big ? udp16k : udp64),
               "us"});
  m.push_back({"net.floor.udp_64_us", udp64, "us"});
  m.push_back({"net.floor.udp_16k_us", udp16k, "us"});
  m.push_back({"net.floor.mem_64_us", mem64, "us"});
  m.push_back({"net.floor.mem_16k_us", mem16k, "us"});

  m.push_back({"io.reactor.dgrams_per_batch",
               ratio(d(c1.dgrams, c0.dgrams), d(c1.batches, c0.batches)), "count"});
  m.push_back({"io.reactor.polls_per_msg", per_msg(c1.polls - c0.polls), "count"});
  m.push_back({"io.pool.fresh_ratio",
               ratio(d(c1.pool.fresh, c0.pool.fresh),
                     d(c1.pool.acquires, c0.pool.acquires)),
               "ratio"});
  m.push_back({"io.wheel.fired_per_s", d(c1.fired, c0.fired) / ph.elapsed_s, "1/s"});

  DiscoveryTotals dd = c1.discovery - life_disc;
  m.push_back({"core.discovery.query_us",
               ratio(static_cast<double>(dd.query_ns) / 1e3, static_cast<double>(dd.queries)),
               "us"});
  m.push_back({"core.discovery.queries_per_conn",
               static_cast<double>(dd.queries) / conns, "count"});
  m.push_back({"core.discovery.acquire_us",
               ratio(static_cast<double>(dd.acquire_ns) / 1e3, static_cast<double>(dd.acquires)),
               "us"});
  m.push_back({"core.discovery.release_us",
               ratio(static_cast<double>(dd.release_ns) / 1e3, static_cast<double>(dd.releases)),
               "us"});
  m.push_back({"core.discovery.fail_ratio",
               ratio(static_cast<double>(dd.failed), static_cast<double>(dd.calls)),
               "ratio"});
  m.push_back({"core.discovery.retries_per_conn",
               d(c1.retries, c0.retries) / std::max(1.0, static_cast<double>(ph.conns)),
               "count"});
  m.push_back({"core.offload_ratio",
               ratio(static_cast<double>(ph.offloaded), static_cast<double>(ph.conns)),
               "ratio"});
  m.push_back({"control.failovers", static_cast<double>(w->control_failovers()), "count"});
  m.push_back({"control.view_changes", static_cast<double>(w->control_view_changes()),
               "count"});
  m.push_back({"proc.threads", threads, "count"});
  m.push_back({"proc.rss_mb", rss_mb, "MB"});
  m.push_back({"host.steal_ms", steal_ms() - steal0, "ms"});
  m.push_back({"trace.overhead_ratio",
               ratio(ratio(ph.cpu_s, static_cast<double>(ph.completed)),
                     ratio(base.cpu_s, static_cast<double>(base.completed))),
               "ratio"});
  m.push_back({"apps.ontime_ratio",
               ratio(static_cast<double>(base.ontime), static_cast<double>(base.attempted)),
               "ratio"});
  m.push_back({"apps.fail_ratio",
               ratio(static_cast<double>(base.failed), static_cast<double>(base.attempted)),
               "ratio"});
  m.push_back({"apps.gen_late_ms", base.gen_late_ms, "ms"});

  bool correct = base.errors.empty() && ph.errors.empty() && base.completed > 0 &&
                 ph.completed > 0;
  print_result(correct, base.attempted + ph.attempted, base.failed + ph.failed, m);
  return correct ? 0 : 1;
}

// Runs the whole process (every thread inherits the mask) on the lowest
// CPU it may use. Spread over a 4-vCPU sandbox, cross-CPU wakeups met host
// steal and throughput and p99 swung by 2x between runs; on one CPU the
// steal went away. See NOTES.md.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (!CPU_ISSET(c, &set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) note("pinned to cpu %d", c);
    return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  long secs = 10;
  int trace = 0;
  bool selftest = false;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    auto val = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") workload = val();
    else if (a == "--seed") seed = std::strtoull(val(), nullptr, 10);
    else if (a == "--seconds") secs = std::strtol(val(), nullptr, 10);
    else if (a == "--trace") trace = std::atoi(val());
    else if (a == "--selftest") selftest = true;
    else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  pin_to_one_cpu();
  try {
    if (selftest) {
      // The decorators must be transparent on every workload: a short
      // traced run checks chains, bound impls and every echo.
      int rc = 0;
      for (const char* w : {"rpc_small", "stream_duplex", "connect_churn"})
        rc |= run_traced(w, seed, seconds(2));
      return rc;
    }
    if (!make_workload(workload) || secs < 1 || secs > 60 ||
        (trace != 0 && trace != 1)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload rpc_small|stream_duplex|"
                   "connect_churn --seed N --seconds 1..60 --trace 0|1\n");
      return 2;
    }
    Duration length = seconds(secs);
    return trace ? run_traced(workload, seed, length)
                 : run_untraced(workload, seed, length);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
