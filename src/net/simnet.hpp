// SimNet: a simulated datagram network.
//
// SimNet stands in for the multi-machine testbeds and in-network devices
// the paper's evaluation uses but that are not available here (see
// DESIGN.md §1.4). It provides:
//
//  * named nodes with sim://node:port endpoints,
//  * per-link one-way latency and loss (defaults apply to unknown links),
//  * multicast group addresses with an optional *hardware sequencer*:
//    the SimSwitch model stamps a global sequence number on packets in
//    transit, with no extra hop — the Tofino/NOPaxos-style offload used
//    by the ordered_mcast chunnel,
//  * anycast service addresses routed to the nearest advertiser — used
//    by the anycast chunnel.
//
// Delivery runs on a single timing thread ordered by due time; with a
// fixed seed, drop decisions and sequencer stamps are deterministic.
// Endpoints are QueueTransports (net/queue_transport.hpp): their
// poll_fd() is a readiness eventfd, opened only for endpoints that join
// a reactor.
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/queue_transport.hpp"
#include "util/rand.hpp"

namespace bertha {

class SimNet : public QueueNetwork {
 public:
  struct Config {
    Duration default_latency = us(100);
    double default_loss = 0.0;
    uint64_t seed = 1;
    size_t queue_depth = 8192;
  };

  static std::shared_ptr<SimNet> create(Config cfg);
  static std::shared_ptr<SimNet> create() { return create(Config{}); }
  ~SimNet();

  SimNet(const SimNet&) = delete;
  SimNet& operator=(const SimNet&) = delete;

  // Binds sim://<node>:<port>. Port 0 picks an ephemeral port.
  Result<TransportPtr> attach(const std::string& node, uint16_t port);

  // Sets symmetric one-way latency/loss between two nodes. Packets within
  // a single node (same `node` name) are always delivered with
  // `local_latency` (default 1us) and no loss.
  void set_link(const std::string& a, const std::string& b, Duration latency,
                double loss = 0.0);
  void set_local_latency(Duration d);

  // --- Multicast groups (SimSwitch sequencer model) ---
  // Creates group address sim://<group>:<port>. If hw_sequencer, each
  // packet sent to the group is stamped with an 8-byte little-endian
  // global sequence number *prepended* to the payload, assigned at the
  // "switch" (no extra hop, no extra latency). `initial_seq` seeds the
  // counter: when a group migrates between sequencers, the operator
  // must carry the sequence epoch over (a real consensus protocol runs
  // a view change here).
  Result<void> create_group(const std::string& group, uint16_t port,
                            std::vector<Addr> members, bool hw_sequencer,
                            uint64_t initial_seq = 0);
  void remove_group(const std::string& group, uint16_t port);

  // --- Match-action programs (SimSwitch P4 model) ---
  // What a program decides for one packet: where it goes next and,
  // optionally, a rewritten payload (header strip, sequencer stamp) —
  // the switch modifying the packet in transit, still with no extra hop.
  struct ProgramAction {
    Addr dst;
    bool rewrite = false;
    Bytes payload;  // replaces the packet bytes when rewrite is set
  };

  // Installs a steering program on a virtual address: packets sent to
  // `vip` are redirected, in transit and with no extra hop, per the
  // action the program computes from the payload (the P4 match-action
  // model; used for in-switch sharding and synthesized offloads). The
  // program runs on the delivery path under SimNet's lock: it must be
  // pure computation and must not call back into SimNet. Returning an
  // error drops the packet (a table miss, never a mis-steer).
  Result<void> install_program(
      const Addr& vip, std::function<Result<ProgramAction>(BytesView)> act);
  // Steer-only convenience: the original packet is forwarded unmodified
  // to the address `steer` picks.
  Result<void> install_program(const Addr& vip,
                               std::function<Result<Addr>(BytesView)> steer);
  void remove_program(const Addr& vip);
  // Packets steered by the program at `vip` so far.
  uint64_t program_hits(const Addr& vip) const;

  // --- Anycast services ---
  // Advertise: packets addressed to `service` are routed to the current
  // lowest-metric advertiser's real address. Re-advertising with a new
  // metric updates it.
  Result<void> advertise(const Addr& service, const Addr& target,
                         uint32_t metric);
  void withdraw(const Addr& service, const Addr& target);
  // Current winning target for a service (for tests); not_found if none.
  Result<Addr> resolve_anycast(const Addr& service) const;

  // Stops the delivery thread and closes all endpoints.
  void shutdown();

 private:
  explicit SimNet(Config cfg);

  struct Event {
    TimePoint due;
    Addr dst;
    Packet pkt;
    // min-heap on due time
    friend bool operator<(const Event& a, const Event& b) {
      return a.due > b.due;
    }
  };

  struct Group {
    std::vector<Addr> members;
    bool hw_sequencer = false;
    uint64_t next_seq = 0;
  };

  struct AnycastEntry {
    Addr target;
    uint32_t metric;
  };

  Result<void> send(const Addr& from, const Addr& to,
                    BytesView payload) override;
  void enqueue_delivery(const Addr& from, const Addr& to, Bytes payload)
      /* requires mu_ */;
  std::pair<Duration, double> link_params(const std::string& a,
                                          const std::string& b) const
      /* requires mu_ */;
  void delivery_loop();

  Config cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  Rng rng_;                                  // guarded by mu_
  Duration local_latency_ = us(1);           // guarded by mu_
  std::priority_queue<Event> events_;        // guarded by mu_
  std::map<std::pair<std::string, std::string>, std::pair<Duration, double>>
      links_;
  std::unordered_map<Addr, Group, AddrHash> groups_;
  std::unordered_map<Addr, std::vector<AnycastEntry>, AddrHash> anycast_;
  struct Program {
    std::function<Result<ProgramAction>(BytesView)> act;
    uint64_t hits = 0;
  };
  std::unordered_map<Addr, Program, AddrHash> programs_;
  std::thread delivery_thread_;
};

// TransportFactory over a SimNet node: binds sim://<node>:<port> where
// the node name must match this factory's node.
class SimTransportFactory final : public TransportFactory {
 public:
  SimTransportFactory(std::shared_ptr<SimNet> net, std::string node)
      : net_(std::move(net)), node_(std::move(node)) {}

  Result<TransportPtr> bind(const Addr& addr) override {
    if (addr.kind != AddrKind::sim || (addr.host != node_ && !addr.host.empty()))
      return err(Errc::invalid_argument,
                 "sim factory for node '" + node_ + "' cannot bind " +
                     addr.to_string());
    return net_->attach(node_, addr.port);
  }

 private:
  std::shared_ptr<SimNet> net_;
  std::string node_;
};

}  // namespace bertha
