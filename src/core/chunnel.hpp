// Chunnel implementation interface and metadata (paper §2, §4.2).
//
// A *Chunnel type* (e.g. "shard", "reliable") names a piece of
// application-relevant communication functionality. A *ChunnelImpl* is
// one concrete implementation of a type ("shard/xdp", "shard/client-push",
// "shard/fallback"); several may be registered and the runtime binds one
// per connection at establishment via negotiation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/connection.hpp"
#include "net/transport.hpp"
#include "serialize/codec.hpp"

namespace bertha {

// Where an implementation may run relative to the application (§4.2,
// Table 1). Wider scopes admit narrower placements.
enum class Scope : uint8_t {
  application = 0,  // same process as the application
  host = 1,         // same machine (e.g. an XDP program, a unix socket path)
  rack = 2,         // nearby network device (e.g. ToR switch)
  global = 3,       // anywhere
};

// Which ends of a connection must have the implementation available
// (§4.2: "whether the Chunnel requires functionality at both ends").
enum class EndpointConstraint : uint8_t { client = 0, server = 1, both = 2 };

// Which half of a connection a wrap() call is building.
enum class Role : uint8_t { client = 0, server = 1 };

std::string_view scope_name(Scope s);
std::string_view endpoint_constraint_name(EndpointConstraint e);

// String key/value arguments for a chunnel instance. Applications set
// them in the DAG (Listing 4's shard list / shard function); server-side
// chunnels merge advertised values in during negotiation (e.g. the local
// fast path advertising its unix socket address).
class ChunnelArgs {
 public:
  ChunnelArgs() = default;
  explicit ChunnelArgs(std::map<std::string, std::string> kv)
      : kv_(std::move(kv)) {}

  void set(const std::string& key, std::string value) {
    kv_[key] = std::move(value);
  }
  void set_u64(const std::string& key, uint64_t v) { set(key, std::to_string(v)); }

  bool has(const std::string& key) const { return kv_.count(key) > 0; }
  Result<std::string> get(const std::string& key) const;
  Result<uint64_t> get_u64(const std::string& key) const;
  std::string get_or(const std::string& key, std::string fallback) const;
  uint64_t get_u64_or(const std::string& key, uint64_t fallback) const;

  // Overlay: values in `other` win.
  ChunnelArgs merged_with(const ChunnelArgs& other) const;

  const std::map<std::string, std::string>& raw() const { return kv_; }
  bool operator==(const ChunnelArgs& o) const { return kv_ == o.kv_; }

 private:
  std::map<std::string, std::string> kv_;
};

// Resource demand of an implementation, charged against a named pool in
// the discovery service (§6 "Scheduling and Placement": a P4 switch with
// capacity for one program).
struct ResourceReq {
  std::string pool;
  uint64_t amount = 1;
  bool operator==(const ResourceReq& o) const {
    return pool == o.pool && amount == o.amount;
  }
};

// Metadata describing one implementation of a chunnel type. This is what
// discovery stores and negotiation reasons about.
struct ImplInfo {
  std::string type;       // chunnel type, e.g. "shard"
  std::string name;       // implementation, e.g. "shard/xdp"
  Scope scope = Scope::global;
  EndpointConstraint endpoints = EndpointConstraint::both;
  int32_t priority = 0;   // higher = preferred (hw/kernel-bypass > software)
  std::vector<ResourceReq> resources;
  // True for pure factories: code that can *instantiate* the
  // implementation but is only usable against an instance advertised by
  // the discovery service (e.g. the switch-sequencer client/server
  // halves, which need a concrete group address). Factory-only impls
  // are never offered as candidates themselves.
  bool factory_only = false;
  // Free-form properties (advertised offload parameters, optimizer hints
  // such as "device" or "merges_with").
  std::map<std::string, std::string> props;

  bool operator==(const ImplInfo& o) const {
    return type == o.type && name == o.name && scope == o.scope &&
           endpoints == o.endpoints && priority == o.priority &&
           resources == o.resources && factory_only == o.factory_only &&
           props == o.props;
  }
};

// --- Contexts handed to chunnel implementations by the runtime ---

// Passed to on_listen() when a server endpoint with this chunnel type in
// its DAG starts listening. Lets the impl attach extra listen transports
// (the unix-socket fast path) and advertise parameters that will be
// merged into the args of every negotiated connection.
struct ListenContext {
  Addr listen_addr;
  std::string host_id;
  TransportFactory* transports = nullptr;
  ChunnelArgs app_args;  // the args the application put in the DAG node
  std::function<Result<void>(TransportPtr)> add_listen_transport;
  std::function<void(std::string, std::string)> advertise;
};

// Liveness timestamps for one logical connection, shared across epoch
// cutovers: a keepalive chunnel rebuilt for a new epoch seeds its timers
// from here instead of restarting at "now", so a peer that died
// mid-transition is still detected within the original dead_after
// budget. Values are steady-clock nanos (TimePoint::time_since_epoch);
// 0 means "not yet recorded".
struct ConnLiveness {
  std::atomic<int64_t> last_heard{0};
  std::atomic<int64_t> last_sent{0};
};

using ConnLivenessPtr = std::shared_ptr<ConnLiveness>;

class TimerWheel;  // io/timer_wheel.hpp

// Passed to wrap() when building one side of a negotiated connection.
struct WrapContext {
  Role role = Role::client;
  ChunnelArgs args;  // app args merged with server advertisements
  std::string local_host_id;
  std::string peer_host_id;
  uint64_t token = 0;  // connection token assigned by the server
  // Server side: the listener's primary address (lets an impl find the
  // per-listener state it created in on_listen).
  Addr listen_addr;
  TransportFactory* transports = nullptr;
  // Client side only: atomically switch the connection's base transport
  // and destination (how the local fast path moves to a unix socket).
  // Null on the server side.
  std::function<Result<void>(TransportPtr, Addr)> rebase;
  // Per-logical-connection liveness state, carried across transitions
  // (null when the endpoint layer doesn't track it, e.g. raw stacks
  // built in tests).
  ConnLivenessPtr liveness;
  // Shared timer wheel for liveness deadlines (io/timer_wheel.hpp).
  // Chunnels that need periodic work (keepalive beats, reliable
  // retransmission) arm wheel timers instead of spawning a thread per
  // connection. When null (a bare context), they use process_wheel().
  std::shared_ptr<TimerWheel> wheel;
};

// One implementation of a chunnel type. Thread-safe: a single instance
// serves many connections.
class ChunnelImpl {
 public:
  virtual ~ChunnelImpl() = default;

  virtual const ImplInfo& info() const = 0;

  // System/network configuration hook run when the implementation is
  // first put in service (§4.2: "call operating system tools (e.g.
  // ethtool) or invoke APIs on orchestrators and SDN controllers").
  // Implementations here log the equivalent action and configure the
  // simulated devices.
  virtual Result<void> init() { return ok(); }
  virtual void teardown() {}

  // Server-endpoint setup (once per listener, not per connection).
  virtual Result<void> on_listen(ListenContext& ctx) {
    (void)ctx;
    return ok();
  }

  // Build this chunnel's half of a connection around `inner`.
  virtual Result<ConnPtr> wrap(ConnPtr inner, WrapContext& ctx) = 0;
};

using ChunnelImplPtr = std::shared_ptr<ChunnelImpl>;

// --- Serde for the wire (negotiation & discovery messages) ---

template <>
struct Serde<ResourceReq> {
  static void put(Writer& w, const ResourceReq& r) {
    w.put_string(r.pool);
    w.put_varint(r.amount);
  }
  static Result<ResourceReq> get(Reader& r) {
    ResourceReq out;
    BERTHA_TRY_ASSIGN(pool, r.get_string());
    BERTHA_TRY_ASSIGN(amount, r.get_varint());
    out.pool = std::move(pool);
    out.amount = amount;
    return out;
  }
};

template <>
struct Serde<ImplInfo> {
  static void put(Writer& w, const ImplInfo& i) {
    w.put_string(i.type);
    w.put_string(i.name);
    w.put_u8(static_cast<uint8_t>(i.scope));
    w.put_u8(static_cast<uint8_t>(i.endpoints));
    w.put_svarint(i.priority);
    serde_put(w, i.resources);
    w.put_bool(i.factory_only);
    serde_put(w, i.props);
  }
  static Result<ImplInfo> get(Reader& r) {
    ImplInfo out;
    BERTHA_TRY_ASSIGN(type, r.get_string());
    BERTHA_TRY_ASSIGN(name, r.get_string());
    BERTHA_TRY_ASSIGN(scope, r.get_u8());
    if (scope > static_cast<uint8_t>(Scope::global))
      return err(Errc::protocol_error, "bad scope");
    BERTHA_TRY_ASSIGN(ep, r.get_u8());
    if (ep > static_cast<uint8_t>(EndpointConstraint::both))
      return err(Errc::protocol_error, "bad endpoint constraint");
    BERTHA_TRY_ASSIGN(prio, r.get_svarint());
    BERTHA_TRY_ASSIGN(res, (serde_get<std::vector<ResourceReq>>(r)));
    BERTHA_TRY_ASSIGN(factory_only, r.get_bool());
    BERTHA_TRY_ASSIGN(props, (serde_get<std::map<std::string, std::string>>(r)));
    out.type = std::move(type);
    out.name = std::move(name);
    out.scope = static_cast<Scope>(scope);
    out.endpoints = static_cast<EndpointConstraint>(ep);
    out.priority = static_cast<int32_t>(prio);
    out.resources = std::move(res);
    out.factory_only = factory_only;
    out.props = std::move(props);
    return out;
  }
};

template <>
struct Serde<ChunnelArgs> {
  static void put(Writer& w, const ChunnelArgs& a) { serde_put(w, a.raw()); }
  static Result<ChunnelArgs> get(Reader& r) {
    BERTHA_TRY_ASSIGN(kv, (serde_get<std::map<std::string, std::string>>(r)));
    return ChunnelArgs(std::move(kv));
  }
};

}  // namespace bertha
