#include "core/runtime.hpp"

#include <unistd.h>

#include "chunnels/telemetry.hpp"
#include "core/endpoint.hpp"
#include "io/buffer_pool.hpp"

namespace bertha {

Result<std::shared_ptr<Runtime>> Runtime::create(RuntimeConfig cfg) {
  if (!cfg.transports)
    return err(Errc::invalid_argument, "RuntimeConfig.transports is required");
  if (cfg.host_id.empty()) {
    char host[256] = {0};
    if (::gethostname(host, sizeof(host) - 1) == 0 && host[0]) {
      cfg.host_id = host;
    } else {
      cfg.host_id = "host-" + make_unique_id();
    }
  }
  if (cfg.process_id.empty())
    cfg.process_id = std::to_string(::getpid()) + "-" + make_unique_id();
  if (!cfg.fault_stats) cfg.fault_stats = std::make_shared<FaultStats>();
  if (!cfg.tracer) {
    Tracer::Options topts;
    topts.enabled = false;  // tracing is opt-in; disabled spans are inert
    cfg.tracer = std::make_shared<Tracer>(topts);
  }
  if (!cfg.metrics) cfg.metrics = std::make_shared<MetricsRegistry>();
  std::shared_ptr<RemoteDiscovery> bootstrap_disc;
  if (!cfg.discovery && !cfg.discovery_servers.empty()) {
    BERTHA_TRY_ASSIGN(
        t, cfg.transports->bind(
               client_bind_for(cfg.discovery_servers.front(), cfg.host_id)));
    RemoteDiscovery::Options ropts = cfg.discovery_rpc;
    if (!ropts.stats) ropts.stats = cfg.fault_stats;
    if (!ropts.tracer) ropts.tracer = cfg.tracer;
    if (ropts.watchdog_interval <= Duration::zero())
      ropts.watchdog_interval = cfg.control.watchdog_interval;
    bootstrap_disc = std::make_shared<RemoteDiscovery>(
        std::move(t), cfg.discovery_servers, std::move(ropts));
    cfg.discovery = bootstrap_disc;
  }
  if (!cfg.discovery) {
    auto state = std::make_shared<DiscoveryState>();
    state->set_fault_stats(cfg.fault_stats);
    cfg.discovery = std::move(state);
  }
  if (!cfg.policy) cfg.policy = std::make_shared<DefaultPolicy>();
  if (cfg.handshake_retries < 0 || cfg.handshake_timeout <= Duration::zero())
    return err(Errc::invalid_argument, "bad handshake parameters");
  auto rt = std::shared_ptr<Runtime>(new Runtime(std::move(cfg)));
  // Fold the runtime's pre-existing counter structures into the registry:
  // the accessors (fault_stats(), transitions().stats()) stay the source
  // of truth and the registry snapshots them on demand.
  attach_fault_stats_provider(*rt->cfg_.metrics, rt->cfg_.fault_stats);
  attach_transition_stats_provider(*rt->cfg_.metrics,
                                   rt->transitions_->stats_sink());
  attach_tracer_provider(*rt->cfg_.metrics, rt->cfg_.tracer);
  attach_hop_stats_provider(*rt->cfg_.metrics, rt->hop_stats_);
  attach_buffer_pool_provider(*rt->cfg_.metrics);
  // The bootstrap discovery client predates `rt`, so its lease heartbeat
  // gets the runtime's wheel by late binding. Resolved lazily (at first
  // lease), so runtimes that never lease anything never pay for a wheel;
  // the weak capture keeps the discovery client from pinning the runtime.
  if (bootstrap_disc) {
    std::weak_ptr<Runtime> wrt = rt;
    bootstrap_disc->set_wheel_source([wrt]() -> TimerWheelPtr {
      auto r = wrt.lock();
      return r ? r->timer_wheel() : nullptr;
    });
  }
  return rt;
}

Result<ReactorPtr> Runtime::ensure_reactor() {
  std::lock_guard<std::mutex> lk(reactor_mu_);
  if (!reactor_) {
    Reactor::Options opts;
    opts.workers = cfg_.io.reactor_workers;
    opts.batch_size = cfg_.io.rx_batch;
    opts.metrics = cfg_.metrics;
    opts.wheel_tick = cfg_.io.wheel_tick;
    opts.wheel_slots = cfg_.io.wheel_slots;
    BERTHA_TRY_ASSIGN(r, Reactor::create(opts));
    reactor_ = std::move(r);
  }
  return reactor_;
}

ReactorPtr Runtime::reactor() {
  auto r = ensure_reactor();
  return r.ok() ? std::move(r).value() : nullptr;
}

TimerWheelPtr Runtime::timer_wheel() {
  auto r = reactor();
  return r ? r->wheel() : nullptr;
}

// Out of line: stop the controller's watch/sweep thread before cfg_
// (and with it the discovery handle) is torn down; then stop the
// reactor (and its timer wheel) so no handler runs against a dying
// runtime.
Runtime::~Runtime() {
  transitions_->stop();
  ReactorPtr reactor;
  {
    std::lock_guard<std::mutex> lk(reactor_mu_);
    reactor = std::move(reactor_);
  }
  if (reactor) reactor->shutdown();
}

Result<void> Runtime::register_chunnel(ChunnelImplPtr impl) {
  // Telemetry chunnels export their per-label counters through the
  // runtime's unified registry (thin view; the chunnel accessors remain).
  if (auto tele = std::dynamic_pointer_cast<TelemetryChunnel>(impl))
    tele->bind_metrics(cfg_.metrics);
  return registry_.register_impl(std::move(impl));
}

Result<Endpoint> Runtime::endpoint(std::string name, ChunnelDag dag) {
  BERTHA_TRY(dag.validate());
  BERTHA_TRY_ASSIGN(chain, dag.as_chain());
  return Endpoint(shared_from_this(), std::move(name), std::move(chain));
}

}  // namespace bertha
