#include "net/memchan.hpp"

namespace bertha {

Result<TransportPtr> MemNetwork::bind(const Addr& addr) {
  if (addr.kind != AddrKind::mem)
    return err(Errc::invalid_argument, "not a mem addr: " + addr.to_string());
  return bind_queue(addr, cfg_.queue_depth);
}

Result<void> MemNetwork::send(const Addr& from, const Addr& to,
                              BytesView payload) {
  if (cfg_.drop_rate > 0) {
    std::lock_guard<std::mutex> lk(mu_);
    if (rng_.chance(cfg_.drop_rate)) {
      dropped_++;
      return ok();  // silent drop, like the real network
    }
  }
  deliver(to, Packet{from, Bytes(payload.begin(), payload.end())});
  return ok();
}

}  // namespace bertha
