// Reliability chunnel (Listing 4/5's `reliable()`).
//
// A software ARQ protocol layered over unreliable datagrams: sequence
// numbers, cumulative acknowledgements, retransmission, duplicate
// suppression and in-order delivery. This is the canonical *host
// fallback* implementation (paper §2): always available, works on any
// transport, slower than a hardware TCP offload engine would be.
//
// Inner-payload format: [u8 kind] then, by kind,
//   1 = data:       [varint seq] [payload]   (accepted, no longer sent)
//   2 = ack:        [varint next expected]
//   3 = data + ack: [varint seq] [varint next expected] [payload]
// Acks are cumulative and ride on outgoing data frames; reliable.cpp
// lists the few cases that send a pure ack.
//
// No thread of its own: inbound frames are pulled by the application
// threads calling recv() (or a send() waiting for window space), and
// retransmission runs from the runtime's timer wheel (WrapContext::
// wheel; a process-wide wheel when that is null).
#pragma once

#include "core/chunnel.hpp"

namespace bertha {

struct ReliableOptions {
  Duration rto = ms(50);           // retransmission timeout
  size_t window = 64;              // max unacknowledged messages
  Duration send_timeout = seconds(10);  // give up blocking send after this
};

class ReliableChunnel final : public ChunnelImpl {
 public:
  explicit ReliableChunnel(ReliableOptions opts);
  ReliableChunnel() : ReliableChunnel(ReliableOptions{}) {}

  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext& ctx) override;

 private:
  ImplInfo info_;
  ReliableOptions opts_;
};

// A no-op "reliable" implementation for transports that are already
// lossless (in-process channels). Lower priority than the ARQ so it is
// only chosen when explicitly preferred by policy.
class NopReliableChunnel final : public ChunnelImpl {
 public:
  NopReliableChunnel();
  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext& ctx) override;

 private:
  ImplInfo info_;
};

}  // namespace bertha
