// Bertha wire framing.
//
// Every datagram a Bertha endpoint sends or receives carries an 11-byte
// header: 2 magic bytes, a message kind, and a 64-bit connection token.
// Connections are demultiplexed *by token*, not by peer address — this is
// what lets a connection migrate between transports (e.g. the local
// fast-path chunnel switching from UDP to a unix socket mid-lifetime
// without renegotiating, Fig 3/4): the server simply updates its reply
// path to wherever the last data packet for that token arrived from.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace bertha {

enum class MsgKind : uint8_t {
  hello = 1,      // client -> server: DAG + offers (token 0)
  accept = 2,     // server -> client: negotiated stack + assigned token
  reject = 3,     // server -> client: negotiation failed
  data = 4,       // either direction, payload is application data
  close = 5,      // either direction, best-effort teardown notice
  discovery = 6,  // discovery service request/response (token 0)
  // Live renegotiation (core/renegotiation.hpp). A transition offer is
  // sent on the connection's *current* token and carries the next
  // epoch's chain plus the token that epoch will use; the ack flows
  // back on the new token so the server learns the new reply path.
  transition = 7,      // server -> client: epoch cutover offer
  transition_ack = 8,  // client -> server: accept/decline of an offer
  // server -> client: the offer for `epoch` was rolled back; discard any
  // staged stack and revert to the previous epoch. Sent on the old token
  // when the ack deadline passes without an ack (the client may have cut
  // over and acked into a void — this tells it to come back).
  transition_cancel = 9,
  // Server-push watch streams (core/discovery.hpp). A subscribe carries
  // the subscription id as its token; the service then pushes event_batch
  // frames on that token until an unsubscribe (or the client vanishes).
  // A server that ignores them leaves the subscribe unacked, and
  // RemoteDiscovery::watch() returns `unavailable`.
  subscribe = 10,    // client -> server: open/resume a watch stream
  unsubscribe = 11,  // client -> server: close a watch stream
  event_batch = 12,  // server -> client: coalesced watch events
};

inline constexpr uint8_t kMagic0 = 'B';
inline constexpr uint8_t kMagic1 = 'H';
inline constexpr size_t kWireHeaderSize = 11;

struct Frame {
  MsgKind kind;
  uint64_t token;
  BytesView payload;  // view into the input buffer
};

// header + payload -> datagram bytes.
Bytes encode_frame(MsgKind kind, uint64_t token, BytesView payload);

// Parse a datagram; the returned payload view aliases `datagram`.
Result<Frame> decode_frame(BytesView datagram);

}  // namespace bertha
