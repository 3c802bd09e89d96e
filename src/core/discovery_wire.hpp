// Discovery RPC wire types, shared between the single-server datapath
// (DiscoveryServer / RemoteDiscovery) and the replicated control plane
// (src/control/): a replica must decode a client mutation, ship it
// through the partition sequencer, and re-execute it deterministically
// on every group member, so the request/response codec cannot stay an
// implementation detail of discovery.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/chunnel.hpp"
#include "trace/trace.hpp"

namespace bertha {

class DiscoveryState;

enum class DiscOp : uint8_t {
  register_impl = 1,
  unregister_impl = 2,
  query = 3,
  acquire = 4,
  release = 5,
  set_pool = 6,
  heartbeat = 7,  // renews every lease held by client_id
};

struct DiscRequest {
  DiscOp op;
  std::string type;
  // query only: a batched catalogue read. Non-empty: the server answers
  // every listed type in one response (DiscResponse::parts, in order)
  // and `type` is unused.
  std::vector<std::string> types;
  std::string name;
  std::optional<ImplInfo> entry;
  std::vector<ResourceReq> resources;
  uint64_t alloc_id = 0;
  uint64_t capacity = 0;
  // Fault-tolerance extensions (zero/empty when unused).
  std::string client_id;  // lease owner / dedup namespace
  uint64_t idem_key = 0;  // non-zero: dedupe retries of this mutation
  uint64_t ttl_ms = 0;    // non-zero: lease the registration/allocation
  TraceContext trace;     // optional: caller's span, for server-side spans
};

struct DiscResponse {
  bool success = false;
  uint8_t errc = 0;
  std::string error;
  std::vector<ImplInfo> entries;
  uint64_t alloc_id = 0;
  // Batched query: one outcome per requested type, each answered as a
  // single-type query would be (a part never nests further parts).
  std::vector<DiscResponse> parts;
};

Bytes encode_request(const DiscRequest& req);
Result<DiscRequest> decode_request(BytesView b);
Bytes encode_response(const DiscResponse& rsp);
Result<DiscResponse> decode_response(BytesView b);
DiscResponse error_response(const Error& e);
const char* serve_span_name(DiscOp op);

// True for ops that change state (everything but query). Mutations are
// the ops a replica group must sequence; queries serve locally.
inline bool is_mutation(DiscOp op) { return op != DiscOp::query; }

// Executes one decoded request against `state` and builds the wire
// response. `at` is the time basis for lease arithmetic: the serve path
// passes now(); replicated apply passes the op's origin-stamped time so
// every replica computes the identical lease expiry (and therefore the
// identical sweep outcome and watch-event sequence).
DiscResponse execute_request(DiscoveryState& state, const DiscRequest& req,
                             TimePoint at);

}  // namespace bertha
