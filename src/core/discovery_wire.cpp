#include "core/discovery_wire.hpp"

#include "core/discovery.hpp"

namespace bertha {

Bytes encode_request(const DiscRequest& req) {
  Writer w;
  w.put_u8(static_cast<uint8_t>(req.op));
  w.put_string(req.type);
  w.put_string(req.name);
  serde_put(w, std::optional<ImplInfo>(req.entry));
  serde_put(w, req.resources);
  w.put_varint(req.alloc_id);
  w.put_varint(req.capacity);
  w.put_string(req.client_id);
  w.put_varint(req.idem_key);
  w.put_varint(req.ttl_ms);
  serde_put(w, req.types);
  put_trace_context(w, req.trace);
  return std::move(w).take();
}

Result<DiscRequest> decode_request(BytesView b) {
  Reader r(b);
  DiscRequest req;
  BERTHA_TRY_ASSIGN(op, r.get_u8());
  if (op < 1 || op > 7) return err(Errc::protocol_error, "bad discovery op");
  req.op = static_cast<DiscOp>(op);
  BERTHA_TRY_ASSIGN(type, r.get_string());
  BERTHA_TRY_ASSIGN(name, r.get_string());
  BERTHA_TRY_ASSIGN(entry, serde_get<std::optional<ImplInfo>>(r));
  BERTHA_TRY_ASSIGN(res, serde_get<std::vector<ResourceReq>>(r));
  BERTHA_TRY_ASSIGN(alloc, r.get_varint());
  BERTHA_TRY_ASSIGN(cap, r.get_varint());
  BERTHA_TRY_ASSIGN(client, r.get_string());
  BERTHA_TRY_ASSIGN(idem, r.get_varint());
  BERTHA_TRY_ASSIGN(ttl, r.get_varint());
  BERTHA_TRY_ASSIGN(types, serde_get<std::vector<std::string>>(r));
  if (!types.empty() && req.op != DiscOp::query)
    return err(Errc::protocol_error, "type list on a non-query op");
  req.type = std::move(type);
  req.name = std::move(name);
  req.entry = std::move(entry);
  req.resources = std::move(res);
  req.alloc_id = alloc;
  req.capacity = cap;
  req.client_id = std::move(client);
  req.idem_key = idem;
  req.ttl_ms = ttl;
  req.types = std::move(types);
  req.trace = read_trace_context_tail(r);
  return req;
}

namespace {

void put_response(Writer& w, const DiscResponse& rsp) {
  w.put_bool(rsp.success);
  w.put_u8(rsp.errc);
  w.put_string(rsp.error);
  serde_put(w, rsp.entries);
  w.put_varint(rsp.alloc_id);
  w.put_varint(rsp.parts.size());
  for (const auto& part : rsp.parts) put_response(w, part);
}

Result<DiscResponse> get_response(Reader& r, bool is_part) {
  DiscResponse rsp;
  BERTHA_TRY_ASSIGN(okb, r.get_bool());
  BERTHA_TRY_ASSIGN(ec, r.get_u8());
  BERTHA_TRY_ASSIGN(error, r.get_string());
  BERTHA_TRY_ASSIGN(entries, serde_get<std::vector<ImplInfo>>(r));
  BERTHA_TRY_ASSIGN(alloc, r.get_varint());
  BERTHA_TRY_ASSIGN(nparts, r.get_varint());
  if (is_part && nparts != 0)
    return err(Errc::protocol_error, "nested discovery response parts");
  for (uint64_t i = 0; i < nparts; i++) {
    BERTHA_TRY_ASSIGN(part, get_response(r, /*is_part=*/true));
    rsp.parts.push_back(std::move(part));
  }
  rsp.success = okb;
  rsp.errc = ec;
  rsp.error = std::move(error);
  rsp.entries = std::move(entries);
  rsp.alloc_id = alloc;
  return rsp;
}

}  // namespace

Bytes encode_response(const DiscResponse& rsp) {
  Writer w;
  put_response(w, rsp);
  return std::move(w).take();
}

Result<DiscResponse> decode_response(BytesView b) {
  Reader r(b);
  return get_response(r, /*is_part=*/false);
}

DiscResponse error_response(const Error& e) {
  DiscResponse rsp;
  rsp.success = false;
  rsp.errc = static_cast<uint8_t>(e.code);
  rsp.error = e.message;
  return rsp;
}

const char* serve_span_name(DiscOp op) {
  switch (op) {
    case DiscOp::register_impl: return "serve.register_impl";
    case DiscOp::unregister_impl: return "serve.unregister_impl";
    case DiscOp::query: return "serve.query";
    case DiscOp::acquire: return "serve.acquire";
    case DiscOp::release: return "serve.release";
    case DiscOp::set_pool: return "serve.set_pool";
    case DiscOp::heartbeat: return "serve.heartbeat";
  }
  return "serve.unknown";
}

DiscResponse execute_request(DiscoveryState& state, const DiscRequest& req,
                             TimePoint at) {
  DiscResponse rsp;
  bool leased = req.ttl_ms != 0 && !req.client_id.empty();
  Duration ttl = ms(static_cast<int64_t>(req.ttl_ms));
  switch (req.op) {
    case DiscOp::register_impl: {
      if (!req.entry)
        return error_response(err(Errc::invalid_argument, "missing entry"));
      auto r = leased ? state.register_impl_leased_at(*req.entry,
                                                      req.client_id, ttl, at)
                      : state.register_impl(*req.entry);
      if (r.ok()) rsp.success = true;
      else rsp = error_response(r.error());
      break;
    }
    case DiscOp::unregister_impl: {
      auto r = state.unregister_impl(req.type, req.name);
      if (r.ok()) rsp.success = true;
      else rsp = error_response(r.error());
      break;
    }
    case DiscOp::query: {
      auto r = state.query(req.type);
      if (r.ok()) {
        rsp.success = true;
        rsp.entries = std::move(r).value();
      } else {
        rsp = error_response(r.error());
      }
      break;
    }
    case DiscOp::acquire: {
      auto r = leased ? state.acquire_leased_at(req.resources, req.client_id,
                                                ttl, at)
                      : state.acquire(req.resources);
      if (r.ok()) {
        rsp.success = true;
        rsp.alloc_id = r.value();
      } else {
        rsp = error_response(r.error());
      }
      break;
    }
    case DiscOp::release: {
      auto r = state.release(req.alloc_id);
      if (r.ok()) rsp.success = true;
      else rsp = error_response(r.error());
      break;
    }
    case DiscOp::set_pool: {
      auto r = state.set_pool(req.type, req.capacity);
      if (r.ok()) rsp.success = true;
      else rsp = error_response(r.error());
      break;
    }
    case DiscOp::heartbeat: {
      auto r = state.heartbeat_at(req.client_id, at);
      if (r.ok()) rsp.success = true;
      else rsp = error_response(r.error());
      break;
    }
  }
  return rsp;
}

}  // namespace bertha
