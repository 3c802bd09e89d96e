// The tracing & metrics subsystem: tracer mechanics (determinism, the
// disabled-tracer zero-cost guarantee, ring bounds, sampling), the wire
// trace-context tail, the unified MetricsRegistry, exporters (including
// Chrome trace-event JSON schema validation), and trace propagation
// end-to-end — retried discovery RPCs under fault injection, a full live
// transition under one trace id, rollback/revert spans, and degraded-mode
// write queueing with replay spans.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <map>
#include <set>

#include "core/discovery_cache.hpp"
#include "core/renegotiation.hpp"
#include "core/wire.hpp"
#include "net/fault.hpp"
#include "test_helpers.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"

// --- counting allocator hooks (for the disabled-tracer guarantee) ------
//
// Global operator new/delete overrides are per-binary, which is exactly
// why this lives in its own test executable. Counting is always on; the
// assertions only look at deltas.

static std::atomic<uint64_t> g_allocs{0};

void* operator new(size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace bertha {
namespace {

using testing_support::TestWorld;

// A tracer on a fake clock: every span gets deterministic timestamps.
TracerPtr fake_clock_tracer(std::shared_ptr<uint64_t> clock,
                            uint32_t sample_every = 1) {
  Tracer::Options o;
  o.sample_every = sample_every;
  o.now_ns = [clock] { return *clock; };
  return std::make_shared<Tracer>(o);
}

const SpanRecord* find_span(const std::vector<SpanRecord>& spans,
                            const std::string& name) {
  for (const auto& s : spans)
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<const SpanRecord*> find_all(const std::vector<SpanRecord>& spans,
                                        const std::string& name) {
  std::vector<const SpanRecord*> out;
  for (const auto& s : spans)
    if (s.name == name) out.push_back(&s);
  return out;
}

bool has_tag(const SpanRecord& s, const std::string& key,
             const std::string& value = "") {
  for (const auto& [k, v] : s.tags)
    if (k == key && (value.empty() || v == value)) return true;
  return false;
}

// --- Tracer mechanics --------------------------------------------------

TEST(TracerTest, DeterministicSpansUnderClockOverride) {
  auto clock = std::make_shared<uint64_t>(1000);
  auto tracer = fake_clock_tracer(clock);

  Span root = tracer->span("connect");
  *clock = 1500;
  Span child = tracer->span("negotiate", root.context());
  child.tag("endpoint", "srv");
  child.tag_u64("attempt", 1);
  *clock = 1700;
  child.finish();
  *clock = 2000;
  root.finish();

  auto spans = tracer->collect();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: root first.
  EXPECT_EQ(spans[0].name, "connect");
  EXPECT_EQ(spans[0].start_ns, 1000u);
  EXPECT_EQ(spans[0].end_ns, 2000u);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].name, "negotiate");
  EXPECT_EQ(spans[1].start_ns, 1500u);
  EXPECT_EQ(spans[1].duration_ns(), 200u);
  EXPECT_EQ(spans[1].trace_id, spans[0].trace_id);
  EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
  EXPECT_TRUE(has_tag(spans[1], "endpoint", "srv"));
  EXPECT_TRUE(has_tag(spans[1], "attempt", "1"));

  // A second identical run on a fresh tracer yields identical local ids
  // and timestamps (the tracer id salts the upper bits; compare lows).
  auto clock2 = std::make_shared<uint64_t>(1000);
  auto tracer2 = fake_clock_tracer(clock2);
  Span r2 = tracer2->span("connect");
  *clock2 = 1500;
  Span c2 = tracer2->span("negotiate", r2.context());
  *clock2 = 1700;
  c2.finish();
  *clock2 = 2000;
  r2.finish();
  auto spans2 = tracer2->collect();
  ASSERT_EQ(spans2.size(), 2u);
  for (size_t i = 0; i < 2; i++) {
    EXPECT_EQ(spans2[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(spans2[i].end_ns, spans[i].end_ns);
    EXPECT_EQ(spans2[i].span_id & 0xffffffffu, spans[i].span_id & 0xffffffffu);
  }

  // Collect drained everything; nothing shows twice.
  EXPECT_TRUE(tracer->collect().empty());
}

TEST(TracerTest, DisabledTracerAllocatesNothing) {
  Tracer::Options o;
  o.enabled = false;
  auto tracer = std::make_shared<Tracer>(o);

  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; i++) {
    Span s = tracer->span("hot-path");
    s.tag("key", "value");
    s.tag_u64("n", static_cast<uint64_t>(i));
    Span child = trace_span(tracer, "child", s.context());
    child.finish();
    s.finish();
    (void)tracer->sample_path();
  }
  uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "disabled tracer allocated";
  EXPECT_EQ(tracer->span_count(), 0u);
  EXPECT_TRUE(tracer->collect().empty());

  // Null tracer through the helper is equally free.
  before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; i++) {
    Span s = trace_span(nullptr, "hot-path");
    s.tag("key", "value");
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
}

TEST(TracerTest, BoundedRingDropsOldestUnderLoad) {
  auto clock = std::make_shared<uint64_t>(0);
  Tracer::Options o;
  o.ring_capacity = 16;
  o.thread_buffer = 4;
  o.now_ns = [clock] { return *clock; };
  auto tracer = std::make_shared<Tracer>(o);

  for (int i = 0; i < 100; i++) {
    *clock = static_cast<uint64_t>(i) * 10;
    tracer->span("s").finish();
  }
  auto spans = tracer->collect();
  // Ring keeps at most capacity plus whatever still sat in the thread
  // buffer; the oldest spans are the ones dropped.
  EXPECT_LE(spans.size(), o.ring_capacity + o.thread_buffer);
  EXPECT_GT(tracer->dropped(), 0u);
  EXPECT_EQ(spans.back().start_ns, 990u) << "newest span was dropped";
}

TEST(TracerTest, SamplePathGatesOneInN) {
  Tracer::Options o;
  o.sample_every = 8;
  auto tracer = std::make_shared<Tracer>(o);
  int sampled = 0;
  for (int i = 0; i < 80; i++)
    if (tracer->sample_path()) sampled++;
  EXPECT_EQ(sampled, 10);

  Tracer::Options off;
  off.sample_every = 0;
  auto no_paths = std::make_shared<Tracer>(off);
  for (int i = 0; i < 10; i++) EXPECT_FALSE(no_paths->sample_path());
}

TEST(TracerTest, AmbientContextScopesNestAndRestore) {
  EXPECT_FALSE(current_trace_context().valid());
  {
    SpanScope outer(TraceContext{7, 1});
    EXPECT_EQ(current_trace_context().trace_id, 7u);
    {
      SpanScope inner(TraceContext{7, 2});
      EXPECT_EQ(current_trace_context().span_id, 2u);
      // An invalid context installs nothing.
      SpanScope noop(TraceContext{});
      EXPECT_EQ(current_trace_context().span_id, 2u);
    }
    EXPECT_EQ(current_trace_context().span_id, 1u);
  }
  EXPECT_FALSE(current_trace_context().valid());
}

// --- wire context tail -------------------------------------------------

TEST(TraceContextTest, TailRoundTripsAndDecodesTolerantly) {
  // Round trip.
  Writer w;
  w.put_string("payload");
  put_trace_context(w, TraceContext{0xabcdef12345ULL, 42});
  Bytes frame = std::move(w).take();
  Reader r(frame);
  ASSERT_TRUE(r.get_string().ok());
  TraceContext ctx = read_trace_context_tail(r);
  EXPECT_EQ(ctx.trace_id, 0xabcdef12345ULL);
  EXPECT_EQ(ctx.span_id, 42u);

  // Invalid context appends nothing: frames are byte-identical to the
  // pre-tracing wire format.
  Writer w2;
  w2.put_string("payload");
  put_trace_context(w2, TraceContext{});
  Bytes bare = std::move(w2).take();
  Reader r2(bare);
  ASSERT_TRUE(r2.get_string().ok());
  EXPECT_TRUE(r2.at_end());
  EXPECT_FALSE(read_trace_context_tail(r2).valid());

  // Truncated tails (every strict prefix) degrade to "no context".
  for (size_t cut = bare.size(); cut < frame.size(); cut++) {
    Bytes trunc(frame.begin(), frame.begin() + cut);
    Reader tr(trunc);
    ASSERT_TRUE(tr.get_string().ok());
    EXPECT_FALSE(read_trace_context_tail(tr).valid()) << "cut at " << cut;
  }

  // Garbage where the tail should be: wrong magic, then random bytes.
  Bytes garbage = bare;
  garbage.push_back(0x99);
  garbage.push_back(0xff);
  Reader gr(garbage);
  ASSERT_TRUE(gr.get_string().ok());
  EXPECT_FALSE(read_trace_context_tail(gr).valid());
}

TEST(TraceContextTest, MessageDecodersCarryAndTolerateContexts) {
  HelloMsg h;
  h.endpoint_name = "ep";
  h.host_id = "h";
  h.trace = TraceContext{11, 22};
  auto h2 = decode_hello(encode_hello(h));
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h2.value().trace.trace_id, 11u);
  EXPECT_EQ(h2.value().trace.span_id, 22u);

  // Without a context the frame stays valid and decodes to "none".
  h.trace = TraceContext{};
  auto h3 = decode_hello(encode_hello(h));
  ASSERT_TRUE(h3.ok());
  EXPECT_FALSE(h3.value().trace.valid());

  TransitionMsg t;
  t.epoch = 3;
  t.new_token = 4;
  t.trace = TraceContext{5, 6};
  auto t2 = decode_transition(encode_transition(t));
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2.value().trace.trace_id, 5u);

  TransitionCancelMsg c;
  c.epoch = 8;
  c.trace = TraceContext{5, 7};
  auto c2 = decode_transition_cancel(encode_transition_cancel(c));
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c2.value().trace.span_id, 7u);
}

// --- MetricsRegistry ---------------------------------------------------

TEST(MetricsTest, CountersGaugesHistogramsAndProviders) {
  MetricsRegistry m;
  auto c = m.counter("requests");
  c->fetch_add(3, std::memory_order_relaxed);
  // Same name, same instrument.
  EXPECT_EQ(m.counter("requests").get(), c.get());
  m.gauge("depth")->store(-2, std::memory_order_relaxed);
  for (int i = 1; i <= 100; i++) m.observe("latency", i);

  m.attach_provider("ext", [](MetricsRegistry::Snapshot& s) {
    s.counters["external.count"] = 17;
  });

  auto snap = m.snapshot();
  EXPECT_EQ(snap.counters.at("requests"), 3u);
  EXPECT_EQ(snap.counters.at("external.count"), 17u);
  EXPECT_EQ(snap.gauges.at("depth"), -2.0);
  const auto& h = snap.histograms.at("latency");
  EXPECT_EQ(h.count, 100u);
  EXPECT_GT(h.p95, h.p50);
  // The tail the gates are written on (log buckets: ~2% error).
  EXPECT_NEAR(h.p99, 99, 3);
  EXPECT_GE(h.p999, h.p99);
  EXPECT_LE(h.p999, 100);

  // Re-attach under the same name replaces, not duplicates.
  m.attach_provider("ext", [](MetricsRegistry::Snapshot& s) {
    s.counters["external.count"] = 18;
  });
  EXPECT_EQ(m.snapshot().counters.at("external.count"), 18u);

  auto text = m.to_string();
  EXPECT_NE(text.find("requests"), std::string::npos);
  EXPECT_NE(text.find("latency"), std::string::npos);
  EXPECT_NE(text.find(" p99="), std::string::npos);
  EXPECT_NE(text.find(" p999="), std::string::npos);
}

TEST(MetricsTest, RuntimeRegistryAggregatesLegacyCounters) {
  auto world = TestWorld::make();
  auto rt = world.runtime("h1", /*builtins=*/false);
  rt->fault_stats().rpc_retries.fetch_add(5);
  rt->transitions().stats_sink()->update(
      [](TransitionStats& s) { s.completed = 2; });

  auto snap = rt->metrics()->snapshot();
  EXPECT_EQ(snap.counters.at("fault.rpc_retries"), 5u);
  EXPECT_EQ(snap.counters.at("transition.completed"), 2u);
  EXPECT_EQ(snap.counters.count("trace.spans_recorded"), 1u);
  // The legacy accessors remain the source of truth.
  EXPECT_EQ(rt->fault_stats().rpc_retries.load(), 5u);
  EXPECT_EQ(rt->transitions().stats().completed, 2u);
}

TEST(MetricsTest, TelemetryCellsExportThroughRegistry) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h-srv");
  auto cli_rt = world.runtime("h-cli");

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("telemetry")))
                      .value()
                      .listen(Addr::mem("h-srv", 40))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(conn->send(Msg::of("ping")).ok());
  ASSERT_TRUE(srv->recv(Deadline::after(seconds(5))).ok());

  auto snap = srv_rt->metrics()->snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("telemetry.", 0) == 0 &&
        name.find(".msgs_received") != std::string::npos && value >= 1) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "telemetry cells missing from registry:\n"
                     << srv_rt->metrics()->to_string();
}

// --- exporters ---------------------------------------------------------
//
// A deliberately tiny JSON parser — just enough to schema-check the
// Chrome trace output without external dependencies.

struct JsonValue {
  enum Kind { object, array, string, number, boolean, null } kind = null;
  std::map<std::string, JsonValue> fields;
  std::vector<JsonValue> items;
  std::string str;
  double num = 0;
  bool b = false;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool parse(JsonValue* out) { return value(out) && (skip_ws(), pos_ == s_.size()); }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      pos_++;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }
  bool string_lit(std::string* out) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    pos_++;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_++];
        switch (e) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'u':
            if (pos_ + 4 > s_.size()) return false;
            pos_ += 4;
            out->push_back('?');
            break;
          default: out->push_back(e);
        }
      } else {
        out->push_back(c);
      }
    }
    if (pos_ >= s_.size()) return false;
    pos_++;  // closing quote
    return true;
  }
  bool value(JsonValue* out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') {
      pos_++;
      out->kind = JsonValue::object;
      skip_ws();
      if (consume('}')) return true;
      do {
        std::string key;
        if (!string_lit(&key) || !consume(':')) return false;
        JsonValue v;
        if (!value(&v)) return false;
        out->fields[key] = std::move(v);
      } while (consume(','));
      return consume('}');
    }
    if (c == '[') {
      pos_++;
      out->kind = JsonValue::array;
      skip_ws();
      if (consume(']')) return true;
      do {
        JsonValue v;
        if (!value(&v)) return false;
        out->items.push_back(std::move(v));
      } while (consume(','));
      return consume(']');
    }
    if (c == '"') {
      out->kind = JsonValue::string;
      return string_lit(&out->str);
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::boolean;
      out->b = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::boolean;
      pos_ += 5;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    // number
    size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) || s_[end] == '-' ||
            s_[end] == '+' || s_[end] == '.' || s_[end] == 'e' || s_[end] == 'E'))
      end++;
    if (end == pos_) return false;
    out->kind = JsonValue::number;
    out->num = std::strtod(s_.c_str() + pos_, nullptr);
    pos_ = end;
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(TraceExportTest, ChromeTraceJsonIsSchemaValid) {
  auto clock = std::make_shared<uint64_t>(1000);
  auto tracer = fake_clock_tracer(clock);
  Span root = tracer->span("client.connect");
  root.tag("endpoint", "with \"quotes\" and \\slashes\\ and\nnewlines");
  *clock = 2500;
  Span child = tracer->span("server.negotiate", root.context());
  *clock = 4000;
  child.finish();
  *clock = 5000;
  root.finish();
  // A second, unrelated trace gets its own pid row.
  Span other = tracer->span("path.send");
  *clock = 5100;
  other.finish();

  std::string json = export_chrome_trace(tracer->collect());
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(&doc)) << json;
  ASSERT_EQ(doc.kind, JsonValue::object);
  ASSERT_EQ(doc.fields.count("traceEvents"), 1u);
  const auto& events = doc.fields["traceEvents"];
  ASSERT_EQ(events.kind, JsonValue::array);
  ASSERT_EQ(events.items.size(), 3u);

  std::set<double> pids;
  for (const auto& ev : events.items) {
    ASSERT_EQ(ev.kind, JsonValue::object);
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"})
      ASSERT_EQ(ev.fields.count(key), 1u) << "missing " << key;
    EXPECT_EQ(ev.fields.at("ph").str, "X");
    EXPECT_EQ(ev.fields.at("ts").kind, JsonValue::number);
    EXPECT_EQ(ev.fields.at("dur").kind, JsonValue::number);
    ASSERT_EQ(ev.fields.count("args"), 1u);
    EXPECT_EQ(ev.fields.at("args").fields.count("trace_id"), 1u);
    pids.insert(ev.fields.at("pid").num);
  }
  EXPECT_EQ(pids.size(), 2u) << "each trace gets its own pid row";

  // Timestamps are microseconds: the 1000ns start renders as 1us.
  const auto& first = events.items[0];
  EXPECT_EQ(first.fields.at("name").str, "client.connect");
  EXPECT_DOUBLE_EQ(first.fields.at("ts").num, 1.0);
  EXPECT_DOUBLE_EQ(first.fields.at("dur").num, 4.0);
}

TEST(TraceExportTest, TextSummaryShowsTreeAndLatencies) {
  auto clock = std::make_shared<uint64_t>(0);
  auto tracer = fake_clock_tracer(clock);
  Span root = tracer->span("client.connect");
  *clock = 100;
  Span child = tracer->span("server.negotiate", root.context());
  child.tag_u64("epoch", 1);
  *clock = 30100;
  child.finish();
  *clock = 50000;
  root.finish();

  std::string text = export_text_summary(tracer->collect());
  EXPECT_NE(text.find("client.connect"), std::string::npos);
  EXPECT_NE(text.find("server.negotiate"), std::string::npos);
  EXPECT_NE(text.find("epoch=1"), std::string::npos);
  EXPECT_NE(text.find("phase latency"), std::string::npos);
  // The child is indented under the root.
  size_t root_at = text.find("client.connect");
  size_t child_at = text.find("server.negotiate");
  EXPECT_GT(child_at, root_at);
}

// --- propagation through fault-injected discovery RPCs -----------------

ImplInfo impl_of(const std::string& type, const std::string& name) {
  ImplInfo i;
  i.type = type;
  i.name = name;
  i.scope = Scope::host;
  i.endpoints = EndpointConstraint::server;
  i.priority = 10;
  return i;
}

TEST(TracePropagationTest, RetriedRpcSharesTraceAndDedupIsTagged) {
  auto tracer = std::make_shared<Tracer>();
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  DiscoveryServer::Options so;
  so.tracer = tracer;
  DiscoveryServer server(net->bind(Addr::mem("disc", 1)).value(), state, so);

  auto* fault = new FaultInjectingTransport(
      net->bind(Addr::mem("cli", 0)).value(), {});
  std::atomic<bool> drop_next_rsp{false};
  fault->set_recv_filter([&](const Addr&, BytesView) {
    return drop_next_rsp.exchange(false);
  });
  RemoteDiscovery::Options ro;
  ro.rpc_timeout = ms(100);
  ro.retries = 3;
  ro.backoff = {ms(5), 2.0, ms(20), 0.1};
  ro.tracer = tracer;
  RemoteDiscovery client(TransportPtr(fault), server.addr(), ro);

  // The response to the first attempt is lost; the retry is answered
  // from the server's dedup cache.
  drop_next_rsp = true;
  ASSERT_TRUE(client.register_impl(impl_of("offload", "offload/hw")).ok());
  ASSERT_EQ(server.dedup_hits(), 1u);

  auto spans = tracer->collect();
  const SpanRecord* rpc = find_span(spans, "rpc.register_impl");
  ASSERT_NE(rpc, nullptr);
  EXPECT_TRUE(has_tag(*rpc, "retried", "1"));
  EXPECT_TRUE(has_tag(*rpc, "attempts", "2"));

  // Both resend attempts are children of the one logical RPC span —
  // same trace id, so the retry is visibly part of the same story.
  auto attempts = find_all(spans, "rpc.attempt");
  ASSERT_EQ(attempts.size(), 2u);
  for (const auto* a : attempts) {
    EXPECT_EQ(a->trace_id, rpc->trace_id);
    EXPECT_EQ(a->parent_id, rpc->span_id);
  }

  // The server saw the op twice: one real execution and one dedup-cache
  // replay, both joined to the client's trace via the wire context.
  auto serves = find_all(spans, "serve.register_impl");
  ASSERT_EQ(serves.size(), 2u);
  int dedup_tagged = 0;
  for (const auto* s : serves) {
    EXPECT_EQ(s->trace_id, rpc->trace_id) << "wire context lost";
    if (has_tag(*s, "dedup_hit", "1")) dedup_tagged++;
  }
  EXPECT_EQ(dedup_tagged, 1);
}

TEST(TracePropagationTest, ContextSurvivesDropDupReorderTransport) {
  auto tracer = std::make_shared<Tracer>();
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  DiscoveryServer::Options so;
  so.tracer = tracer;
  DiscoveryServer server(net->bind(Addr::mem("disc", 1)).value(), state, so);

  FaultInjectingTransport::Options fo;
  fo.drop = 0.2;
  fo.duplicate = 0.2;
  fo.reorder = 0.2;
  fo.seed = 7;
  auto* fault = new FaultInjectingTransport(
      net->bind(Addr::mem("cli", 0)).value(), fo);
  RemoteDiscovery::Options ro;
  ro.rpc_timeout = ms(80);
  ro.retries = 8;
  ro.backoff = {ms(5), 2.0, ms(20), 0.1};
  ro.tracer = tracer;
  RemoteDiscovery client(TransportPtr(fault), server.addr(), ro);

  for (int i = 0; i < 10; i++) {
    auto q = client.query("offload");
    ASSERT_TRUE(q.ok()) << q.error().to_string();
  }

  // Every serve-side span must belong to some client rpc span's trace:
  // drop/dup/reorder can multiply or reorder frames but never corrupt
  // the propagated context.
  auto spans = tracer->collect();
  std::set<uint64_t> rpc_traces;
  for (const auto& s : spans)
    if (s.name == "rpc.query") rpc_traces.insert(s.trace_id);
  EXPECT_EQ(rpc_traces.size(), 10u);
  size_t serves = 0;
  for (const auto& s : spans)
    if (s.name == "serve.query") {
      serves++;
      EXPECT_EQ(rpc_traces.count(s.trace_id), 1u)
          << "serve span with unknown trace id";
    }
  EXPECT_GE(serves, 10u);
}

// --- degraded-mode writes ----------------------------------------------

TEST(DegradedWriteTest, QueuedWritesReplayOnRecoveryWithSpans) {
  auto tracer = std::make_shared<Tracer>();
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  ASSERT_TRUE(state->register_impl(impl_of("offload", "offload/sw")).ok());
  DiscoveryServer server(net->bind(Addr::mem("disc", 1)).value(), state);

  auto* fault = new FaultInjectingTransport(
      net->bind(Addr::mem("cli", 0)).value(), {});
  RemoteDiscovery::Options ro;
  ro.rpc_timeout = ms(60);
  ro.retries = 0;
  auto remote = std::make_shared<RemoteDiscovery>(TransportPtr(fault),
                                                  server.addr(), ro);
  auto stats = std::make_shared<FaultStats>();
  CachingDiscovery::Options co;
  co.probe_period = ms(50);
  co.tracer = tracer;
  co.metrics = std::make_shared<MetricsRegistry>();
  CachingDiscovery cache(remote, co, stats);

  ASSERT_TRUE(cache.query("offload").ok());  // warm the cache
  fault->partition(true, true);
  ASSERT_TRUE(cache.query("offload").ok());  // trip degraded mode
  ASSERT_TRUE(cache.degraded());

  // Writes during the outage queue instead of failing, and the degraded
  // catalogue serves them back immediately.
  ASSERT_TRUE(cache.register_impl(impl_of("offload", "offload/hw")).ok());
  ASSERT_TRUE(cache.register_impl(impl_of("crypt", "crypt/aes")).ok());
  // Latest-wins: re-registering the same impl replaces the queued entry.
  ImplInfo hw2 = impl_of("offload", "offload/hw");
  hw2.priority = 99;
  ASSERT_TRUE(cache.register_impl(hw2).ok());
  EXPECT_EQ(cache.pending_writes(), 2u);
  auto q = cache.query("offload");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().size(), 2u) << "queued write invisible to queries";

  // Nothing reached the real service yet.
  EXPECT_TRUE(state->query("crypt").value().empty());

  // Heal: the probe notices, queued writes replay before the recovery
  // event goes out.
  auto w = cache.watch("");
  ASSERT_TRUE(w.ok());
  fault->partition(false, false);
  auto ev = w.value()->next(Deadline::after(seconds(3)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().name, kDiscoveryRecoveredEvent);
  EXPECT_EQ(cache.pending_writes(), 0u);
  auto replayed = state->query("offload");
  ASSERT_TRUE(replayed.ok());
  bool found_hw = false;
  for (const auto& i : replayed.value())
    if (i.name == "offload/hw") {
      found_hw = true;
      EXPECT_EQ(i.priority, 99) << "stale queued write replayed";
    }
  EXPECT_TRUE(found_hw);
  EXPECT_EQ(state->query("crypt").value().size(), 1u);

  // One span per replayed mutation, plus queue/exit markers.
  auto spans = tracer->collect();
  EXPECT_EQ(find_all(spans, "discovery.replay_write").size(), 2u);
  EXPECT_GE(find_all(spans, "discovery.queue_write").size(), 2u);
  const SpanRecord* exit_span = find_span(spans, "discovery.degraded_exit");
  ASSERT_NE(exit_span, nullptr);
  EXPECT_TRUE(has_tag(*exit_span, "replay_writes", "2"));

  auto snap = co.metrics->snapshot();
  EXPECT_EQ(snap.counters.at("discovery.queued_writes"), 3u);
  EXPECT_EQ(snap.counters.at("discovery.replayed_writes"), 2u);
}

// --- the single-trace integration story --------------------------------

class InfoChunnel final : public ChunnelImpl {
 public:
  explicit InfoChunnel(ImplInfo info) : info_(std::move(info)) {}
  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext&) override { return inner; }

 private:
  ImplInfo info_;
};

ImplInfo offload_info(const std::string& name, int32_t priority) {
  ImplInfo i;
  i.type = "offload";
  i.name = name;
  i.scope = Scope::host;
  i.endpoints = EndpointConstraint::server;
  i.priority = priority;
  return i;
}

TransitionTuning fast_tuning() {
  TransitionTuning t;
  t.offer_retry = ms(25);
  t.ack_timeout = ms(1000);
  t.drain_timeout = ms(300);
  t.sweep_period = ms(10);
  return t;
}

std::string bound_impl(const ConnPtr& conn, const std::string& type) {
  auto* t = dynamic_cast<TransitionableConnection*>(conn.get());
  if (!t) return "";
  for (const auto& n : t->chain())
    if (n.type == type) return n.impl_name;
  return "";
}

// One trace id covers the whole story: the client's connect, the
// server-side negotiation, the discovery RPCs the server makes while
// negotiating (including a fault-injected retry), and the live
// transition that later upgrades the connection.
TEST(TraceIntegrationTest, OneTraceSpansConnectDiscoveryAndTransition) {
  auto tracer = std::make_shared<Tracer>();  // shared by every component
  auto world = TestWorld::make();
  auto state = std::make_shared<DiscoveryState>();

  DiscoveryServer::Options dso;
  dso.tracer = tracer;
  dso.keepalive = seconds(10);  // keep pushes off the fault window
  DiscoveryServer disc_server(world.mem->bind(Addr::mem("disc", 1)).value(),
                              state, dso);

  // The server runtime reaches discovery over RPC through a fault
  // transport, so the test can drop one request and force a retry in
  // the middle of negotiation.
  auto* fault = new FaultInjectingTransport(
      world.mem->bind(Addr::mem("h-srv", 9)).value(), {});
  std::atomic<bool> drop_next_req{false};
  fault->set_send_filter([&](const Addr&, BytesView) {
    return drop_next_req.exchange(false);
  });
  RemoteDiscovery::Options ro;
  ro.rpc_timeout = ms(120);
  ro.retries = 3;
  ro.backoff = {ms(5), 2.0, ms(20), 0.1};
  ro.tracer = tracer;
  auto remote = std::make_shared<RemoteDiscovery>(TransportPtr(fault),
                                                  disc_server.addr(), ro);

  RuntimeConfig scfg;
  scfg.host_id = "h-srv";
  scfg.transports =
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h-srv");
  scfg.discovery = remote;
  scfg.tracer = tracer;
  scfg.transition_tuning = fast_tuning();
  scfg.handshake_timeout = ms(1000);
  auto srv_rt = Runtime::create(std::move(scfg)).value();

  RuntimeConfig ccfg;
  ccfg.host_id = "h-cli";
  ccfg.transports =
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h-cli");
  ccfg.discovery = state;  // the client talks to the state directly
  ccfg.tracer = tracer;
  ccfg.transition_tuning = fast_tuning();
  ccfg.handshake_timeout = ms(1000);
  auto cli_rt = Runtime::create(std::move(ccfg)).value();

  ASSERT_TRUE(srv_rt
                  ->register_chunnel(
                      std::make_shared<InfoChunnel>(offload_info("offload/sw", 0)))
                  .ok());

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  // Let the controller's startup watch subscribe finish before arming
  // the drop, so the lost frame is negotiation's discovery query.
  sleep_for(ms(100));
  (void)tracer->collect();  // discard setup-time spans

  drop_next_req = true;
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(10)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(5))).value();
  EXPECT_FALSE(drop_next_req.load()) << "no discovery RPC during negotiation";

  // Provoke the live transition and wait for cutover + drain.
  ImplInfo hw = offload_info("offload/hw", 50);
  ASSERT_TRUE(srv_rt->register_chunnel(std::make_shared<InfoChunnel>(hw)).ok());
  ASSERT_TRUE(state->register_impl(hw).ok());
  // Full round trips: the client-side offer handling runs inside the
  // application's own recv call.
  Deadline dl = Deadline::after(seconds(10));
  while (bound_impl(srv, "offload") != "offload/hw") {
    ASSERT_FALSE(dl.expired()) << "no transition after 10s";
    ASSERT_TRUE(conn->send(Msg::of("m")).ok());
    ASSERT_TRUE(srv->recv(Deadline::after(seconds(5))).ok());
    ASSERT_TRUE(srv->send(Msg::of("r")).ok());
    ASSERT_TRUE(conn->recv(Deadline::after(seconds(5))).ok());
  }

  // Cutover is observable before the old chain drains; the drain span is
  // recorded by the sweeper afterwards, so keep collecting until it lands.
  auto spans = tracer->collect();
  Deadline drain_dl = Deadline::after(seconds(10));
  while (find_span(spans, "transition.drain") == nullptr) {
    ASSERT_FALSE(drain_dl.expired()) << "old chain never drained";
    sleep_for(ms(20));
    auto more = tracer->collect();
    spans.insert(spans.end(), std::make_move_iterator(more.begin()),
                 std::make_move_iterator(more.end()));
  }
  const SpanRecord* connect = find_span(spans, "client.connect");
  ASSERT_NE(connect, nullptr);
  const uint64_t trace = connect->trace_id;

  // Everything below happened under the connect's trace id — across the
  // wire, across threads, across processes-worth of components.
  for (const char* name :
       {"server.negotiate", "server.build_stack", "client.build_stack",
        "rpc.query", "serve.query", "transition.offer", "transition.stage",
        "transition.cutover", "transition.drain", "client.transition"}) {
    const SpanRecord* s = find_span(spans, name);
    ASSERT_NE(s, nullptr) << "missing span " << name;
    EXPECT_EQ(s->trace_id, trace) << name << " not in the connect trace";
  }

  // The injected retry rode the same trace: the negotiation-time rpc
  // span retried once and both attempts are its children.
  const SpanRecord* retried = nullptr;
  for (const auto& s : spans)
    if (s.trace_id == trace && s.name.rfind("rpc.", 0) == 0 &&
        has_tag(s, "retried", "1"))
      retried = &s;
  ASSERT_NE(retried, nullptr) << "injected retry not visible in the trace";
  size_t attempts = 0;
  for (const auto& s : spans)
    if (s.name == "rpc.attempt" && s.parent_id == retried->span_id) attempts++;
  EXPECT_GE(attempts, 2u);

  // The trace renders: both exporters accept the real span set.
  JsonValue doc;
  ASSERT_TRUE(JsonParser(export_chrome_trace(spans)).parse(&doc));
  EXPECT_GE(doc.fields["traceEvents"].items.size(), spans.size());
  EXPECT_NE(export_text_summary(spans).find("client.connect"),
            std::string::npos);
}

// The rollback path: lost acks make the server roll back and cancel; the
// client reverts onto its draining old stack. The rollback, the cancel's
// wire context, and the client's revert all join the offer's trace.
TEST(TraceIntegrationTest, RollbackAndRevertSpansShareTheOfferTrace) {
  auto tracer = std::make_shared<Tracer>();
  auto world = TestWorld::make();

  auto drop_acks = std::make_shared<std::atomic<bool>>(false);
  auto cli_factory = std::make_shared<FaultInjectingFactory>(
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h-cli"),
      FaultInjectingTransport::Options{});
  cli_factory->set_send_filter([drop_acks](const Addr&, BytesView p) {
    return drop_acks->load() && p.size() >= kWireHeaderSize &&
           p[2] == static_cast<uint8_t>(MsgKind::transition_ack);
  });

  TransitionTuning tuning;
  tuning.offer_retry = ms(25);
  tuning.ack_timeout = ms(250);
  tuning.drain_timeout = ms(2000);
  tuning.sweep_period = ms(10);

  RuntimeConfig scfg;
  scfg.host_id = "h-srv";
  scfg.transports =
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h-srv");
  scfg.discovery = world.discovery;
  scfg.transition_tuning = tuning;
  scfg.tracer = tracer;
  auto srv_rt = Runtime::create(std::move(scfg)).value();
  RuntimeConfig ccfg;
  ccfg.host_id = "h-cli";
  ccfg.transports = cli_factory;
  ccfg.discovery = world.discovery;
  ccfg.transition_tuning = tuning;
  ccfg.tracer = tracer;
  auto cli_rt = Runtime::create(std::move(ccfg)).value();

  ASSERT_TRUE(srv_rt
                  ->register_chunnel(
                      std::make_shared<InfoChunnel>(offload_info("offload/sw", 0)))
                  .ok());
  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(5))).value();

  drop_acks->store(true);
  ImplInfo hw = offload_info("offload/hw", 50);
  ASSERT_TRUE(srv_rt->register_chunnel(std::make_shared<InfoChunnel>(hw)).ok());
  ASSERT_TRUE(world.discovery->register_impl(hw).ok());

  Deadline dl = Deadline::after(seconds(10));
  while (srv_rt->transitions().stats().rolled_back == 0 ||
         cli_rt->transitions().stats().reverts == 0) {
    ASSERT_FALSE(dl.expired()) << "rollback/revert never happened";
    (void)conn->send(Msg::of("probe"));
    (void)srv->recv(Deadline::after(ms(20)));
    (void)conn->recv(Deadline::after(ms(20)));
  }
  drop_acks->store(false);

  auto spans = tracer->collect();
  const SpanRecord* offer = find_span(spans, "transition.offer");
  ASSERT_NE(offer, nullptr);
  for (const char* name :
       {"transition.rollback", "client.transition", "client.revert"}) {
    const SpanRecord* s = find_span(spans, name);
    ASSERT_NE(s, nullptr) << "missing span " << name;
    EXPECT_EQ(s->trace_id, offer->trace_id)
        << name << " lost the transition's trace";
  }
  const SpanRecord* rollback = find_span(spans, "transition.rollback");
  EXPECT_TRUE(has_tag(*rollback, "epoch"));
}

}  // namespace
}  // namespace bertha
