// Tests for the application substrates: KV store, KV wire protocol,
// request application, and the YCSB-style workload generator
// (distribution properties, determinism, workload mixes).
#include <gtest/gtest.h>

#include <map>

#include "apps/kvproto.hpp"
#include "apps/kvserver.hpp"
#include "apps/kvstore.hpp"
#include "apps/ycsb.hpp"
#include "util/hash.hpp"

namespace bertha {
namespace {

// --- KvStore ---

TEST(KvStoreTest, PutGetEraseSize) {
  KvStore kv;
  EXPECT_EQ(kv.size(), 0u);
  kv.put("a", "1");
  kv.put("b", "2");
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv.get("a").value_or(""), "1");
  EXPECT_FALSE(kv.get("missing").has_value());
  kv.put("a", "updated");
  EXPECT_EQ(kv.get("a").value_or(""), "updated");
  EXPECT_TRUE(kv.erase("a"));
  EXPECT_FALSE(kv.erase("a"));
  EXPECT_EQ(kv.size(), 1u);
}

// --- KV protocol ---

TEST(KvProtoTest, RequestRoundTrip) {
  KvRequest req;
  req.op = KvOp::put;
  req.id = 0xdeadbeef12345678ULL;
  req.key = "user000000000042";
  req.value = std::string(100, 'v');
  Bytes b = encode_kv_request(req);
  auto got = decode_kv_request(b);
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(got.value(), req);
}

TEST(KvProtoTest, ShardFieldLivesAtFixedOffset) {
  // The paper's Listing 4 hashes payload[10..14]; our encoding puts
  // fnv1a32(key) exactly there, independent of key/value lengths.
  for (const auto& [key, value] :
       std::map<std::string, std::string>{{"k", ""},
                                          {"a-much-longer-key", "payload"},
                                          {"user000000000042", "x"}}) {
    KvRequest req;
    req.op = KvOp::get;
    req.id = 7;
    req.key = key;
    req.value = value;
    Bytes b = encode_kv_request(req);
    ASSERT_GE(b.size(), kKvShardFieldOffset + kKvShardFieldLen);
    EXPECT_EQ(get_u32_le(b, kKvShardFieldOffset),
              static_cast<uint32_t>(fnv1a64(key)));
  }
}

TEST(KvProtoTest, TamperedShardFieldRejected) {
  KvRequest req;
  req.op = KvOp::get;
  req.id = 1;
  req.key = "k";
  Bytes b = encode_kv_request(req);
  b[kKvShardFieldOffset] ^= 0xff;
  EXPECT_FALSE(decode_kv_request(b).ok());
}

TEST(KvProtoTest, ResponseRoundTrip) {
  KvResponse rsp;
  rsp.status = KvStatus::not_found;
  rsp.id = 99;
  rsp.value = "val";
  auto got = decode_kv_response(encode_kv_response(rsp));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), rsp);
}

TEST(KvProtoTest, MalformedRejected) {
  EXPECT_FALSE(decode_kv_request(to_bytes("X")).ok());
  EXPECT_FALSE(decode_kv_request(Bytes(20, 0)).ok());
  EXPECT_FALSE(decode_kv_response(to_bytes("K")).ok());
  // Trailing junk.
  KvRequest req;
  req.key = "k";
  Bytes b = encode_kv_request(req);
  b.push_back(0);
  EXPECT_FALSE(decode_kv_request(b).ok());
}

TEST(ApplyRequestTest, AllOps) {
  KvStore kv;
  KvRequest put{KvOp::put, 1, "k", "v"};
  EXPECT_EQ(apply_kv_request(kv, put).status, KvStatus::ok);
  KvRequest get{KvOp::get, 2, "k", ""};
  auto r = apply_kv_request(kv, get);
  EXPECT_EQ(r.status, KvStatus::ok);
  EXPECT_EQ(r.value, "v");
  EXPECT_EQ(r.id, 2u);
  KvRequest upd{KvOp::update, 3, "k", "v2"};
  EXPECT_EQ(apply_kv_request(kv, upd).status, KvStatus::ok);
  EXPECT_EQ(kv.get("k").value_or(""), "v2");
  KvRequest del{KvOp::del, 4, "k", ""};
  EXPECT_EQ(apply_kv_request(kv, del).status, KvStatus::ok);
  EXPECT_EQ(apply_kv_request(kv, del).status, KvStatus::not_found);
  KvRequest miss{KvOp::get, 5, "k", ""};
  EXPECT_EQ(apply_kv_request(kv, miss).status, KvStatus::not_found);
}

// --- YCSB ---

TEST(YcsbTest, KeysAreWellFormedAndDistinct) {
  std::set<std::string> keys;
  for (uint64_t i = 0; i < 1000; i++) {
    std::string k = YcsbGenerator::key_for(i);
    EXPECT_EQ(k.size(), 16u);
    EXPECT_EQ(k.substr(0, 4), "user");
    keys.insert(k);
  }
  EXPECT_EQ(keys.size(), 1000u);
}

TEST(YcsbTest, DeterministicUnderSeed) {
  YcsbConfig cfg;
  cfg.seed = 7;
  YcsbGenerator a(cfg), b(cfg);
  for (int i = 0; i < 100; i++) {
    KvRequest ra = a.next(), rb = b.next();
    EXPECT_EQ(ra.op, rb.op);
    EXPECT_EQ(ra.key, rb.key);
    EXPECT_EQ(ra.value, rb.value);
  }
}

TEST(YcsbTest, LoadPhaseCoversAllRecords) {
  YcsbConfig cfg;
  cfg.record_count = 50;
  YcsbGenerator gen(cfg);
  std::set<std::string> keys;
  for (uint64_t i = 0; i < cfg.record_count; i++) {
    KvRequest req = gen.load_request(i);
    EXPECT_EQ(req.op, KvOp::put);
    EXPECT_EQ(req.value.size(), cfg.value_size);
    keys.insert(req.key);
  }
  EXPECT_EQ(keys.size(), 50u);
}

struct MixCase {
  YcsbWorkload workload;
  double expect_reads;
  double tolerance;
};

// Names each case by its workload letter; the default byte dump includes
// uninitialised padding, so the test name would change every run.
void PrintTo(const MixCase& c, std::ostream* os) {
  *os << "workload_" << static_cast<char>('a' + static_cast<int>(c.workload));
}

class YcsbMixTest : public ::testing::TestWithParam<MixCase> {};

TEST_P(YcsbMixTest, ReadFractionMatchesSpec) {
  YcsbConfig cfg;
  cfg.workload = GetParam().workload;
  cfg.record_count = 100;
  cfg.seed = 11;
  YcsbGenerator gen(cfg);
  int reads = 0, total = 10000;
  for (int i = 0; i < total; i++)
    if (gen.next().op == KvOp::get) reads++;
  EXPECT_NEAR(reads / static_cast<double>(total), GetParam().expect_reads,
              GetParam().tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, YcsbMixTest,
    ::testing::Values(MixCase{YcsbWorkload::a, 0.50, 0.02},
                      MixCase{YcsbWorkload::b, 0.95, 0.01},
                      MixCase{YcsbWorkload::c, 1.00, 0.0001},
                      MixCase{YcsbWorkload::f, 0.50, 0.02}));

TEST(YcsbTest, ZipfianIsSkewedUniformIsNot) {
  auto top_share = [](KeyDistribution dist) {
    YcsbConfig cfg;
    cfg.distribution = dist;
    cfg.workload = YcsbWorkload::c;
    cfg.record_count = 1000;
    cfg.seed = 13;
    YcsbGenerator gen(cfg);
    std::map<std::string, int> counts;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; i++) counts[gen.next().key]++;
    std::vector<int> sorted;
    for (auto& [k, c] : counts) sorted.push_back(c);
    std::sort(sorted.rbegin(), sorted.rend());
    int top10 = 0;
    for (size_t i = 0; i < 10 && i < sorted.size(); i++) top10 += sorted[i];
    return top10 / static_cast<double>(kN);
  };
  double zipf = top_share(KeyDistribution::zipfian);
  double uniform = top_share(KeyDistribution::uniform);
  EXPECT_GT(zipf, 0.25);     // zipf(0.99): top-10 of 1000 keys dominate
  EXPECT_LT(uniform, 0.05);  // uniform: top-10 get ~1%
}

TEST(YcsbTest, ZipfianSamplesInRange) {
  ZipfianGenerator z(100, 0.99, Rng(17));
  for (int i = 0; i < 10000; i++) EXPECT_LT(z.next(), 100u);
}

TEST(YcsbTest, LatestDistributionPrefersNewRecords) {
  YcsbConfig cfg;
  cfg.workload = YcsbWorkload::d;
  cfg.distribution = KeyDistribution::latest;
  cfg.record_count = 1000;
  cfg.seed = 19;
  YcsbGenerator gen(cfg);
  // After some inserts, reads should frequently hit the newest records.
  int hits_new = 0, reads = 0;
  std::set<std::string> recent;
  for (int i = 0; i < 5000; i++) {
    KvRequest req = gen.next();
    if (req.op == KvOp::put) {
      recent.insert(req.key);
    } else {
      reads++;
      // "New" = one of the ~5% inserted keys or the very tail of the
      // preload; approximate via the recent set only.
      if (recent.count(req.key)) hits_new++;
    }
  }
  ASSERT_GT(reads, 0);
  // Inserted records are ~5% of the keyspace but get a far larger read
  // share under `latest`.
  EXPECT_GT(hits_new / static_cast<double>(reads), 0.15);
}

TEST(YcsbTest, ScanBatchesAreConsecutive) {
  YcsbConfig cfg;
  cfg.workload = YcsbWorkload::e;
  cfg.record_count = 500;
  cfg.max_scan_len = 8;
  cfg.seed = 23;
  YcsbGenerator gen(cfg);
  int scans_seen = 0;
  for (int i = 0; i < 200 && scans_seen < 20; i++) {
    auto batch = gen.next_batch();
    ASSERT_GE(batch.size(), 1u);
    ASSERT_LE(batch.size(), 8u);
    if (batch.size() > 1) {
      scans_seen++;
      for (const auto& req : batch) EXPECT_EQ(req.op, KvOp::get);
    }
  }
  EXPECT_GT(scans_seen, 0);
}

TEST(YcsbTest, RequestIdsAreUnique) {
  YcsbConfig cfg;
  YcsbGenerator gen(cfg);
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; i++) ids.insert(gen.next().id);
  EXPECT_EQ(ids.size(), 1000u);
}

}  // namespace
}  // namespace bertha

#include "apps/kvclient.hpp"
#include "test_helpers.hpp"

namespace bertha {
namespace {

using testing_support::TestWorld;

struct KvClientFixture : ::testing::Test {
  void start_service(double loss = 0.0, uint64_t seed = 1) {
    world = TestWorld::make(seed);
    if (loss > 0) {
      MemNetwork::Config lossy;
      lossy.drop_rate = loss;
      lossy.seed = seed;
      world.mem = MemNetwork::create(lossy);
    }
    srv_rt = world.runtime("srv");
    cli_rt = world.runtime("cli");
    backend = KvBackend::start(srv_rt->transports(), Addr::mem("srv", 0),
                               "srv", 3)
                  .value();
    ChunnelArgs args;
    args.set("shards", format_addr_list(backend->shard_addrs()));
    args.set_u64("field_offset", kKvShardFieldOffset);
    args.set_u64("field_len", kKvShardFieldLen);
    listener = srv_rt->endpoint("kv", wrap(ChunnelSpec("shard", args)))
                   .value()
                   .listen(Addr::mem("srv", 0))
                   .value();
  }

  TestWorld world;
  std::shared_ptr<Runtime> srv_rt, cli_rt;
  std::unique_ptr<KvBackend> backend;
  std::unique_ptr<Listener> listener;
};

TEST_F(KvClientFixture, BasicOperations) {
  start_service();
  auto client = KvClient::connect(cli_rt, listener->addr(),
                                  Deadline::after(seconds(5)))
                    .value();
  EXPECT_FALSE(client->get("missing").ok());
  ASSERT_TRUE(client->put("k1", "v1").ok());
  EXPECT_EQ(client->get("k1").value(), "v1");
  ASSERT_TRUE(client->put("k1", "v2").ok());
  EXPECT_EQ(client->get("k1").value(), "v2");
  ASSERT_TRUE(client->erase("k1").ok());
  EXPECT_FALSE(client->get("k1").ok());
  EXPECT_FALSE(client->erase("k1").ok());
  EXPECT_EQ(client->retransmissions(), 0u);
  client->close();
  backend->stop();
}

TEST_F(KvClientFixture, RetriesThroughLoss) {
  start_service(/*loss=*/0.3, /*seed=*/5);
  KvClient::Options opts;
  opts.rpc_timeout = ms(50);
  opts.retries = 20;
  auto client = KvClient::connect(cli_rt, listener->addr(), opts,
                                  Deadline::after(seconds(30)))
                    .value();
  for (int i = 0; i < 20; i++) {
    std::string k = "key-" + std::to_string(i);
    ASSERT_TRUE(client->put(k, "v").ok()) << k;
    EXPECT_EQ(client->get(k).value(), "v") << k;
  }
  // 30% loss over 40+ RPCs: retransmissions must have happened, and
  // idempotent retry hid them all.
  EXPECT_GT(client->retransmissions(), 0u);
  client->close();
  backend->stop();
}

TEST_F(KvClientFixture, RejectsBadOptions) {
  start_service();
  KvClient::Options bad;
  bad.retries = -1;
  EXPECT_FALSE(
      KvClient::connect(cli_rt, listener->addr(), bad, Deadline::never()).ok());
  backend->stop();
}

TEST_F(KvClientFixture, FailsAfterBackendGone) {
  start_service();
  auto client = KvClient::connect(cli_rt, listener->addr(),
                                  KvClient::Options{ms(30), 1},
                                  Deadline::after(seconds(5)))
                    .value();
  ASSERT_TRUE(client->put("k", "v").ok());
  backend->stop();  // shards gone; requests now vanish
  auto r = client->get("k");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::unavailable);
  client->close();
}

}  // namespace
}  // namespace bertha
