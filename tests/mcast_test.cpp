// Tests for ordered multicast: framing, the software sequencer, switch
// (SimNet) sequencing, end-to-end RSM agreement under both
// implementations, and negotiation picking the switch offload when the
// SimSwitch has capacity.
#include <gtest/gtest.h>

#include "apps/rsm.hpp"
#include "chunnels/ordered_mcast.hpp"
#include "sim/simswitch.hpp"
#include "test_helpers.hpp"

namespace bertha {
namespace {

using testing_support::TestWorld;

TEST(McastFrameTest, RoundTrip) {
  Addr reply = Addr::sim("client", 9);
  Bytes framed = mcast_frame(reply, to_bytes("op"));
  auto parsed = parse_mcast_frame(framed);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().first, reply);
  EXPECT_EQ(to_string(parsed.value().second), "op");

  Bytes sequenced;
  put_u64_le(sequenced, 77);
  append(sequenced, framed);
  auto op = parse_sequenced_mcast(sequenced);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value().seq, 77u);
  EXPECT_EQ(op.value().reply_to, reply);
  EXPECT_EQ(to_string(op.value().payload), "op");
}

TEST(McastFrameTest, RejectsShortAndBadMagic) {
  EXPECT_FALSE(parse_sequenced_mcast(to_bytes("short")).ok());
  Bytes bad;
  put_u64_le(bad, 1);
  append(bad, to_bytes("XX"));
  EXPECT_FALSE(parse_sequenced_mcast(bad).ok());
}

TEST(SoftwareSequencerTest, StampsAndFansOut) {
  auto world = TestWorld::make();
  DefaultTransportFactory factory(world.mem, world.sim, "seq");
  auto m1 = world.sim->attach("r1", 7).value();
  auto m2 = world.sim->attach("r2", 7).value();
  auto seq = SoftwareSequencer::start(factory, Addr::sim("seq", 100),
                                      {m1->local_addr(), m2->local_addr()});
  ASSERT_TRUE(seq.ok());

  auto cli = world.sim->attach("c", 1).value();
  for (int i = 0; i < 3; i++) {
    Bytes framed = mcast_frame(cli->local_addr(),
                               to_bytes("op" + std::to_string(i)));
    ASSERT_TRUE(cli->send_to(seq.value()->addr(), framed).ok());
  }
  for (auto* m : {m1.get(), m2.get()}) {
    for (uint64_t want = 0; want < 3; want++) {
      auto pkt = m->recv(Deadline::after(seconds(5)));
      ASSERT_TRUE(pkt.ok());
      auto op = parse_sequenced_mcast(pkt.value().payload);
      ASSERT_TRUE(op.ok());
      EXPECT_EQ(op.value().seq, want);
    }
  }
  EXPECT_EQ(seq.value()->sequenced(), 3u);
}

TEST(SoftwareSequencerTest, DropsNonMcastTraffic) {
  auto world = TestWorld::make();
  DefaultTransportFactory factory(world.mem, world.sim, "seq");
  auto m1 = world.sim->attach("r1", 7).value();
  auto seq = SoftwareSequencer::start(factory, Addr::sim("seq", 101),
                                      {m1->local_addr()});
  ASSERT_TRUE(seq.ok());
  auto cli = world.sim->attach("c", 1).value();
  ASSERT_TRUE(cli->send_to(seq.value()->addr(), to_bytes("garbage")).ok());
  EXPECT_FALSE(m1->recv(Deadline::after(ms(200))).ok());
  EXPECT_EQ(seq.value()->sequenced(), 0u);
}

TEST(SoftwareSequencerTest, RegistersWithDiscovery) {
  auto world = TestWorld::make();
  DefaultTransportFactory factory(world.mem, world.sim, "seq");
  auto m1 = world.sim->attach("r1", 7).value();
  auto seq = SoftwareSequencer::start(factory, Addr::sim("seq", 102),
                                      {m1->local_addr()});
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(seq.value()->register_with(*world.discovery, "grp").ok());
  auto entries = world.discovery->query("ordered_mcast").value();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].props.at("sequencer"), "software");
}

// --- full RSM over both sequencer implementations ---

struct RsmFixture : ::testing::TestWithParam<bool /*use_switch*/> {
  // Three replicas on sim nodes r0..r2, clients on c0/c1.
  void run() {
    const bool use_switch = GetParam();
    auto world = TestWorld::make();

    std::vector<Addr> member_addrs = {Addr::sim("r0", 7000),
                                      Addr::sim("r1", 7000),
                                      Addr::sim("r2", 7000)};

    std::shared_ptr<SimSwitch> sw;
    std::unique_ptr<SoftwareSequencer> soft;
    if (use_switch) {
      SimSwitch::Config scfg;
      scfg.sequencer_slots = 1;
      sw = SimSwitch::create(world.sim, world.discovery, scfg).value();
      ASSERT_TRUE(sw->install_sequencer_group("grp", 7100, member_addrs).ok());
    } else {
      DefaultTransportFactory f(world.mem, world.sim, "seqnode");
      soft = SoftwareSequencer::start(f, Addr::sim("seqnode", 7100),
                                      member_addrs)
                 .value();
      ASSERT_TRUE(soft->register_with(*world.discovery, "grp").ok());
    }

    std::vector<std::unique_ptr<RsmReplica>> replicas;
    std::vector<Addr> control_addrs;
    for (int i = 0; i < 3; i++) {
      std::string node = "r" + std::to_string(i);
      RsmReplicaConfig cfg;
      cfg.rt = world.runtime(node);
      cfg.listen_addr = Addr::sim(node, 8000);
      cfg.member_addr = member_addrs[static_cast<size_t>(i)];
      cfg.group = "grp";
      cfg.replier = i == 0;
      auto rep = RsmReplica::start(std::move(cfg));
      ASSERT_TRUE(rep.ok()) << rep.error().to_string();
      control_addrs.push_back(rep.value()->control_addr());
      replicas.push_back(std::move(rep).value());
    }

    auto cli_rt = world.runtime("c0");
    auto client = RsmClient::connect(cli_rt, control_addrs,
                                     Deadline::after(seconds(10)));
    ASSERT_TRUE(client.ok()) << client.error().to_string();

    // Writes then reads through the replicated machine.
    for (int i = 0; i < 10; i++) {
      KvRequest op;
      op.op = KvOp::put;
      op.id = static_cast<uint64_t>(i + 1);
      op.key = "k" + std::to_string(i);
      op.value = "v" + std::to_string(i);
      auto rsp = client.value()->execute(op, Deadline::after(seconds(10)));
      ASSERT_TRUE(rsp.ok()) << rsp.error().to_string();
      EXPECT_EQ(rsp.value().status, KvStatus::ok);
    }
    KvRequest get;
    get.op = KvOp::get;
    get.id = 100;
    get.key = "k3";
    auto rsp = client.value()->execute(get, Deadline::after(seconds(10)));
    ASSERT_TRUE(rsp.ok());
    EXPECT_EQ(rsp.value().value, "v3");

    // Every replica applied every op (11) and the stores agree.
    sleep_for(ms(200));  // non-replier replicas lag the client ack
    for (auto& rep : replicas) {
      EXPECT_EQ(rep->applied(), 11u);
      EXPECT_EQ(rep->store().get("k7").value_or(""), "v7");
      EXPECT_EQ(rep->store().size(), 10u);
    }

    client.value()->close();
    for (auto& rep : replicas) rep->stop();
  }
};

TEST_P(RsmFixture, AgreesOnOrderAndState) { run(); }
INSTANTIATE_TEST_SUITE_P(Sequencers, RsmFixture,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "SwitchSequencer"
                                             : "SoftwareSequencer";
                         });

TEST(RsmTest, TwoClientsSeeOneOrder) {
  // Concurrent writers to the same key: all replicas must converge to
  // the same final value because the network orders their ops.
  auto world = TestWorld::make();
  std::vector<Addr> member_addrs = {Addr::sim("r0", 7000),
                                    Addr::sim("r1", 7000)};
  auto sw = SimSwitch::create(world.sim, world.discovery, {}).value();
  ASSERT_TRUE(sw->install_sequencer_group("grp", 7100, member_addrs).ok());

  std::vector<std::unique_ptr<RsmReplica>> replicas;
  std::vector<Addr> control_addrs;
  for (int i = 0; i < 2; i++) {
    std::string node = "r" + std::to_string(i);
    RsmReplicaConfig cfg;
    cfg.rt = world.runtime(node);
    cfg.listen_addr = Addr::sim(node, 8000);
    cfg.member_addr = member_addrs[static_cast<size_t>(i)];
    cfg.group = "grp";
    cfg.replier = i == 0;
    auto rep = RsmReplica::start(std::move(cfg)).value();
    control_addrs.push_back(rep->control_addr());
    replicas.push_back(std::move(rep));
  }

  auto c1 = RsmClient::connect(world.runtime("c1"), control_addrs,
                               Deadline::after(seconds(10)))
                .value();
  auto c2 = RsmClient::connect(world.runtime("c2"), control_addrs,
                               Deadline::after(seconds(10)))
                .value();

  constexpr int kOps = 25;
  std::thread t1([&] {
    for (int i = 0; i < kOps; i++) {
      KvRequest op;
      op.op = KvOp::put;
      op.id = static_cast<uint64_t>(i + 1);
      op.key = "contested";
      op.value = "c1-" + std::to_string(i);
      ASSERT_TRUE(c1->execute(op, Deadline::after(seconds(10))).ok());
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < kOps; i++) {
      KvRequest op;
      op.op = KvOp::put;
      op.id = static_cast<uint64_t>(i + 1);
      op.key = "contested";
      op.value = "c2-" + std::to_string(i);
      ASSERT_TRUE(c2->execute(op, Deadline::after(seconds(10))).ok());
    }
  });
  t1.join();
  t2.join();
  sleep_for(ms(300));

  EXPECT_EQ(replicas[0]->applied(), 2u * kOps);
  EXPECT_EQ(replicas[1]->applied(), 2u * kOps);
  // One global order => identical final values.
  EXPECT_EQ(replicas[0]->store().get("contested").value_or("a"),
            replicas[1]->store().get("contested").value_or("b"));

  c1->close();
  c2->close();
  for (auto& rep : replicas) rep->stop();
}

}  // namespace
}  // namespace bertha

namespace bertha {
namespace {

// Regression: an offload installed for one application instance must
// not capture another instance's traffic just because it has higher
// priority (the "instance" scoping in negotiation).
TEST(McastInstanceScoping, GroupsDoNotCaptureEachOthersSequencers) {
  auto world = TestWorld::make();

  std::vector<Addr> members_a = {Addr::sim("a0", 7000)};
  std::vector<Addr> members_b = {Addr::sim("b0", 7000)};

  // Group A owns the only switch slot; group B runs on software.
  auto sw = SimSwitch::create(world.sim, world.discovery, {}).value();
  ASSERT_TRUE(sw->install_sequencer_group("grp-a", 7100, members_a).ok());
  DefaultTransportFactory f(world.mem, world.sim, "seqnode");
  auto soft =
      SoftwareSequencer::start(f, Addr::sim("seqnode", 7100), members_b)
          .value();
  ASSERT_TRUE(soft->register_with(*world.discovery, "grp-b").ok());

  auto start_replica = [&](const std::string& node, const Addr& member,
                           const std::string& group) {
    RsmReplicaConfig cfg;
    cfg.rt = world.runtime(node);
    cfg.listen_addr = Addr::sim(node, 8000);
    cfg.member_addr = member;
    cfg.group = group;
    cfg.replier = true;
    return RsmReplica::start(std::move(cfg)).value();
  };
  auto rep_a = start_replica("a0", members_a[0], "grp-a");
  auto rep_b = start_replica("b0", members_b[0], "grp-b");

  auto cli = RsmClient::connect(world.runtime("cb"), {rep_b->control_addr()},
                                Deadline::after(seconds(10)))
                 .value();
  KvRequest op;
  op.op = KvOp::put;
  op.id = 1;
  op.key = "owner";
  op.value = "group-b";
  ASSERT_TRUE(cli->execute(op, Deadline::after(seconds(10))).ok());
  sleep_for(ms(100));

  // B applied it; A never saw it (B's client used B's software
  // sequencer, not A's higher-priority switch group).
  EXPECT_EQ(rep_b->applied(), 1u);
  EXPECT_EQ(rep_b->store().get("owner").value_or(""), "group-b");
  EXPECT_EQ(rep_a->applied(), 0u);
  EXPECT_EQ(soft->sequenced(), 1u);

  cli->close();
  rep_a->stop();
  rep_b->stop();
}

// Sequencer handover: a switch taking over a group must continue the
// sequence space (initial_seq), or replicas discard everything as
// duplicates.
TEST(McastInstanceScoping, HandoverPreservesSequenceEpoch) {
  auto world = TestWorld::make();
  auto m = world.sim->attach("r", 7).value();

  // Old sequencer delivered seqs 0..4.
  ASSERT_TRUE(world.sim
                  ->create_group("g1", 7, {m->local_addr()},
                                 /*hw_sequencer=*/true, /*initial_seq=*/0)
                  .ok());
  auto cli = world.sim->attach("c", 1).value();
  for (int i = 0; i < 5; i++)
    ASSERT_TRUE(cli->send_to(Addr::sim("g1", 7), to_bytes("x")).ok());
  for (int i = 0; i < 5; i++)
    ASSERT_TRUE(m->recv(Deadline::after(seconds(2))).ok());
  world.sim->remove_group("g1", 7);

  // New sequencer resumes at 5.
  ASSERT_TRUE(world.sim
                  ->create_group("g1", 7, {m->local_addr()},
                                 /*hw_sequencer=*/true, /*initial_seq=*/5)
                  .ok());
  ASSERT_TRUE(cli->send_to(Addr::sim("g1", 7), to_bytes("y")).ok());
  auto pkt = m->recv(Deadline::after(seconds(2)));
  ASSERT_TRUE(pkt.ok());
  EXPECT_EQ(get_u64_le(pkt.value().payload, 0), 5u);
}

}  // namespace
}  // namespace bertha

namespace bertha {
namespace {

// --- view stamps, standby election, fetch-miss ---

TEST(McastViewTest, ViewStampedRoundTrip) {
  // The stamp packs (view, seq): the seq domain is continuous across
  // views, so replicas' holdback windows survive a sequencer change.
  uint64_t stamp = mcast_stamp(3, 77);
  EXPECT_EQ(stamp & kMcastSeqMask, 77u);
  EXPECT_EQ(stamp >> kMcastSeqBits, 3u);

  Addr reply = Addr::sim("client", 9);
  Bytes sequenced;
  put_u64_le(sequenced, stamp);
  append(sequenced, mcast_frame(reply, to_bytes("op")));
  auto op = parse_sequenced_mcast(sequenced);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value().seq, 77u);
  EXPECT_EQ(op.value().view, 3u);
  EXPECT_EQ(op.value().reply_to, reply);

  // View-start and fetch-miss control frames round-trip too.
  auto vs = parse_mcast_view_start(mcast_view_start_frame(2, 41));
  ASSERT_TRUE(vs.ok());
  EXPECT_EQ(vs.value().view, 2u);
  EXPECT_EQ(vs.value().start_seq, 41u);
  auto miss = parse_mcast_fetch_miss(mcast_fetch_miss_frame(1, 5, 9));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss.value().view, 1u);
  EXPECT_EQ(miss.value().from, 5u);
  EXPECT_EQ(miss.value().to, 9u);
  EXPECT_FALSE(parse_mcast_view_start(mcast_fetch_miss_frame(1, 5, 9)).ok());
}

TEST(McastViewTest, StandbyActivatesOnViewStartAndAnnounces) {
  auto world = TestWorld::make();
  DefaultTransportFactory factory(world.mem, world.sim, "seq");
  auto m1 = world.sim->attach("r1", 7).value();
  auto seq = SoftwareSequencer::start(factory, Addr::sim("seq", 103),
                                      {m1->local_addr()},
                                      /*retransmit_window=*/0, /*view=*/0,
                                      /*standby=*/true)
                 .value();
  EXPECT_FALSE(seq->active());

  // Standing by: client traffic is dropped, not stamped.
  auto cli = world.sim->attach("c", 1).value();
  Bytes framed = mcast_frame(cli->local_addr(), to_bytes("early"));
  ASSERT_TRUE(cli->send_to(seq->addr(), framed).ok());
  EXPECT_FALSE(m1->recv(Deadline::after(ms(200))).ok());
  EXPECT_EQ(seq->sequenced(), 0u);

  // Election result: wake in view 1 at seq 5. The sequencer announces
  // the view with a stamped no-op so replicas adopt it immediately.
  ASSERT_TRUE(cli->send_to(seq->addr(), mcast_view_start_frame(1, 5)).ok());
  auto announce = m1->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(announce.ok());
  auto aop = parse_sequenced_mcast(announce.value().payload);
  ASSERT_TRUE(aop.ok());
  EXPECT_EQ(aop.value().view, 1u);
  EXPECT_EQ(aop.value().seq, 5u);
  EXPECT_TRUE(aop.value().payload.empty());
  EXPECT_TRUE(seq->active());
  EXPECT_EQ(seq->view(), 1u);

  // Client ops now continue the seq chain under the new view.
  ASSERT_TRUE(cli->send_to(seq->addr(), framed).ok());
  auto pkt = m1->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(pkt.ok());
  auto op = parse_sequenced_mcast(pkt.value().payload);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value().view, 1u);
  EXPECT_EQ(op.value().seq, 6u);

  // A stale (lower-view) election result is ignored.
  ASSERT_TRUE(cli->send_to(seq->addr(), mcast_view_start_frame(0, 99)).ok());
  ASSERT_TRUE(cli->send_to(seq->addr(), framed).ok());
  pkt = m1->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(pkt.ok());
  op = parse_sequenced_mcast(pkt.value().payload);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value().view, 1u);
  EXPECT_EQ(op.value().seq, 7u);
}

TEST(McastViewTest, FetchMissForEvictedRange) {
  auto world = TestWorld::make();
  DefaultTransportFactory factory(world.mem, world.sim, "seq");
  auto m1 = world.sim->attach("r1", 7).value();
  auto seq = SoftwareSequencer::start(factory, Addr::sim("seq", 104),
                                      {m1->local_addr()},
                                      /*retransmit_window=*/2)
                 .value();
  auto cli = world.sim->attach("c", 1).value();
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(cli->send_to(seq->addr(),
                             mcast_frame(cli->local_addr(), to_bytes("op")))
                    .ok());
    ASSERT_TRUE(m1->recv(Deadline::after(seconds(5))).ok());
  }

  // Seqs 0..2 are pruned from the two-slot log. A fetch of the full
  // range answers the evicted prefix with a miss frame and retransmits
  // the still-covered tail.
  ASSERT_TRUE(
      cli->send_to(seq->addr(), mcast_fetch_frame(cli->local_addr(), 0, 5))
          .ok());
  auto first = cli->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(first.ok());
  auto miss = parse_mcast_fetch_miss(first.value().payload);
  ASSERT_TRUE(miss.ok()) << "expected the miss frame first";
  EXPECT_EQ(miss.value().from, 0u);
  EXPECT_EQ(miss.value().to, 3u);
  for (uint64_t want = 3; want < 5; want++) {
    auto pkt = cli->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(pkt.ok());
    auto op = parse_sequenced_mcast(pkt.value().payload);
    ASSERT_TRUE(op.ok());
    EXPECT_EQ(op.value().seq, want);
  }
}

// Loss on the sequenced stream: the replica must skip aged-out gaps
// (counting them for recovery) instead of stalling behind a lost
// sequence number.
TEST(McastLossTest, ReplicaSkipsGapsAndKeepsApplying) {
  auto world = TestWorld::make(/*seed=*/321);
  world.sim->set_link("cli", "r0", us(100), /*loss=*/0.3);

  auto sw = SimSwitch::create(world.sim, world.discovery, {}).value();
  ASSERT_TRUE(
      sw->install_sequencer_group("grp", 7100, {Addr::sim("r0", 7000)}).ok());

  auto rep_rt = world.runtime("r0");
  RsmReplicaConfig cfg;
  cfg.rt = rep_rt;
  cfg.listen_addr = Addr::sim("r0", 8000);
  cfg.member_addr = Addr::sim("r0", 7000);
  cfg.group = "grp";
  cfg.replier = false;  // fire-and-forget ops; we inspect replica state
  ChunnelArgs fast_gap;
  fast_gap.set("gap_timeout_us", "10000");
  cfg.extra_mcast_args = fast_gap;
  auto replica = RsmReplica::start(std::move(cfg)).value();

  auto cli_rt = world.runtime("cli");
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(replica->control_addr(), Deadline::after(seconds(10)))
                  .value();

  constexpr int kOps = 200;
  for (int i = 0; i < kOps; i++) {
    KvRequest op;
    op.op = KvOp::put;
    op.id = static_cast<uint64_t>(i + 1);
    op.key = "k" + std::to_string(i);
    op.value = "v";
    Msg m;
    m.payload = encode_kv_request(op);
    ASSERT_TRUE(conn->send(std::move(m)).ok());
  }
  sleep_for(ms(600));  // deliveries + gap timeouts

  // ~30% of the sequenced stream was lost; the replica applied the
  // survivors and recorded the gaps instead of stalling.
  uint64_t applied = replica->applied();
  EXPECT_GT(applied, static_cast<uint64_t>(kOps) * 4 / 10);
  EXPECT_LT(applied, static_cast<uint64_t>(kOps));

  // Both impl instances (switch/software) share the replica state, so
  // each reports the same true total; take one, don't sum.
  uint64_t gaps = 0;
  for (const auto& impl : rep_rt->registry().lookup_type("ordered_mcast")) {
    if (auto* base = dynamic_cast<OrderedMcastChunnelBase*>(impl.get()))
      gaps = std::max(gaps, base->gaps_skipped());
  }
  EXPECT_GT(gaps, 0u);
  EXPECT_EQ(applied + gaps, static_cast<uint64_t>(kOps));

  conn->close();
  replica->stop();
}

// The head-of-line gap ages out on a timer, not on the next datagram:
// with seq 1 lost and nothing sent after seq 2, seq 2 is held back, then
// released once gap_timeout has passed, and the skip is counted.
TEST(McastLossTest, TailGapAgesOutWithNoFurtherDatagram) {
  auto world = TestWorld::make();
  DefaultTransportFactory factory(world.mem, world.sim, "r0");
  SoftwareOrderedMcastChunnel impl;
  const Addr member = Addr::sim("r0", 7000);
  ListenContext lctx;
  lctx.listen_addr = Addr::sim("r0", 8000);
  lctx.host_id = "r0";
  lctx.transports = &factory;
  lctx.app_args.set("member_addr", member.to_string());
  lctx.app_args.set("gap_timeout_us", "400000");
  ASSERT_TRUE(impl.on_listen(lctx).ok());

  auto cli = world.sim->attach("cli", 1).value();
  WrapContext wctx;
  wctx.role = Role::server;
  wctx.listen_addr = lctx.listen_addr;
  auto base = std::make_shared<testing_support::FixedPeerConnection>(
      world.sim->attach("r0", 8000).value(), cli->local_addr());
  auto conn = impl.wrap(base, wctx).value();

  for (uint64_t seq : {0, 2}) {
    Bytes d;
    put_u64_le(d, mcast_stamp(0, seq));
    append(d, mcast_frame(cli->local_addr(),
                          to_bytes("op" + std::to_string(seq))));
    ASSERT_TRUE(cli->send_to(member, d).ok());
  }
  auto op0 = conn->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(op0.ok()) << op0.error().to_string();
  EXPECT_EQ(op0.value().payload_str(), "op0");
  // Seq 2 waits behind the gap...
  auto early = conn->recv(Deadline::after(ms(100)));
  ASSERT_FALSE(early.ok()) << "released before the gap aged out";
  EXPECT_EQ(early.error().code, Errc::timed_out);
  EXPECT_EQ(impl.gaps_skipped(), 0u);
  // ...until the gap entry fires, with no datagram to wake the pump.
  auto op2 = conn->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(op2.ok()) << op2.error().to_string();
  EXPECT_EQ(op2.value().payload_str(), "op2");
  EXPECT_EQ(impl.gaps_skipped(), 1u);
  conn->close();
}

}  // namespace
}  // namespace bertha
