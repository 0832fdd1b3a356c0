// Tests for the network substrate: event loop, topology, network
// transfer semantics, statistics, and the three discovery catalogs.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/str_util.h"
#include "net/catalog.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "net/topology.h"
#include "test_util.h"

namespace axml {
namespace {

using testing::LookupSync;
using testing::PayloadOfSize;

// --- EventLoop ---

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(2.0, [&] { order.push_back(2); });
  loop.ScheduleAt(1.0, [&] { order.push_back(1); });
  loop.ScheduleAt(3.0, [&] { order.push_back(3); });
  EXPECT_EQ(loop.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now(), 3.0);
}

TEST(EventLoopTest, TiesBreakByScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, EventsCanScheduleEvents) {
  EventLoop loop;
  int fired = 0;
  loop.ScheduleAt(1.0, [&] {
    loop.ScheduleAfter(0.5, [&] { ++fired; });
  });
  loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.now(), 1.5);
}

TEST(EventLoopTest, PastSchedulesClampToNow) {
  EventLoop loop;
  loop.ScheduleAt(5.0, [] {});
  loop.Run();
  bool ran = false;
  loop.ScheduleAt(1.0, [&] { ran = true; });  // in the past
  loop.Run();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(loop.now(), 5.0);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(1.0, [&] { ++count; });
  loop.ScheduleAt(2.0, [&] { ++count; });
  loop.ScheduleAt(10.0, [&] { ++count; });
  loop.RunUntil(5.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(loop.now(), 5.0);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoopTest, PeriodicFiresAsEventActivityAdvancesTime) {
  EventLoop loop;
  std::vector<SimTime> ticks;
  loop.AddPeriodic(1.0, [&] { ticks.push_back(loop.now()); });
  // No events: the loop quiesces immediately — the periodic task never
  // keeps it alive.
  EXPECT_EQ(loop.Run(), 0u);
  EXPECT_TRUE(ticks.empty());
  // Activity denser than the interval drives the plain cadence: events
  // at 1.5 and 2.5 carry time past the ticks due at 1.0 and 2.0, each
  // of which fires first, at its own due time.
  std::vector<SimTime> event_times;
  loop.ScheduleAt(1.5, [&] { event_times.push_back(loop.now()); });
  loop.ScheduleAt(2.5, [&] { event_times.push_back(loop.now()); });
  loop.Run();
  ASSERT_EQ(ticks.size(), 2u);
  EXPECT_DOUBLE_EQ(ticks[0], 1.0);
  EXPECT_DOUBLE_EQ(ticks[1], 2.0);
  ASSERT_EQ(event_times.size(), 2u);
  EXPECT_DOUBLE_EQ(event_times[1], 2.5);
}

TEST(EventLoopTest, PeriodicCoalescesMissedTicksAndCanBeRemoved) {
  EventLoop loop;
  int fired = 0;
  const uint64_t id = loop.AddPeriodic(1.0, [&] { ++fired; });
  // Jump time far ahead: the periodic fires for the earliest due tick,
  // then resumes its cadence from the current time instead of replaying
  // every missed interval.
  loop.ScheduleAt(100.0, [] {});
  loop.Run();
  EXPECT_EQ(fired, 1);
  loop.RemovePeriodic(id);
  loop.ScheduleAt(200.0, [] {});
  loop.Run();
  EXPECT_EQ(fired, 1);  // removed: no further firings
}

TEST(EventLoopTest, PeriodicTickMayPostEvents) {
  EventLoop loop;
  std::vector<std::string> order;
  loop.AddPeriodic(1.0, [&] {
    order.push_back("tick");
    loop.Post([&] { order.push_back("posted"); });
  });
  loop.ScheduleAt(1.5, [&] { order.push_back("event"); });
  loop.Run();
  // The tick fires before the event that carried time past it, and the
  // work it posts runs before the later event.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "tick");
  EXPECT_EQ(order[1], "posted");
  EXPECT_EQ(order[2], "event");
}

// --- Topology ---

TEST(TopologyTest, DefaultAndOverrides) {
  Topology t(LinkParams{0.010, 1e6});
  EXPECT_DOUBLE_EQ(t.Get(PeerId(0), PeerId(1)).latency_s, 0.010);
  t.SetLink(PeerId(0), PeerId(1), LinkParams{0.5, 10});
  EXPECT_DOUBLE_EQ(t.Get(PeerId(0), PeerId(1)).latency_s, 0.5);
  // Directed: the reverse keeps the default.
  EXPECT_DOUBLE_EQ(t.Get(PeerId(1), PeerId(0)).latency_s, 0.010);
  t.SetLinkSymmetric(PeerId(2), PeerId(3), LinkParams{0.2, 5});
  EXPECT_DOUBLE_EQ(t.Get(PeerId(3), PeerId(2)).latency_s, 0.2);
}

TEST(TopologyTest, LoopbackIsFree) {
  Topology t(LinkParams{0.1, 100});
  LinkParams self = t.Get(PeerId(1), PeerId(1));
  EXPECT_DOUBLE_EQ(self.latency_s, 0.0);
  EXPECT_LT(self.TransferTime(1 << 20), 1e-5);
}

TEST(TopologyTest, TransferTime) {
  LinkParams link{0.010, 1000};
  EXPECT_DOUBLE_EQ(link.TransferTime(500), 0.010 + 0.5);
}

TEST(TopologyTest, TwoClusters) {
  Topology t = Topology::TwoClusters(4, 2, LinkParams{0.001, 1e7},
                                     LinkParams{0.1, 1e5});
  EXPECT_DOUBLE_EQ(t.Get(PeerId(0), PeerId(1)).latency_s, 0.001);
  EXPECT_DOUBLE_EQ(t.Get(PeerId(2), PeerId(3)).latency_s, 0.001);
  EXPECT_DOUBLE_EQ(t.Get(PeerId(0), PeerId(2)).latency_s, 0.1);
}

TEST(TopologyTest, StarNeighborGraph) {
  Topology t = Topology::Star(PeerId(0), 4, LinkParams{0.001, 1e7},
                              LinkParams{0.05, 1e6});
  EXPECT_TRUE(t.has_neighbor_graph());
  EXPECT_EQ(t.Neighbors(PeerId(0)).size(), 3u);
  EXPECT_EQ(t.Neighbors(PeerId(2)).size(), 1u);
  EXPECT_DOUBLE_EQ(t.Get(PeerId(0), PeerId(3)).latency_s, 0.001);
  EXPECT_DOUBLE_EQ(t.Get(PeerId(1), PeerId(3)).latency_s, 0.05);
}

TEST(TopologyTest, RandomUniformWithinBounds) {
  Rng rng(21);
  Topology t = Topology::RandomUniform(5, LinkParams{0.001, 1e5},
                                       LinkParams{0.1, 1e7}, &rng);
  for (uint32_t i = 0; i < 5; ++i) {
    for (uint32_t j = 0; j < 5; ++j) {
      if (i == j) continue;
      LinkParams l = t.Get(PeerId(i), PeerId(j));
      EXPECT_GE(l.latency_s, 0.001);
      EXPECT_LE(l.latency_s, 0.1);
    }
  }
}

// --- Network ---

TEST(NetworkTest, DeliversWithLatencyAndBandwidth) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.010, 1000}));
  bool delivered = false;
  net.Send(PeerId(0), PeerId(1), PayloadOfSize(500),
           [&](const wire::Payload&) { delivered = true; });
  loop.Run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(loop.now(), 0.010 + 0.5);
}

TEST(NetworkTest, FifoSerializationPerLink) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.0, 1000}));
  std::vector<double> arrivals;
  // Two 1000-byte messages, same link: the second waits for the first's
  // transmission to finish.
  net.Send(PeerId(0), PeerId(1), PayloadOfSize(1000),
           [&](const wire::Payload&) { arrivals.push_back(loop.now()); });
  net.Send(PeerId(0), PeerId(1), PayloadOfSize(1000),
           [&](const wire::Payload&) { arrivals.push_back(loop.now()); });
  loop.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 1.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 2.0);
}

TEST(NetworkTest, DistinctLinksDoNotInterfere) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.0, 1000}));
  std::vector<double> arrivals;
  net.Send(PeerId(0), PeerId(1), PayloadOfSize(1000),
           [&](const wire::Payload&) { arrivals.push_back(loop.now()); });
  net.Send(PeerId(0), PeerId(2), PayloadOfSize(1000),
           [&](const wire::Payload&) { arrivals.push_back(loop.now()); });
  loop.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 1.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 1.0);
}

TEST(NetworkTest, StatsAccounting) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.001, 1e6}));
  net.Send(PeerId(0), PeerId(1), PayloadOfSize(100), nullptr);
  net.Send(PeerId(0), PeerId(1), PayloadOfSize(200), nullptr);
  net.Send(PeerId(2), PeerId(2), PayloadOfSize(50), nullptr);  // loopback
  loop.Run();
  const NetStats& s = net.stats();
  EXPECT_EQ(s.total_messages(), 3u);
  EXPECT_EQ(s.total_bytes(), 350u);
  EXPECT_EQ(s.remote_messages(), 2u);
  EXPECT_EQ(s.remote_bytes(), 300u);
  EXPECT_EQ(s.Pair(PeerId(0), PeerId(1)).messages, 2u);
  EXPECT_EQ(s.Pair(PeerId(0), PeerId(1)).bytes, 300u);
  EXPECT_EQ(s.Pair(PeerId(1), PeerId(0)).messages, 0u);
}

TEST(NetStatsTest, ResetClearsEveryCounterPairAndHistogram) {
  NetStats s;
  s.Record(PeerId(0), PeerId(1), wire::MessageClass::kQuery, 100);
  s.Record(PeerId(2), PeerId(2), wire::MessageClass::kQuery, 50);
  // Control messages feed the histogram and the control counters only.
  for (int i = 0; i < 3; ++i) {
    s.Record(PeerId(0), PeerId(1), wire::MessageClass::kCatalog, 64);
  }
  // A notify: its link half ...
  s.Record(PeerId(1), PeerId(0), wire::MessageClass::kNotify, 48);
  s.RecordPayload(wire::MessageClass::kNotify, 48);  // ... and its class
  s.RecordDrop(100);
  ASSERT_EQ(s.total_messages(), 3u);
  ASSERT_EQ(s.control_messages(), 3u);
  ASSERT_EQ(s.control_bytes(), 192u);
  ASSERT_EQ(s.Pair(PeerId(0), PeerId(1)).messages, 1u);
  ASSERT_EQ(s.message_bytes_histogram().count(), 6u);
  ASSERT_EQ(s.dropped_messages(), 1u);
  ASSERT_EQ(s.dropped_bytes(), 100u);

  s.Reset();

  EXPECT_EQ(s.total_messages(), 0u);
  EXPECT_EQ(s.total_bytes(), 0u);
  EXPECT_EQ(s.remote_messages(), 0u);
  EXPECT_EQ(s.remote_bytes(), 0u);
  EXPECT_EQ(s.control_messages(), 0u);
  EXPECT_EQ(s.control_bytes(), 0u);
  EXPECT_EQ(s.notify_messages(), 0u);
  EXPECT_EQ(s.notify_bytes(), 0u);
  EXPECT_EQ(s.dropped_messages(), 0u);
  EXPECT_EQ(s.dropped_bytes(), 0u);
  EXPECT_EQ(s.Pair(PeerId(0), PeerId(1)).messages, 0u);
  EXPECT_EQ(s.Pair(PeerId(0), PeerId(1)).bytes, 0u);
  EXPECT_EQ(s.Pair(PeerId(1), PeerId(0)).messages, 0u);
  EXPECT_EQ(s.Pair(PeerId(2), PeerId(2)).bytes, 0u);
  EXPECT_EQ(s.message_bytes_histogram().count(), 0u);
  EXPECT_EQ(s.message_bytes_histogram().sum(), 0u);

  // A reset object keeps working.
  s.Record(PeerId(0), PeerId(1), wire::MessageClass::kQuery, 7);
  EXPECT_EQ(s.total_bytes(), 7u);
  EXPECT_EQ(s.message_bytes_histogram().count(), 1u);
}

#if defined(GTEST_HAS_DEATH_TEST) && !defined(AXML_DISABLE_DCHECKS)
TEST(NetStatsDeathTest, NonConcretePeerInPairTripsTheDcheck) {
  // kInvalidIndex / kAnyIndex would silently alias distinct bogus pairs
  // onto shared map slots — the DCHECK turns that into a loud failure.
  NetStats s;
  EXPECT_DEATH(
      s.Record(PeerId::Invalid(), PeerId(1), wire::MessageClass::kQuery, 10),
      "non-peer");
  EXPECT_DEATH(
      s.Record(PeerId(0), PeerId::Any(), wire::MessageClass::kQuery, 10),
      "non-peer");
  EXPECT_DEATH(s.Pair(PeerId::Invalid(), PeerId::Invalid()), "non-peer");
}
#endif

TEST(NetworkTest, ControlExchange) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.001, 1e6}));
  size_t answered = 0;
  // A 64-byte control request; its receiver answers with twice its size.
  net.SendReliable(
      PeerId(0), PeerId(1),
      PayloadOfSize(64, wire::MessageClass::kCatalog),
      [&](const wire::Payload& request) {
        net.SendReliable(
            PeerId(1), PeerId(0),
            PayloadOfSize(2 * request.size(), wire::MessageClass::kCatalog),
            [&](const wire::Payload& p) { answered = p.size(); });
      });
  loop.Run();
  // The requester receives the answer.
  EXPECT_EQ(answered, 128u);
  // Each leg takes its own link's transfer time: 0.001 + 64 / 1e6 out,
  // then 0.001 + 128 / 1e6 back.
  EXPECT_DOUBLE_EQ(loop.now(), 0.002 + 192.0 / 1e6);
  EXPECT_EQ(net.stats().control_messages(), 2u);
  EXPECT_EQ(net.stats().control_bytes(), 192u);
  // Control traffic has no data, remote or per-pair tally.
  EXPECT_EQ(net.stats().total_messages(), 0u);
  EXPECT_EQ(net.stats().remote_bytes(), 0u);
  EXPECT_EQ(net.stats().Pair(PeerId(0), PeerId(1)).messages, 0u);
  // Each leg feeds the shared message-size histogram at its own size,
  // and both are tallied under their message class.
  EXPECT_EQ(net.stats().message_bytes_histogram().count(), 2u);
  EXPECT_EQ(net.stats().message_bytes_histogram().sum(), 192u);
  const Histogram& h = net.stats().message_bytes_histogram();
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(64)), 1u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(128)), 1u);
  EXPECT_EQ(net.stats().class_messages(wire::MessageClass::kCatalog), 2u);
  EXPECT_EQ(net.stats().class_bytes(wire::MessageClass::kCatalog), 192u);
}

TEST(NetworkTest, ControlExchangeQueuesBehindDataOnItsLink) {
  // A control message routes through the same per-link FIFO as data.
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.001, 1e3}));  // 1 KB/s: slow
  bool data = false;
  bool control = false;
  // 1 s transmit.
  net.Send(PeerId(0), PeerId(1), PayloadOfSize(1000),
           [&](const wire::Payload&) { data = true; });
  // A one-way control message.
  net.SendReliable(PeerId(0), PeerId(1),
                   PayloadOfSize(64, wire::MessageClass::kDigest),
                   [&](const wire::Payload&) { control = true; });
  loop.Run();
  EXPECT_TRUE(data);
  EXPECT_TRUE(control);
  // The control message starts only after the 1 s data transmit frees
  // the 0->1 link: 1.0 (queue) + 64/1e3 + 0.001 = 1.065.
  EXPECT_DOUBLE_EQ(loop.now(), 1.0 + 0.065);
}

TEST(NetworkTest, ExchangeAnswerQueuesBehindDataOnTheReverseLink) {
  // The answer is a message of its own on the receiver's link: it
  // waits for whatever data that link is already carrying.
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.001, 1e3}));  // 1 KB/s: slow
  // 1 s of data on the reverse link 1->0.
  net.Send(PeerId(1), PeerId(0), PayloadOfSize(1000), nullptr);
  SimTime request_landed = 0;
  SimTime answered = 0;
  net.SendReliable(
      PeerId(0), PeerId(1), PayloadOfSize(64, wire::MessageClass::kCatalog),
      [&](const wire::Payload& request) {
        request_landed = loop.now();
        net.SendReliable(
            PeerId(1), PeerId(0),
            PayloadOfSize(request.size(), wire::MessageClass::kCatalog),
            [&](const wire::Payload&) { answered = loop.now(); });
      });
  loop.Run();
  // The request's own link is idle: 64/1e3 + 0.001.
  EXPECT_DOUBLE_EQ(request_landed, 0.065);
  // The answer starts once the 1->0 data transmit ends at 1.0.
  EXPECT_DOUBLE_EQ(answered, 1.0 + 0.065);
}

// --- Catalogs ---

class CatalogKindTest : public ::testing::Test {
 protected:
  EventLoop loop_;
};

// The encoded sizes of a lookup request for document "d" and of an
// answer to it listing `holders`.
uint64_t LookupBytes() {
  wire::CatalogMessage m;
  m.key.name = "d";
  return wire::EncodeCatalog(m).size();
}
uint64_t AnswerBytes(std::vector<uint32_t> holders) {
  wire::CatalogMessage m;
  m.op = wire::CatalogMessage::Op::kAnswer;
  m.key.name = "d";
  m.holders = std::move(holders);
  return wire::EncodeCatalog(m).size();
}

TEST_F(CatalogKindTest, CentralChargesRoundTripToServer) {
  Network net(&loop_, Topology(LinkParams{0.020, 1e6}));
  CentralCatalog cat(PeerId(0));
  cat.set_peer_count(10);
  cat.Register(ResourceKind::kDocument, "d", PeerId(3));
  std::vector<PeerId> h =
      LookupSync(cat, ResourceKind::kDocument, "d", PeerId(5), net);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0], PeerId(3));
  // The request carries the key, the answer the key and the holder;
  // each leg is priced at its own encoded size.
  const uint64_t request = LookupBytes();
  const uint64_t answer = AnswerBytes({3});
  EXPECT_EQ(request, 6u);  // header, op, flags, name length, "d"
  EXPECT_EQ(answer, 8u);   // ... plus holder count and one holder id
  EXPECT_EQ(cat.stats().lookup_messages, 2u);
  EXPECT_EQ(cat.stats().lookup_bytes, request + answer);
  EXPECT_NEAR(loop_.now(), 2 * 0.020 + (request + answer) / 1e6, 1e-9);
  // Lookup from the server itself is (nearly) free.
  const SimTime remote = loop_.now();
  LookupSync(cat, ResourceKind::kDocument, "d", PeerId(0), net);
  EXPECT_LT(loop_.now() - remote, remote);
}

TEST_F(CatalogKindTest, CentralAnswersFromItsIndexWhenTheRequestLands) {
  Network net(&loop_, Topology(LinkParams{0.020, 1e6}));
  CentralCatalog cat(PeerId(0));
  cat.set_peer_count(10);
  cat.Register(ResourceKind::kDocument, "d", PeerId(3));
  std::vector<PeerId> got;
  int calls = 0;
  cat.Lookup(ResourceKind::kDocument, "d", PeerId(5), &net,
             [&](const std::vector<PeerId>& h) {
               ++calls;
               got = h;
             });
  // Registered after the lookup left, before its request lands: the
  // server's answer is built on arrival, so it lists this holder too.
  cat.Register(ResourceKind::kDocument, "d", PeerId(4));
  loop_.Run();
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], PeerId(3));
  EXPECT_EQ(got[1], PeerId(4));
}

TEST_F(CatalogKindTest, CentralLookupWithItsServerDownAnswersNoHolders) {
  Network net(&loop_, Topology(LinkParams{0.020, 1e6}));
  CentralCatalog cat(PeerId(0));
  cat.set_peer_count(10);
  cat.Register(ResourceKind::kDocument, "d", PeerId(3));
  net.SetPeerUp(PeerId(0), false);
  // Terminates (the roundtrip is not retried into the dead server) and
  // still calls back exactly once.
  EXPECT_TRUE(
      LookupSync(cat, ResourceKind::kDocument, "d", PeerId(5), net).empty());
  EXPECT_GT(net.stats().dropped_messages(), 0u);
}

TEST_F(CatalogKindTest, ChordLookupRoutesAroundANextHopThatCrashesMidRoute) {
  Network net(&loop_, Topology(LinkParams{0.010, 1e6}));
  ChordDhtCatalog cat;
  cat.set_peer_count(64);
  cat.Register(ResourceKind::kDocument, "d", PeerId(7));
  // A requester whose lookup takes at least two routing hops, so its
  // first hop is an intermediate node, not the responsible one.
  PeerId from = PeerId::Invalid();
  for (uint32_t f = 0; f < 64 && !from.is_concrete(); ++f) {
    cat.ResetStats();
    LookupSync(cat, ResourceKind::kDocument, "d", PeerId(f), net);
    if (cat.stats().lookup_messages >= 3) from = PeerId(f);
  }
  ASSERT_TRUE(from.is_concrete());
  // The first hop is the first node to record load.
  cat.ResetStats();
  cat.Lookup(ResourceKind::kDocument, "d", from, &net,
             [](const std::vector<PeerId>&) {});
  ASSERT_TRUE(loop_.RunOne());
  ASSERT_EQ(cat.node_load().size(), 1u);
  const PeerId first(cat.node_load().begin()->first);
  loop_.Run();

  // Replay, crashing the first hop while the request is on its way.
  cat.ResetStats();
  int calls = 0;
  std::vector<PeerId> got;
  cat.Lookup(ResourceKind::kDocument, "d", from, &net,
             [&](const std::vector<PeerId>& h) {
               ++calls;
               got = h;
             });
  net.SetPeerUp(first, false);
  cat.SetPeerLive(first, false);
  loop_.Run();
  EXPECT_EQ(calls, 1);
  // Routed again from the requester around the crashed peer: the
  // answer still carries the holder, and the dead node handled nothing.
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], PeerId(7));
  EXPECT_EQ(cat.node_load().count(first.index()), 0u);
  EXPECT_EQ(net.stats().dropped_messages(), 1u);
  EXPECT_GT(cat.stats().lookup_messages, 1u);
}

TEST_F(CatalogKindTest, FloodVisitsNeighborGraph) {
  Topology topo(LinkParams{0.010, 1e6});
  // Chain 0-1-2-3.
  topo.AddNeighborEdge(PeerId(0), PeerId(1));
  topo.AddNeighborEdge(PeerId(1), PeerId(2));
  topo.AddNeighborEdge(PeerId(2), PeerId(3));
  Network net(&loop_, topo);
  FloodCatalog cat(/*ttl=*/7);
  cat.set_peer_count(4);
  cat.Register(ResourceKind::kDocument, "d", PeerId(3));
  std::vector<PeerId> h =
      LookupSync(cat, ResourceKind::kDocument, "d", PeerId(0), net);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0], PeerId(3));
  // Every reached node forwards the request on each of its edges (0->1,
  // 1->0, 1->2, 2->1, 2->3, 3->2), and the holder answers once.
  const uint64_t request = LookupBytes();
  const uint64_t answer = AnswerBytes({3});
  EXPECT_EQ(cat.stats().lookup_messages, 7u);
  EXPECT_EQ(cat.stats().lookup_bytes, 6 * request + answer);
  // The request reaches the holder at depth 3, and its answer comes
  // straight back; it outweighs the last request copy, so it lands last.
  EXPECT_NEAR(loop_.now(),
              3 * (0.010 + request / 1e6) + 0.010 + answer / 1e6, 1e-9);
}

TEST_F(CatalogKindTest, FloodTtlLimitsReach) {
  Topology topo(LinkParams{0.010, 1e6});
  topo.AddNeighborEdge(PeerId(0), PeerId(1));
  topo.AddNeighborEdge(PeerId(1), PeerId(2));
  topo.AddNeighborEdge(PeerId(2), PeerId(3));
  Network net(&loop_, topo);
  FloodCatalog cat(/*ttl=*/2);
  cat.set_peer_count(4);
  cat.Register(ResourceKind::kDocument, "d", PeerId(3));
  // Peer 3 is 3 hops away, TTL is 2.
  EXPECT_TRUE(
      LookupSync(cat, ResourceKind::kDocument, "d", PeerId(0), net).empty());
}

TEST_F(CatalogKindTest, AsyncLookupChargesControlTraffic) {
  Network net(&loop_, Topology(LinkParams{0.010, 1e6}));
  CentralCatalog cat(PeerId(0));
  cat.set_peer_count(4);
  cat.Register(ResourceKind::kDocument, "d", PeerId(2));
  bool called = false;
  cat.Lookup(ResourceKind::kDocument, "d", PeerId(1), &net,
             [&](const std::vector<PeerId>& h) {
               called = true;
               EXPECT_EQ(h.size(), 1u);
             });
  loop_.Run();
  EXPECT_TRUE(called);
  EXPECT_EQ(net.stats().control_messages(), 2u);
  EXPECT_GT(loop_.now(), 0.0);
}

TEST_F(CatalogKindTest, UnregisterRemovesHolder) {
  Network net(&loop_, Topology(LinkParams{0.010, 1e6}));
  CentralCatalog cat(PeerId(0));
  cat.Register(ResourceKind::kDocument, "d", PeerId(1));
  cat.Register(ResourceKind::kDocument, "d", PeerId(2));
  cat.Unregister(ResourceKind::kDocument, "d", PeerId(1));
  std::vector<PeerId> h =
      LookupSync(cat, ResourceKind::kDocument, "d", PeerId(3), net);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0], PeerId(2));
  // Unknown resources return no holders but still cost a lookup.
  const uint64_t before = cat.stats().lookup_messages;
  EXPECT_TRUE(
      LookupSync(cat, ResourceKind::kDocument, "zz", PeerId(3), net).empty());
  EXPECT_GT(cat.stats().lookup_messages, before);
}

// Every catalog message is a kCatalog payload on the wire: for each
// structure, the catalog's own byte counters and the network's class
// tally agree, and each message enters the size histogram at its own
// size.
TEST_F(CatalogKindTest, CatalogBytesAreTheNetworksCatalogClassBytes) {
  Topology topo(LinkParams{0.010, 1e6});
  for (uint32_t i = 0; i < 16; ++i) {  // a ring, for flooding
    topo.AddNeighborEdge(PeerId(i), PeerId((i + 1) % 16));
  }
  // A 20-character name makes a 25-byte request; its 22 holders (20 of
  // them with two-byte ids) make a 68-byte answer.
  const std::string name(20, 'n');
  CentralCatalog central(PeerId(0));
  ChordDhtCatalog chord;
  FloodCatalog flood(/*ttl=*/8);  // reaches the whole ring
  for (Catalog* cat :
       std::initializer_list<Catalog*>{&central, &chord, &flood}) {
    Network net(&loop_, topo);
    cat->set_peer_count(16);
    cat->AttachNetwork(&net);
    // Unbatched advertisements, then a batch with a withdrawal.
    for (uint32_t p = 0; p < 16; p += 3) {
      cat->Register(ResourceKind::kDocument, StrCat("d", p), PeerId(p));
    }
    cat->BeginAdvertiseBatch();
    for (uint32_t p = 0; p < 16; ++p) {
      cat->Register(ResourceKind::kService, StrCat("s", p % 4), PeerId(p));
    }
    cat->Unregister(ResourceKind::kDocument, "d3", PeerId(3));
    cat->EndAdvertiseBatch();
    loop_.Run();
    for (uint32_t p : {3u, 9u}) {
      cat->Register(ResourceKind::kDocument, name, PeerId(p));
    }
    for (uint32_t p = 200; p < 220; ++p) {
      cat->Register(ResourceKind::kDocument, name, PeerId(p));
    }
    const NetStats& ns = net.stats();
    for (uint32_t from = 0; from < 16; ++from) {
      EXPECT_FALSE(
          LookupSync(*cat, ResourceKind::kDocument, name, PeerId(from), net)
              .empty());
      LookupSync(*cat, ResourceKind::kDocument, StrCat("d", from % 7),
                 PeerId(from), net);
    }
    const CatalogStats& cs = cat->stats();
    const char* backend = cat->backend_name();
    EXPECT_GT(cs.lookup_messages, 0u) << backend;
    EXPECT_EQ(cs.lookup_bytes + cs.advertise_bytes,
              ns.class_bytes(wire::MessageClass::kCatalog))
        << backend;
    EXPECT_EQ(cs.lookup_messages + cs.advertise_messages,
              ns.class_messages(wire::MessageClass::kCatalog))
        << backend;
    EXPECT_EQ(ns.control_messages(),
              ns.class_messages(wire::MessageClass::kCatalog))
        << backend;
    EXPECT_EQ(ns.control_bytes(), ns.class_bytes(wire::MessageClass::kCatalog))
        << backend;
    // Only catalog traffic ran: one histogram entry per message, at its
    // own size. A roundtrip's 25- and 68-byte legs averaged would land
    // in [32, 64), where no catalog message of this test falls.
    const Histogram& h = ns.message_bytes_histogram();
    EXPECT_EQ(h.count(), ns.control_messages()) << backend;
    EXPECT_EQ(h.sum(), ns.control_bytes()) << backend;
    EXPECT_EQ(h.bucket(Histogram::BucketIndex(32)), 0u) << backend;
    cat->AttachNetwork(nullptr);
  }
  // Chord digests are the only advertisement traffic.
  EXPECT_EQ(central.stats().advertise_messages, 0u);
  EXPECT_GT(chord.stats().advertise_messages, 0u);
  EXPECT_EQ(flood.stats().advertise_messages, 0u);
}

TEST_F(CatalogKindTest, RegisterUnregisterRoundTrips) {
  Network net(&loop_, Topology(LinkParams{0.010, 1e6}));
  // The round-trip contract is implementation-independent; check it on
  // all three catalog structures.
  CentralCatalog central(PeerId(0));
  ChordDhtCatalog dht;
  FloodCatalog flood;
  for (Catalog* cat :
       std::initializer_list<Catalog*>{&central, &dht, &flood}) {
    cat->set_peer_count(4);
    EXPECT_FALSE(cat->IsAdvertised(ResourceKind::kDocument, "d", PeerId(1)));
    cat->Register(ResourceKind::kDocument, "d", PeerId(1));
    EXPECT_TRUE(cat->IsAdvertised(ResourceKind::kDocument, "d", PeerId(1)));
    EXPECT_EQ(cat->HolderCount(ResourceKind::kDocument, "d"), 1u);
    // Registration is idempotent.
    cat->Register(ResourceKind::kDocument, "d", PeerId(1));
    EXPECT_EQ(cat->HolderCount(ResourceKind::kDocument, "d"), 1u);
    // Document and service namespaces are disjoint.
    EXPECT_FALSE(cat->IsAdvertised(ResourceKind::kService, "d", PeerId(1)));
    std::vector<PeerId> h =
        LookupSync(*cat, ResourceKind::kDocument, "d", PeerId(2), net);
    ASSERT_EQ(h.size(), 1u);
    EXPECT_EQ(h[0], PeerId(1));
    cat->Unregister(ResourceKind::kDocument, "d", PeerId(1));
    EXPECT_FALSE(cat->IsAdvertised(ResourceKind::kDocument, "d", PeerId(1)));
    EXPECT_EQ(cat->HolderCount(ResourceKind::kDocument, "d"), 0u);
    // Unregistering an absent holder is a no-op.
    cat->Unregister(ResourceKind::kDocument, "d", PeerId(1));
    EXPECT_TRUE(
        LookupSync(*cat, ResourceKind::kDocument, "d", PeerId(2), net)
            .empty());
  }
}

}  // namespace
}  // namespace axml
