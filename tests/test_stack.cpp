// Tests for the host stack layer: qdiscs (FIFO, fq with EDT pacing), NIC
// (TSO split, ring backpressure, completions), CPU model, host demux.
#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <vector>

#include "net/path.hpp"
#include "sim/simulator.hpp"
#include "stack/host.hpp"
#include "stack/host_pair.hpp"
#include "stack/nic.hpp"
#include "stack/qdisc.hpp"

namespace stob::stack {
namespace {

net::Packet make_packet(std::int64_t payload, net::FlowKey flow = {1, 2, 1000, 80, net::Proto::Tcp},
                        TimePoint not_before = TimePoint::zero()) {
  net::Packet p;
  p.id = net::next_packet_id();
  p.flow = flow;
  p.header = Bytes(net::kEthIpTcpHeader);
  p.payload = Bytes(payload);
  p.not_before = not_before;
  return p;
}

// ------------------------------------------------------------------- FIFO

TEST(FifoQdisc, FifoOrder) {
  FifoQdisc q;
  std::vector<std::uint64_t> in;
  for (int i = 0; i < 5; ++i) {
    auto p = make_packet(100);
    in.push_back(p.id);
    q.enqueue(std::move(p));
  }
  for (std::uint64_t id : in) {
    auto p = q.dequeue(TimePoint::zero());
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->id, id);
  }
  EXPECT_TRUE(q.empty());
}

TEST(FifoQdisc, IgnoresEdt) {
  FifoQdisc q;
  q.enqueue(make_packet(100, {1, 2, 1000, 80, net::Proto::Tcp}, TimePoint(1'000'000)));
  // FIFO dequeues immediately even though the packet is paced to t=1ms.
  EXPECT_TRUE(q.dequeue(TimePoint::zero()).has_value());
}

TEST(FifoQdisc, CapacityDrops) {
  FifoQdisc q(Bytes(3000));
  for (int i = 0; i < 5; ++i) q.enqueue(make_packet(1400));
  EXPECT_GT(q.dropped(), 0u);
}

TEST(FifoQdisc, FlowBacklogTracksBytes) {
  FifoQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  q.enqueue(make_packet(100, a));
  q.enqueue(make_packet(200, a));
  q.enqueue(make_packet(300, b));
  EXPECT_EQ(q.flow_backlog(a).count(), 300 + 2 * net::kEthIpTcpHeader);
  EXPECT_EQ(q.flow_backlog(b).count(), 300 + net::kEthIpTcpHeader);
  (void)q.dequeue(TimePoint::zero());
  EXPECT_EQ(q.flow_backlog(a).count(), 200 + net::kEthIpTcpHeader);
}

// --------------------------------------------------------------------- fq

TEST(FqQdisc, HonoursEdt) {
  FqQdisc q;
  auto p = make_packet(100);
  p.enqueued_at = TimePoint::zero();
  p.not_before = TimePoint(5000);
  q.enqueue(std::move(p));
  EXPECT_FALSE(q.dequeue(TimePoint(4999)).has_value());
  EXPECT_EQ(q.next_ready(TimePoint::zero()), TimePoint(5000));
  EXPECT_TRUE(q.dequeue(TimePoint(5000)).has_value());
}

TEST(FqQdisc, NeverReordersWithinFlow) {
  FqQdisc q;
  const net::FlowKey f{1, 2, 1000, 80, net::Proto::Tcp};
  std::vector<std::uint64_t> in;
  for (int i = 0; i < 20; ++i) {
    auto p = make_packet(500, f);
    in.push_back(p.id);
    q.enqueue(std::move(p));
  }
  std::vector<std::uint64_t> out;
  while (auto p = q.dequeue(TimePoint::zero())) out.push_back(p->id);
  EXPECT_EQ(out, in);
}

TEST(FqQdisc, PacedHeadDoesNotBlockOtherFlows) {
  FqQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  auto paced = make_packet(100, a);
  paced.not_before = TimePoint(1'000'000);
  q.enqueue(std::move(paced));
  q.enqueue(make_packet(100, b));
  auto p = q.dequeue(TimePoint::zero());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->flow, b);  // flow b got through while a is paced
}

TEST(FqQdisc, RoundRobinFairness) {
  FqQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  for (int i = 0; i < 10; ++i) {
    q.enqueue(make_packet(1400, a));
    q.enqueue(make_packet(1400, b));
  }
  // Count how many of the first 10 dequeues belong to each flow: DRR with
  // equal sizes should interleave roughly evenly.
  int got_a = 0, got_b = 0;
  for (int i = 0; i < 10; ++i) {
    auto p = q.dequeue(TimePoint::zero());
    ASSERT_TRUE(p.has_value());
    (p->flow == a ? got_a : got_b) += 1;
  }
  EXPECT_NEAR(got_a, got_b, 2);
}

TEST(FqQdisc, ByteFairnessAcrossUnequalPacketSizes) {
  FqQdisc q;
  const net::FlowKey small{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey large{1, 2, 1001, 80, net::Proto::Tcp};
  for (int i = 0; i < 200; ++i) q.enqueue(make_packet(100, small));
  for (int i = 0; i < 20; ++i) q.enqueue(make_packet(1400, large));
  std::int64_t bytes_small = 0, bytes_large = 0;
  // Drain half the total backlog and compare byte shares.
  for (int i = 0; i < 110; ++i) {
    auto p = q.dequeue(TimePoint::zero());
    if (!p) break;
    (p->flow == small ? bytes_small : bytes_large) += p->wire_size().count();
  }
  const double ratio = static_cast<double>(bytes_small) / static_cast<double>(bytes_large);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(FqQdisc, NextReadyReportsEarliestHead) {
  FqQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  auto pa = make_packet(100, a);
  pa.not_before = TimePoint(8000);
  auto pb = make_packet(100, b);
  pb.not_before = TimePoint(3000);
  q.enqueue(std::move(pa));
  q.enqueue(std::move(pb));
  EXPECT_EQ(q.next_ready(TimePoint::zero()), TimePoint(3000));
  EXPECT_EQ(q.next_ready(TimePoint(5000)), TimePoint(5000));  // b already eligible
}

TEST(FqQdisc, EmptyNextReadyIsMax) {
  FqQdisc q;
  EXPECT_EQ(q.next_ready(TimePoint::zero()), TimePoint::max());
}

TEST(FqQdisc, HorizonClampsAbsurdEdt) {
  FqQdisc q(FqQdisc::Config{Bytes::mebi(4), Bytes(3028), Duration::seconds(1)});
  auto p = make_packet(100);
  p.enqueued_at = TimePoint::zero();
  p.not_before = TimePoint(Duration::seconds(100).ns());
  q.enqueue(std::move(p));
  // Clamped to the 1 s horizon instead of 100 s.
  EXPECT_TRUE(q.dequeue(TimePoint(Duration::seconds(1).ns())).has_value());
}

TEST(FqQdisc, BacklogAndActiveFlows) {
  FqQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  q.enqueue(make_packet(100, a));
  q.enqueue(make_packet(100, b));
  EXPECT_EQ(q.active_flows(), 2u);
  EXPECT_EQ(q.backlog().count(), 2 * (100 + net::kEthIpTcpHeader));
  while (q.dequeue(TimePoint::zero())) {
  }
  EXPECT_EQ(q.active_flows(), 0u);
  EXPECT_EQ(q.backlog().count(), 0);
}

// A drained flow's queue is recycled for the next flow that becomes active.
// It must start exactly as a fresh queue did: zero deficit, joining the
// back of the round. Three flows with quantum-straddling sizes and paced
// heads drain and refill, both between cycles and mid-drain (a flow that
// just drained gets one more packet while the others are still backlogged).
// The dequeue order is pinned to the one recorded before queues were
// recycled, so a carried-over deficit or round slot changes it.
TEST(FqQdisc, ReactivatedFlowsDequeueAsFreshOnes) {
  FqQdisc q;  // quantum 3028 bytes
  const net::FlowKey flows[3] = {{1, 2, 1000, 80, net::Proto::Tcp},
                                 {1, 2, 1001, 80, net::Proto::Tcp},
                                 {1, 2, 1002, 80, net::Proto::Tcp}};
  std::unordered_map<std::uint64_t, int> tag_of;  // packet id -> enqueue index
  std::vector<int> order;
  TimePoint now = TimePoint::zero();
  auto enqueue = [&](int f, std::int64_t payload, Duration pace) {
    auto p = make_packet(payload, flows[f], pace.ns() > 0 ? now + pace : TimePoint::zero());
    p.enqueued_at = now;
    const int tag = static_cast<int>(tag_of.size());
    tag_of[p.id] = tag;
    q.enqueue(std::move(p));
  };
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int k = 0; k < 4; ++k) {
      for (int f = 0; f < 3; ++f) {
        if ((cycle + f) % 3 == 2 && k >= 2) continue;  // uneven bursts
        // 400..3200 B payloads: 466..3266 B on the wire around the quantum.
        const std::int64_t payload = 400 + ((cycle * 7 + f * 5 + k * 3) % 9) * 350;
        const bool paced = f == cycle % 3;
        enqueue(f, payload, paced ? Duration::micros(10 * (k + 1)) : Duration(0));
      }
    }
    int refills = 3;
    for (int guard = 0; !q.empty() && guard < 1000; ++guard) {
      std::optional<net::Packet> p = q.dequeue(now);
      if (!p) {
        now = q.next_ready(now);
        continue;
      }
      order.push_back(tag_of.at(p->id));
      const int f = static_cast<int>(p->flow.src_port - 1000);
      if (q.flow_backlog(p->flow).count() == 0 && refills > 0 && !q.empty()) {
        --refills;
        enqueue(f, 2900 + 100 * refills, Duration::micros(3 * refills));
      }
    }
    ASSERT_TRUE(q.empty()) << "cycle " << cycle;
    EXPECT_EQ(q.active_flows(), 0u);
    EXPECT_LE(q.spare_flows(), 3u);
    now += Duration::micros(100);
  }
  const std::vector<int> recorded = {
      1,  2,  5,  4,  7,  9,  11, 12, 10, 0,  3,  6,  8,  13, 16, 19, 15, 18,
      21, 20, 22, 24, 25, 23, 14, 17, 26, 27, 30, 29, 32, 34, 37, 38, 36, 28,
      31, 33, 35, 41, 40, 43, 44, 46, 48, 50, 51, 49, 39, 42, 45, 47};
  EXPECT_EQ(order, recorded);
}

// ------------------------------------------------- capacity guard parity

// Both qdiscs share admit-one-into-empty-queue capacity semantics: a packet
// larger than the whole capacity is admitted into an empty queue (else the
// flow wedges forever), and over-capacity packets are dropped — and counted
// — identically once anything is backlogged.
TEST(QdiscCapacity, OverCapacityPacketHandledIdenticallyByFifoAndFq) {
  FifoQdisc fifo(Bytes(1000));
  FqQdisc fq(FqQdisc::Config{.capacity = Bytes(1000)});
  for (Qdisc* q : {static_cast<Qdisc*>(&fifo), static_cast<Qdisc*>(&fq)}) {
    // 1400-payload wire size (~1458) exceeds the whole 1000-byte capacity:
    // admitted because the queue is empty.
    q->enqueue(make_packet(1400));
    EXPECT_EQ(q->dropped(), 0u);
    EXPECT_FALSE(q->empty());
    // Anything more while backlogged is over capacity: dropped and counted.
    q->enqueue(make_packet(1400));
    EXPECT_EQ(q->dropped(), 1u);
    q->enqueue(make_packet(100));
    EXPECT_EQ(q->dropped(), 2u);
    // The admitted packet still drains, and the queue re-admits afterwards.
    EXPECT_TRUE(q->dequeue(TimePoint::zero()).has_value());
    EXPECT_TRUE(q->empty());
    q->enqueue(make_packet(1400));
    EXPECT_EQ(q->dropped(), 2u);
    EXPECT_FALSE(q->empty());
  }
}

// -------------------------------------------------------------------- NIC

struct NicFixture {
  sim::Simulator sim;
  net::Pipe pipe{sim, {DataRate::gbps(10), Duration::micros(1), Bytes(0), 0.0}};
  Nic nic{sim, std::make_unique<FqQdisc>()};
  std::vector<net::Packet> delivered;

  NicFixture() {
    nic.attach_egress(pipe);
    pipe.set_sink([this](net::Packet p) { delivered.push_back(std::move(p)); });
  }
};

TEST(Nic, PassthroughSmallPacket) {
  NicFixture f;
  f.nic.transmit(make_packet(1000));
  f.sim.run();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].payload.count(), 1000);
}

TEST(Nic, TsoSplitsSuperSegment) {
  NicFixture f;
  auto p = make_packet(10 * 1448);
  p.tso_mss = 1448;
  net::TcpHeader tcp;
  tcp.seq = 5000;
  tcp.flags = net::kTcpAck;
  tcp.rwnd = 65535;
  p.l4 = tcp;
  f.nic.transmit(std::move(p));
  f.sim.run();
  ASSERT_EQ(f.delivered.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(f.delivered[i].payload.count(), 1448);
    EXPECT_EQ(f.delivered[i].tcp().seq, 5000 + i * 1448);
  }
  EXPECT_EQ(f.nic.tso_segments_split(), 1u);
  EXPECT_EQ(f.nic.wire_packets_sent(), 10u);
}

TEST(Nic, TsoLastPacketShort) {
  NicFixture f;
  auto p = make_packet(3 * 1448 + 500);
  p.tso_mss = 1448;
  f.nic.transmit(std::move(p));
  f.sim.run();
  ASSERT_EQ(f.delivered.size(), 4u);
  EXPECT_EQ(f.delivered.back().payload.count(), 500);
}

TEST(Nic, TsoFinOnlyOnLastPacket) {
  NicFixture f;
  auto p = make_packet(2 * 1000);
  p.tso_mss = 1000;
  net::TcpHeader h;
  h.seq = 0;
  h.flags = net::kTcpAck | net::kTcpFin;
  p.l4 = h;
  f.nic.transmit(std::move(p));
  f.sim.run();
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_FALSE(f.delivered[0].tcp().has(net::kTcpFin));
  EXPECT_TRUE(f.delivered[1].tcp().has(net::kTcpFin));
}

TEST(Nic, TsoMicroBurstAtLineRate) {
  NicFixture f;
  auto p = make_packet(4 * 1448);
  p.tso_mss = 1448;
  std::vector<TimePoint> tx_times;
  f.pipe.set_tx_tap([&](const net::Packet&, TimePoint t) { tx_times.push_back(t); });
  f.nic.transmit(std::move(p));
  f.sim.run();
  ASSERT_EQ(tx_times.size(), 4u);
  // Consecutive wire packets separated by exactly one serialisation time.
  const Duration gap01 = tx_times[1] - tx_times[0];
  const Duration gap12 = tx_times[2] - tx_times[1];
  EXPECT_EQ(gap01.ns(), gap12.ns());
  EXPECT_EQ(gap01.ns(),
            DataRate::gbps(10).transmit_time(Bytes(1448 + net::kEthIpTcpHeader)).ns());
}

TEST(Nic, EdtDelaysDequeue) {
  NicFixture f;
  auto p = make_packet(100);
  p.not_before = TimePoint(2'000'000);
  std::vector<TimePoint> tx_times;
  f.pipe.set_tx_tap([&](const net::Packet&, TimePoint t) { tx_times.push_back(t); });
  f.nic.transmit(std::move(p));
  f.sim.run();
  ASSERT_EQ(tx_times.size(), 1u);
  EXPECT_EQ(tx_times[0].ns(), 2'000'000);
}

TEST(Nic, CompletionHandlerFires) {
  NicFixture f;
  const net::FlowKey flow{1, 2, 1000, 80, net::Proto::Tcp};
  std::int64_t completed = 0;
  f.nic.set_completion_handler(flow, [&](Bytes b) { completed += b.count(); });
  f.nic.transmit(make_packet(1000, flow));
  f.sim.run();
  EXPECT_EQ(completed, 1000 + net::kEthIpTcpHeader);
}

TEST(Nic, FlowUnsentAccounting) {
  NicFixture f;
  const net::FlowKey flow{1, 2, 1000, 80, net::Proto::Tcp};
  auto p = make_packet(1000, flow);
  p.not_before = TimePoint(1'000'000);  // paced into the future: stays in qdisc
  f.nic.transmit(std::move(p));
  EXPECT_EQ(f.nic.flow_unsent(flow).count(), 1000 + net::kEthIpTcpHeader);
  f.sim.run();
  EXPECT_EQ(f.nic.flow_unsent(flow).count(), 0);
}

// Per-flow ring accounting with recycled entries: a flow has unsent bytes
// until its last wire packet completes and none from then on, over several
// idle/busy cycles of three flows sending TSO super-segments and single
// packets.
TEST(Nic, FlowUnsentReachesZeroAtLastCompletion) {
  sim::Simulator sim;
  net::Pipe pipe(sim, {DataRate::gbps(1), Duration::micros(5), Bytes(0), 0.0});
  Nic nic(sim, std::make_unique<FqQdisc>(), Nic::Config{Bytes(8000)});
  nic.attach_egress(pipe);
  pipe.set_sink([](net::Packet) {});
  const net::FlowKey flows[3] = {{1, 2, 1000, 80, net::Proto::Tcp},
                                 {1, 2, 1001, 80, net::Proto::Tcp},
                                 {1, 2, 1002, 80, net::Proto::Tcp}};
  std::int64_t handed[3] = {0, 0, 0};
  std::int64_t completed[3] = {0, 0, 0};
  int drained = 0;
  for (int f = 0; f < 3; ++f) {
    nic.set_completion_handler(flows[f], [&, f](Bytes b) {
      completed[f] += b.count();
      if (completed[f] == handed[f]) {
        EXPECT_EQ(nic.flow_unsent(flows[f]).count(), 0);
        ++drained;
      } else {
        EXPECT_GT(nic.flow_unsent(flows[f]).count(), 0);
      }
    });
  }
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int f = 0; f < 3; ++f) {
      for (int k = 0; k <= f; ++k) {
        auto p = make_packet(f == 1 ? 1000 : 4 * 1448, flows[f]);
        if (f != 1) p.tso_mss = 1448;
        // Wire bytes: one header per MSS packet after the TSO split.
        handed[f] += f == 1 ? 1000 + net::kEthIpTcpHeader : 4 * (1448 + net::kEthIpTcpHeader);
        nic.transmit(std::move(p));
      }
    }
    sim.run();
    for (int f = 0; f < 3; ++f) EXPECT_EQ(nic.flow_unsent(flows[f]).count(), 0) << "cycle " << cycle;
  }
  EXPECT_EQ(drained, 9);  // each flow drained once per cycle
}

TEST(Nic, RingBackpressureBoundsInflight) {
  sim::Simulator sim;
  // Slow pipe so the ring fills.
  net::Pipe pipe(sim, {DataRate::mbps(1), Duration::micros(1), Bytes(0), 0.0});
  Nic nic(sim, std::make_unique<FifoQdisc>(), Nic::Config{Bytes(3000)});
  nic.attach_egress(pipe);
  pipe.set_sink([](net::Packet) {});
  for (int i = 0; i < 10; ++i) nic.transmit(make_packet(1400));
  // With a 3000-byte ring, at most 2 full packets can be posted; the rest
  // must still be in the qdisc.
  EXPECT_GT(nic.qdisc().backlog().count(), 0);
  sim.run();
  EXPECT_EQ(nic.qdisc().backlog().count(), 0);
}

// Regression for the pump wakeup audit: when the tx ring is full, pump()
// cancels the pacing wakeup and does not rearm it. A paced packet parked in
// the qdisc behind a full ring must still drain via the
// on_wire_complete -> pump path once serialisations finish.
TEST(Nic, PacedPacketSurvivesFullRing) {
  sim::Simulator sim;
  // 1 Mb/s: each ~1458B wire packet takes ~11.7ms to serialise, so the ring
  // stays full long past the pacing deadline.
  net::Pipe pipe(sim, {DataRate::mbps(1), Duration::micros(1), Bytes(0), 0.0});
  Nic nic(sim, std::make_unique<FqQdisc>(), Nic::Config{Bytes(3000)});
  nic.attach_egress(pipe);
  std::vector<net::Packet> delivered;
  pipe.set_sink([&](net::Packet p) { delivered.push_back(std::move(p)); });

  for (int i = 0; i < 3; ++i) nic.transmit(make_packet(1400));  // fill the ring + qdisc
  auto paced = make_packet(1400);
  paced.not_before = TimePoint(5'000'000);  // 5ms: before the first completion
  nic.transmit(std::move(paced));
  // The paced packet is stuck behind a full ring with no wakeup armed...
  EXPECT_GT(nic.qdisc().backlog().count(), 0);
  sim.run();
  // ...but completions re-pump, so the flow must not stall.
  EXPECT_EQ(delivered.size(), 4u);
  EXPECT_EQ(nic.qdisc().backlog().count(), 0);
}

TEST(Nic, PacedFarFutureRearmsAfterRingDrains) {
  sim::Simulator sim;
  net::Pipe pipe(sim, {DataRate::mbps(1), Duration::micros(1), Bytes(0), 0.0});
  Nic nic(sim, std::make_unique<FqQdisc>(), Nic::Config{Bytes(3000)});
  nic.attach_egress(pipe);
  std::vector<TimePoint> tx_times;
  pipe.set_tx_tap([&](const net::Packet&, TimePoint t) { tx_times.push_back(t); });
  pipe.set_sink([](net::Packet) {});

  for (int i = 0; i < 2; ++i) nic.transmit(make_packet(1400));
  auto paced = make_packet(1400);
  // 80ms: long after the ring drains (~23ms), so the drain path must rearm
  // a wakeup for the pacing deadline rather than send early or never.
  paced.not_before = TimePoint(80'000'000);
  nic.transmit(std::move(paced));
  sim.run();
  ASSERT_EQ(tx_times.size(), 3u);
  EXPECT_EQ(tx_times.back().ns(), 80'000'000);
}

// -------------------------------------------------------------------- CPU

TEST(CpuModel, DisabledIsFree) {
  CpuModel cpu;
  EXPECT_FALSE(cpu.enabled());
  EXPECT_EQ(cpu.dispatch(TimePoint(100), Bytes(10000), 10), TimePoint(100));
}

TEST(CpuModel, SerialisesWork) {
  CpuModel cpu(CpuModel::Costs{Duration::nanos(500), Duration::nanos(20), 0.0});
  // Two segments of 4 packets each: 500 + 4*20 = 580 ns apiece.
  const TimePoint t1 = cpu.dispatch(TimePoint::zero(), Bytes(4000), 4);
  EXPECT_EQ(t1.ns(), 580);
  const TimePoint t2 = cpu.dispatch(TimePoint::zero(), Bytes(4000), 4);
  EXPECT_EQ(t2.ns(), 1160);  // queued behind the first
  EXPECT_EQ(cpu.busy_time().ns(), 1160);
}

TEST(CpuModel, PerByteCost) {
  CpuModel cpu(CpuModel::Costs{Duration(0), Duration(0), 0.5});
  const TimePoint t = cpu.dispatch(TimePoint::zero(), Bytes(1000), 1);
  EXPECT_EQ(t.ns(), 500);
}

TEST(CpuModel, IdleGapsNotAccumulated) {
  CpuModel cpu(CpuModel::Costs{Duration::nanos(100), Duration(0), 0.0});
  (void)cpu.dispatch(TimePoint::zero(), Bytes(1), 1);
  const TimePoint t = cpu.dispatch(TimePoint(10'000), Bytes(1), 1);
  EXPECT_EQ(t.ns(), 10'100);  // starts at now, not at previous free_at
  EXPECT_EQ(cpu.busy_time().ns(), 200);
}

// ------------------------------------------------------------------- Host

TEST(Host, DemuxToRegisteredFlow) {
  sim::Simulator sim;
  Host host(sim, 2);
  const net::FlowKey incoming{1, 2, 1000, 80, net::Proto::Tcp};
  int got = 0;
  ASSERT_TRUE(host.register_flow(incoming, [&](net::Packet) { ++got; }));
  host.receive(make_packet(100, incoming));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(host.unmatched_packets(), 0u);
}

TEST(Host, ListenerFallback) {
  sim::Simulator sim;
  Host host(sim, 2);
  int got = 0;
  host.bind_listener(80, net::Proto::Tcp, [&](net::Packet) { ++got; });
  host.receive(make_packet(100, {1, 2, 55555, 80, net::Proto::Tcp}));
  EXPECT_EQ(got, 1);
}

TEST(Host, ExactFlowBeatsListener) {
  sim::Simulator sim;
  Host host(sim, 2);
  const net::FlowKey incoming{1, 2, 1000, 80, net::Proto::Tcp};
  int flow_got = 0, listener_got = 0;
  host.register_flow(incoming, [&](net::Packet) { ++flow_got; });
  host.bind_listener(80, net::Proto::Tcp, [&](net::Packet) { ++listener_got; });
  host.receive(make_packet(100, incoming));
  EXPECT_EQ(flow_got, 1);
  EXPECT_EQ(listener_got, 0);
}

TEST(Host, UnmatchedCounted) {
  sim::Simulator sim;
  Host host(sim, 2);
  host.receive(make_packet(100));
  EXPECT_EQ(host.unmatched_packets(), 1u);
}

TEST(Host, DuplicateFlowRegistrationRejected) {
  sim::Simulator sim;
  Host host(sim, 2);
  const net::FlowKey k{1, 2, 1000, 80, net::Proto::Tcp};
  EXPECT_TRUE(host.register_flow(k, [](net::Packet) {}));
  EXPECT_FALSE(host.register_flow(k, [](net::Packet) {}));
}

TEST(Host, EphemeralPortsDistinct) {
  sim::Simulator sim;
  Host host(sim, 1);
  EXPECT_NE(host.allocate_port(), host.allocate_port());
}

TEST(HostPair, WiringDeliversBothWays) {
  HostPair hp;
  int at_server = 0, at_client = 0;
  hp.server().bind_listener(80, net::Proto::Tcp, [&](net::Packet) { ++at_server; });
  hp.client().bind_listener(80, net::Proto::Tcp, [&](net::Packet) { ++at_client; });
  hp.client().nic().transmit(make_packet(100, {1, 2, 999, 80, net::Proto::Tcp}));
  hp.server().nic().transmit(make_packet(100, {2, 1, 999, 80, net::Proto::Tcp}));
  hp.run();
  EXPECT_EQ(at_server, 1);
  EXPECT_EQ(at_client, 1);
}

}  // namespace
}  // namespace stob::stack
