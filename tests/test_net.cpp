// Unit tests for the simulated network: delivery, FIFO, LAN δ bound,
// partitions, drops, corruption, delay surges.
#include <gtest/gtest.h>

#include "net/network.hpp"

namespace failsig::net {
namespace {

struct Fixture {
    sim::Simulation sim;
    SimNetwork net{sim, Rng(77)};
};

Endpoint ep(std::uint32_t node, std::uint32_t port = 0) {
    return Endpoint{NodeId{node}, PortId{port}};
}

TEST(SimNetwork, DeliversToBoundHandler) {
    Fixture f;
    Bytes got;
    f.net.bind(ep(2), [&](const Message& m) { got = m.payload.to_bytes(); });
    f.net.send(ep(1), ep(2), bytes_of("hi"));
    f.sim.run();
    EXPECT_EQ(got, bytes_of("hi"));
    EXPECT_EQ(f.net.messages_delivered(), 1u);
}

TEST(SimNetwork, UnboundEndpointCountsAsDropped) {
    Fixture f;
    f.net.send(ep(1), ep(9), bytes_of("void"));
    f.sim.run();
    EXPECT_EQ(f.net.messages_delivered(), 0u);
    EXPECT_EQ(f.net.messages_dropped(), 1u);
}

TEST(SimNetwork, AsyncDelayIsPositive) {
    Fixture f;
    TimePoint arrival = -1;
    f.net.bind(ep(2), [&](const Message&) { arrival = f.sim.now(); });
    f.net.send(ep(1), ep(2), Bytes{});
    f.sim.run();
    EXPECT_GT(arrival, 0);
}

TEST(SimNetwork, LanPairRespectsDeltaBound) {
    // Assumption A2: the synchronous link delivers within a known bound δ.
    Fixture f;
    const Duration delta = 500;
    f.net.faults().set_lan_pair(NodeId{1}, NodeId{2}, delta);
    int received = 0;
    TimePoint last_send = 0;
    f.net.bind(ep(2), [&](const Message&) {
        ++received;
        EXPECT_LE(f.sim.now() - last_send, delta);
    });
    for (int i = 0; i < 200; ++i) {
        last_send = f.sim.now();
        f.net.send(ep(1), ep(2), Bytes{});
        f.sim.run();
    }
    EXPECT_EQ(received, 200);
}

TEST(SimNetwork, FifoPerLink) {
    Fixture f;
    std::vector<int> order;
    f.net.bind(ep(2), [&](const Message& m) { order.push_back(m.payload[0]); });
    for (int i = 0; i < 50; ++i) {
        f.net.send(ep(1), ep(2), Bytes{static_cast<std::uint8_t>(i)});
    }
    f.sim.run();
    ASSERT_EQ(order.size(), 50u);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimNetwork, BlockDropsBothDirections) {
    Fixture f;
    int delivered = 0;
    f.net.bind(ep(1), [&](const Message&) { ++delivered; });
    f.net.bind(ep(2), [&](const Message&) { ++delivered; });
    f.net.faults().block(NodeId{1}, NodeId{2});
    f.net.send(ep(1), ep(2), Bytes{});
    f.net.send(ep(2), ep(1), Bytes{});
    f.sim.run();
    EXPECT_EQ(delivered, 0);
    f.net.faults().unblock(NodeId{1}, NodeId{2});
    f.net.send(ep(1), ep(2), Bytes{});
    f.sim.run();
    EXPECT_EQ(delivered, 1);
}

TEST(SimNetwork, PartitionCutsCrossGroupTraffic) {
    Fixture f;
    int delivered_cross = 0, delivered_within = 0;
    f.net.bind(ep(2), [&](const Message&) { ++delivered_within; });
    f.net.bind(ep(3), [&](const Message&) { ++delivered_cross; });
    f.net.faults().partition({{NodeId{1}, NodeId{2}}, {NodeId{3}}});
    f.net.send(ep(1), ep(2), Bytes{});  // same group
    f.net.send(ep(1), ep(3), Bytes{});  // cross group
    f.sim.run();
    EXPECT_EQ(delivered_within, 1);
    EXPECT_EQ(delivered_cross, 0);

    f.net.faults().heal_partition();
    f.net.send(ep(1), ep(3), Bytes{});
    f.sim.run();
    EXPECT_EQ(delivered_cross, 1);
}

TEST(SimNetwork, LanPairsSurvivePartition) {
    // LAN pairs model dedicated cables between an FS pair's two nodes; a WAN
    // partition must not sever them.
    Fixture f;
    f.net.faults().set_lan_pair(NodeId{1}, NodeId{2}, 100);
    int delivered = 0;
    f.net.bind(ep(2), [&](const Message&) { ++delivered; });
    f.net.faults().partition({{NodeId{1}}, {NodeId{2}}});
    f.net.send(ep(1), ep(2), Bytes{});
    f.sim.run();
    EXPECT_EQ(delivered, 1);
}

TEST(SimNetwork, DropProbabilityDropsSome) {
    Fixture f;
    int delivered = 0;
    f.net.bind(ep(2), [&](const Message&) { ++delivered; });
    f.net.faults().set_drop_probability(0.5);
    for (int i = 0; i < 200; ++i) f.net.send(ep(1), ep(2), Bytes{});
    f.sim.run();
    EXPECT_GT(delivered, 50);
    EXPECT_LT(delivered, 150);
}

TEST(SimNetwork, LanLinksNeverRandomlyDrop) {
    Fixture f;
    f.net.faults().set_lan_pair(NodeId{1}, NodeId{2}, 100);
    f.net.faults().set_drop_probability(1.0);
    int delivered = 0;
    f.net.bind(ep(2), [&](const Message&) { ++delivered; });
    for (int i = 0; i < 20; ++i) {
        f.net.send(ep(1), ep(2), Bytes{});
    }
    f.sim.run();
    EXPECT_EQ(delivered, 20);
}

TEST(SimNetwork, LoopbackNeverRandomlyDrops) {
    // Same-node traffic is an in-process upcall, not an async link: a
    // replica's "deliver" to its own application sink must survive any
    // drop probability (a lost local delivery would wedge seq-holdback
    // re-sequencers while the truncated stream still looked like a valid
    // prefix).
    Fixture f;
    f.net.faults().set_drop_probability(1.0);
    int delivered = 0;
    f.net.bind(ep(1, 9), [&](const Message&) { ++delivered; });
    for (int i = 0; i < 20; ++i) {
        f.net.send(ep(1), ep(1, 9), Bytes{});
    }
    f.sim.run();
    EXPECT_EQ(delivered, 20);
}

TEST(SimNetwork, CorruptorCanMutatePayload) {
    Fixture f;
    Bytes got;
    f.net.bind(ep(2), [&](const Message& m) { got = m.payload.to_bytes(); });
    f.net.faults().set_corruptor([](Message& m) {
        if (!m.payload.empty()) m.payload.mutable_bytes()[0] ^= 0xff;
        return true;
    });
    f.net.send(ep(1), ep(2), Bytes{0x00});
    f.sim.run();
    EXPECT_EQ(got, Bytes{0xff});
}

TEST(SimNetwork, CorruptorCanDrop) {
    Fixture f;
    int delivered = 0;
    f.net.bind(ep(2), [&](const Message&) { ++delivered; });
    f.net.faults().set_corruptor([](Message&) { return false; });
    f.net.send(ep(1), ep(2), Bytes{});
    f.sim.run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(f.net.messages_dropped(), 1u);
}

TEST(SimNetwork, DelaySurgeSlowsAsyncTraffic) {
    Fixture f;
    TimePoint normal_arrival = 0, surged_arrival = 0;
    f.net.bind(ep(2), [&](const Message&) {
        if (normal_arrival == 0) {
            normal_arrival = f.sim.now();
        } else {
            surged_arrival = f.sim.now();
        }
    });
    f.net.send(ep(1), ep(2), Bytes{});
    f.sim.run();
    const TimePoint first_latency = normal_arrival;

    f.net.faults().delay_surge(1'000'000, f.sim.now() + 10'000'000);
    const TimePoint sent_at = f.sim.now();
    f.net.send(ep(1), ep(2), Bytes{});
    f.sim.run();
    EXPECT_GT(surged_arrival - sent_at, first_latency + 500'000);
}

TEST(SimNetwork, StatsTrackBytes) {
    Fixture f;
    f.net.bind(ep(2), [](const Message&) {});
    f.net.send(ep(1), ep(2), Bytes(100, 0));
    f.net.send(ep(1), ep(2), Bytes(50, 0));
    f.sim.run();
    EXPECT_EQ(f.net.messages_sent(), 2u);
    EXPECT_EQ(f.net.bytes_sent(), 150u);
    f.net.reset_stats();
    EXPECT_EQ(f.net.messages_sent(), 0u);
}

TEST(SimNetwork, LoopbackDelivery) {
    Fixture f;
    int delivered = 0;
    f.net.bind(ep(1, 5), [&](const Message&) { ++delivered; });
    f.net.send(ep(1, 4), ep(1, 5), Bytes{});
    f.sim.run();
    EXPECT_EQ(delivered, 1);
}

TEST(SimNetwork, LargerMessagesTakeLonger) {
    // Serialization delay should make a 1 MB message measurably slower than
    // an empty one on the async network.
    Fixture f;
    TimePoint small_at = 0, big_at = 0;
    f.net.bind(ep(2), [&](const Message& m) {
        (m.payload.size() > 1000 ? big_at : small_at) = f.sim.now();
    });
    f.net.send(ep(1), ep(2), Bytes{});
    f.sim.run();
    const TimePoint t0 = f.sim.now();
    f.net.send(ep(1), ep(2), Bytes(1'000'000, 0));
    f.sim.run();
    EXPECT_GT(big_at - t0, small_at * 5);
}

}  // namespace
}  // namespace failsig::net
