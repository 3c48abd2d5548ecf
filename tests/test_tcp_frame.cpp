// Tests for the TCP backend: the length-prefixed frame codec
// (net/frame.hpp) and the node-id ↔ host:port directory
// (net/endpoint_map.hpp). The FrameReader sits directly behind the socket
// read loop, so it is fuzzed the way an adversarial or corrupt peer would
// exercise it: garbage streams, truncation at every offset, and hostile
// length fields. Finally, the published ephemeral-port directory of real
// TCP-backend deployments is checked — concurrent deployments must never
// collide — and so are TcpTransport's copy counters, delay-surge routing and
// per-link FIFO order across a surge's end over real sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "deploy/deployment.hpp"
#include "net/endpoint_map.hpp"
#include "net/frame.hpp"
#include "net/tcp_transport.hpp"

namespace failsig::net {
namespace {

Bytes payload_of(std::initializer_list<std::uint8_t> bytes) { return Bytes(bytes); }

Frame expect_one_frame(FrameReader& reader) {
    auto frame = reader.next();
    EXPECT_TRUE(frame.has_value());
    EXPECT_FALSE(reader.failed()) << reader.error();
    return frame.has_value() ? std::move(*frame) : Frame{};
}

TEST(Frame, RoundTripsThroughReader) {
    const Endpoint src{NodeId{7}, PortId{3}};
    const Endpoint dst{NodeId{1}, PortId{99}};
    const Bytes payload = payload_of({0xde, 0xad, 0xbe, 0xef});
    const Bytes wire = encode_frame(src, dst, payload);

    FrameReader reader;
    reader.feed(wire);
    const Frame frame = expect_one_frame(reader);
    EXPECT_EQ(frame.src, src);
    EXPECT_EQ(frame.dst, dst);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Frame, EmptyPayloadIsLegal) {
    const Bytes wire = encode_frame(Endpoint{NodeId{1}, PortId{1}},
                                    Endpoint{NodeId{2}, PortId{2}}, Bytes{});
    FrameReader reader;
    reader.feed(wire);
    const Frame frame = expect_one_frame(reader);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(Frame, ByteAtATimeFeedReassembles) {
    // A socket can hand the reader arbitrarily small chunks; the parser
    // must reassemble across every split point.
    const Bytes wire = encode_frame(Endpoint{NodeId{3}, PortId{4}},
                                    Endpoint{NodeId{5}, PortId{6}},
                                    payload_of({1, 2, 3, 4, 5, 6, 7}));
    FrameReader reader;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        reader.feed(std::span(&wire[i], 1));
        EXPECT_FALSE(reader.next().has_value()) << "frame complete too early at " << i;
        ASSERT_FALSE(reader.failed()) << reader.error();
    }
    reader.feed(std::span(&wire[wire.size() - 1], 1));
    const Frame frame = expect_one_frame(reader);
    EXPECT_EQ(frame.payload.size(), 7u);
}

TEST(Frame, BackToBackFramesInOneChunk) {
    Bytes wire = encode_frame(Endpoint{NodeId{1}, PortId{1}},
                              Endpoint{NodeId{2}, PortId{1}}, payload_of({0xaa}));
    const Bytes second = encode_frame(Endpoint{NodeId{2}, PortId{1}},
                                      Endpoint{NodeId{1}, PortId{1}}, payload_of({0xbb}));
    wire.insert(wire.end(), second.begin(), second.end());

    FrameReader reader;
    reader.feed(wire);
    EXPECT_EQ(expect_one_frame(reader).payload, payload_of({0xaa}));
    EXPECT_EQ(expect_one_frame(reader).payload, payload_of({0xbb}));
    EXPECT_FALSE(reader.next().has_value());
}

TEST(Frame, TruncatedFrameIsPendingNotPoisoned) {
    // Truncation is a normal stream condition (more bytes coming), never an
    // error: the reader reports "need more" and stays healthy.
    const Bytes wire = encode_frame(Endpoint{NodeId{1}, PortId{1}},
                                    Endpoint{NodeId{2}, PortId{2}},
                                    payload_of({9, 9, 9}));
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        FrameReader reader;
        reader.feed(std::span(wire.data(), cut));
        EXPECT_FALSE(reader.next().has_value()) << "cut at " << cut;
        EXPECT_FALSE(reader.failed()) << "cut at " << cut << ": " << reader.error();
    }
}

TEST(Frame, HostileLengthFieldPoisonsTheStream) {
    // A peer promising a 4 GiB body must be cut off before any allocation,
    // and the poison must be sticky — resync on a byte stream is impossible.
    for (const std::uint32_t hostile :
         {0xffffffffu, static_cast<std::uint32_t>(kMaxFrameBytes) + 1u}) {
        ByteWriter w;
        w.u32(hostile);
        FrameReader reader;
        reader.feed(w.take());
        EXPECT_FALSE(reader.next().has_value());
        EXPECT_TRUE(reader.failed());
        EXPECT_NE(reader.error().find("hostile length"), std::string::npos);

        // Sticky: even a well-formed frame afterwards is never surfaced.
        reader.feed(encode_frame(Endpoint{NodeId{1}, PortId{1}},
                                 Endpoint{NodeId{2}, PortId{2}}, payload_of({1})));
        EXPECT_FALSE(reader.next().has_value());
        EXPECT_TRUE(reader.failed());
    }
}

TEST(Frame, LengthBelowHeaderSizeIsHostile) {
    // The body must at least hold two endpoint headers; a shorter length is
    // a framing attack, not a short message.
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(2 * kEndpointWireBytes - 1));
    FrameReader reader;
    reader.feed(w.take());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.failed());
}

TEST(Frame, GarbageStreamsNeverCrashAndStayBounded) {
    // Deterministic garbage corpus: random byte streams fed in random chunk
    // sizes. The reader must never crash or grow unboundedly — every stream
    // either waits for more bytes or poisons itself.
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        Rng rng(seed);
        FrameReader reader;
        Bytes chunk;
        for (int round = 0; round < 64 && !reader.failed(); ++round) {
            chunk.resize(1 + rng.uniform(97));
            for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.uniform(256));
            reader.feed(chunk);
            while (reader.next().has_value()) {
            }
        }
        EXPECT_LE(reader.buffered(), kMaxFrameBytes + 4) << "seed " << seed;
    }
}

TEST(Frame, TruncatedBodyDecodeReportsError) {
    const Bytes wire = encode_frame(Endpoint{NodeId{1}, PortId{1}},
                                    Endpoint{NodeId{2}, PortId{2}}, payload_of({1, 2}));
    // Strip the prefix, then truncate the body below the double header.
    const std::span<const std::uint8_t> body(wire.data() + 4, wire.size() - 4);
    const auto truncated = decode_frame_body(body.subspan(0, kEndpointWireBytes + 2));
    EXPECT_FALSE(truncated.has_value());
}

// ---------------------------------------------------------------------------
// EndpointMap
// ---------------------------------------------------------------------------

TEST(EndpointMap, PublishReplacesAndFindsByNode) {
    EndpointMap map;
    map.publish(NodeId{5}, {"127.0.0.1", 1000});
    map.publish(NodeId{5}, {"127.0.0.1", 2000});  // rebind replaces
    EXPECT_EQ(map.size(), 1u);
    ASSERT_NE(map.find(NodeId{5}), nullptr);
    EXPECT_EQ(map.find(NodeId{5})->port, 2000);
    EXPECT_EQ(map.find(NodeId{3}), nullptr);
}

// ---------------------------------------------------------------------------
// Ephemeral ports on real deployments
// ---------------------------------------------------------------------------

TEST(EndpointMap, ConcurrentTcpDeploymentsPublishDisjointEphemeralPorts) {
    // Two live TCP deployments at once — the `ctest -j` situation. Every
    // node must have a published, kernel-chosen (nonzero) port, and the two
    // directories must not collide anywhere.
    deploy::DeploymentSpec spec;
    spec.group_size = 3;
    spec.seed = 5;
    spec.backend = deploy::Backend::kTcp;
    const auto a = deploy::make_deployment(deploy::SystemKind::kNewTop, spec);
    const auto b = deploy::make_deployment(deploy::SystemKind::kNewTop, spec);

    std::set<std::uint16_t> ports;
    for (auto* d : {a.get(), b.get()}) {
        const auto* tcp = dynamic_cast<const TcpTransport*>(&d->network());
        ASSERT_NE(tcp, nullptr);
        EXPECT_GE(tcp->endpoints().size(), 3u);
        for (const auto& [node, addr] : tcp->endpoints().entries()) {
            EXPECT_NE(addr.port, 0) << "node " << node;
            EXPECT_TRUE(ports.insert(addr.port).second)
                << "port " << addr.port << " published twice";
        }
    }
}

// ---------------------------------------------------------------------------
// Copy counters on real sockets
// ---------------------------------------------------------------------------

TEST(TcpTransport, FanOutOfOneBodyCountsOneEncodePerStatsEpoch) {
    std::atomic<int> delivered{0};
    TcpTransport::Hooks hooks;
    hooks.post = [](NodeId, std::function<void()> task) { task(); };
    TcpTransport transport(std::move(hooks), Rng(3));
    for (std::uint32_t node = 0; node <= 3; ++node) {
        transport.bind(Endpoint{NodeId{node}, PortId{0}}, [&](const Message&) { ++delivered; });
    }
    transport.start();
    const auto wait_for = [&](int count) {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (delivered.load() < count && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return delivered.load();
    };

    const Payload body{Bytes(100, 0x3c)};
    const Endpoint src{NodeId{0}, PortId{0}};
    for (std::uint32_t node = 1; node <= 3; ++node) {
        transport.send(src, Endpoint{NodeId{node}, PortId{0}},
                       Payload::prefixed(Bytes{static_cast<std::uint8_t>(node)}, body));
    }
    EXPECT_EQ(wait_for(3), 3);
    EXPECT_EQ(transport.messages_sent(), 3u);
    EXPECT_EQ(transport.payload_bodies_encoded(), 1u);
    // Sockets flatten every frame: copied bytes equal logical bytes.
    EXPECT_EQ(transport.payload_bytes_copied(), 3u * 101u);

    // After a reset the same body is a first send again, once.
    transport.reset_stats();
    transport.send(src, Endpoint{NodeId{1}, PortId{0}}, body);
    transport.send(src, Endpoint{NodeId{2}, PortId{0}}, body);
    EXPECT_EQ(wait_for(5), 5);
    EXPECT_EQ(transport.payload_bodies_encoded(), 1u);
    transport.close();
}

// ---------------------------------------------------------------------------
// The fault model on real sockets
// ---------------------------------------------------------------------------

TEST(TcpTransport, DelaySurgeSlowsOnlyAsyncLinks) {
    // A surge slows the async network only. An FS pair's synchronous link
    // keeps its bound δ (assumption A2) and a same-node upcall stays
    // immediate, as on the simulator: a surged pair link would make a
    // healthy pair miss its own timeouts and fail-signal.
    std::mutex mu;
    std::map<std::uint32_t, std::string> route_of;  // destination node -> hook used
    const auto record = [&](NodeId node, const char* hook, const std::function<void()>& task) {
        {
            const std::lock_guard lock(mu);
            route_of[node.value] = hook;
        }
        task();
    };
    TcpTransport::Hooks hooks;
    hooks.post = [&](NodeId node, std::function<void()> task) { record(node, "post", task); };
    hooks.post_at = [&](NodeId node, TimePoint, std::function<void()> task) {
        record(node, "post_at", task);
    };
    hooks.now = [] { return TimePoint{0}; };
    TcpTransport transport(std::move(hooks), Rng(9));
    const Endpoint src{NodeId{1}, PortId{0}};
    const Endpoint same_node{NodeId{1}, PortId{1}};
    const Endpoint lan_peer{NodeId{2}, PortId{0}};
    const Endpoint async_peer{NodeId{3}, PortId{0}};
    for (const Endpoint ep : {src, same_node, lan_peer, async_peer}) {
        transport.bind(ep, [](const Message&) {});
    }
    transport.start();
    transport.faults().set_lan_pair(src.node, lan_peer.node, 200 * kMicrosecond);
    transport.faults().delay_surge(1 * kSecond, 10 * kSecond);

    for (const Endpoint dst : {same_node, lan_peer, async_peer}) transport.send(src, dst, Bytes{1});
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
        {
            const std::lock_guard lock(mu);
            if (route_of.size() == 3 || std::chrono::steady_clock::now() > deadline) break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    transport.close();

    const std::lock_guard lock(mu);
    EXPECT_EQ(route_of[same_node.node.value], "post") << "same-node upcall";
    EXPECT_EQ(route_of[lan_peer.node.value], "post") << "LAN pair link";
    EXPECT_EQ(route_of[async_peer.node.value], "post_at") << "async link";
}

TEST(TcpTransport, SurgeEndNeverReordersALink) {
    // A frame sent during a surge is due at the surge's extra delay; a frame
    // sent on the same link after the surge has ended must not be due
    // before it, or it would overtake it (the simulator clamps each link the
    // same way). The hooks record the virtual time each frame is due at.
    std::atomic<TimePoint> vnow{0};
    std::mutex mu;
    std::vector<TimePoint> due;  // in delivery-hook order
    TcpTransport::Hooks hooks;
    hooks.post = [&](NodeId, std::function<void()> task) {
        {
            const std::lock_guard lock(mu);
            due.push_back(vnow.load());
        }
        task();
    };
    hooks.post_at = [&](NodeId, TimePoint at, std::function<void()> task) {
        {
            const std::lock_guard lock(mu);
            due.push_back(at);
        }
        task();
    };
    hooks.now = [&] { return vnow.load(); };
    TcpTransport transport(std::move(hooks), Rng(11));
    const Endpoint src{NodeId{1}, PortId{0}};
    const Endpoint dst{NodeId{2}, PortId{0}};
    transport.bind(src, [](const Message&) {});
    transport.bind(dst, [](const Message&) {});
    transport.start();
    const auto wait_for = [&](std::size_t count) {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        for (;;) {
            {
                const std::lock_guard lock(mu);
                if (due.size() >= count || std::chrono::steady_clock::now() > deadline) {
                    return due.size();
                }
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    };

    transport.faults().delay_surge(1 * kSecond, 500 * kMillisecond);
    transport.send(src, dst, Bytes{1});  // surged: due at 1 s
    ASSERT_EQ(wait_for(1), 1u);
    vnow.store(600 * kMillisecond);      // past the surge
    transport.send(src, dst, Bytes{2});  // unsurged, but behind the first
    ASSERT_EQ(wait_for(2), 2u);
    transport.close();

    const std::lock_guard lock(mu);
    EXPECT_EQ(due[0], 1 * kSecond);
    EXPECT_GE(due[1], due[0]) << "the post-surge frame overtakes the surged one";
}

}  // namespace
}  // namespace failsig::net
