// Unit tests for the mini-ORB: Any codec, request codec, invocation,
// thread-pool dispatch, per-node pool sharing.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "orb/orb.hpp"

namespace failsig::orb {
namespace {

// ---------------------------------------------------------------------------
// Any
// ---------------------------------------------------------------------------

TEST(Any, ScalarRoundTrips) {
    for (const Any& v : {Any{}, Any{true}, Any{false}, Any{std::int64_t{-7}},
                         Any{std::uint64_t{99}}, Any{3.5}, Any{"hello"}, Any{Bytes{1, 2, 3}}}) {
        const auto decoded = Any::decode(v.encode());
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded.value(), v);
    }
}

TEST(Any, NestedSequenceAndStruct) {
    AnyStruct inner{{"k", Any{std::int64_t{1}}}, {"s", Any{"v"}}};
    AnySequence seq{Any{inner}, Any{"second"}, Any{AnySequence{Any{true}}}};
    const Any v{seq};
    const auto decoded = Any::decode(v.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value(), v);
}

TEST(Any, TypePredicates) {
    const Any v{"text"};
    EXPECT_TRUE(v.is<std::string>());
    EXPECT_FALSE(v.is<Bytes>());
    EXPECT_EQ(v.as<std::string>(), "text");
    EXPECT_THROW((void)v.as<Bytes>(), std::bad_variant_access);
    EXPECT_TRUE(Any{}.is_null());
}

TEST(Any, DecodeRejectsGarbage) {
    EXPECT_FALSE(Any::decode(Bytes{0xff}).has_value());
    EXPECT_FALSE(Any::decode(Bytes{}).has_value());
    // sequence claiming a billion elements
    ByteWriter w;
    w.u8(7);
    w.u32(1000000000);
    EXPECT_FALSE(Any::decode(w.view()).has_value());
}

TEST(Any, DecodeRejectsTrailingBytes) {
    Bytes wire = Any{std::int64_t{5}}.encode();
    wire.push_back(0x00);
    EXPECT_FALSE(Any::decode(wire).has_value());
}

TEST(Any, DeepNestingRejected) {
    // Build a 40-deep nested sequence wire image by hand.
    ByteWriter w;
    for (int i = 0; i < 40; ++i) {
        w.u8(7);   // sequence
        w.u32(1);  // one element
    }
    w.u8(0);  // innermost null
    EXPECT_FALSE(Any::decode(w.view()).has_value());
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

TEST(Request, EncodeDecodeRoundTrip) {
    Request req;
    req.object_key = "gc:1";
    req.operation = "multicast";
    req.args = Any{Bytes{9, 9, 9}};
    req.reply_to = ObjectRef{{NodeId{4}, PortId{5}}, "client:7"};
    req.request_id = 42;
    req.contexts["sig"] = Bytes{1, 2};
    req.contexts["sig2"] = Bytes{3};

    const auto decoded = Request::decode(req.encode());
    ASSERT_TRUE(decoded.has_value());
    const Request& d = decoded.value();
    EXPECT_EQ(d.object_key, "gc:1");
    EXPECT_EQ(d.operation, "multicast");
    EXPECT_EQ(d.args, req.args);
    EXPECT_EQ(d.reply_to, req.reply_to);
    EXPECT_EQ(d.request_id, 42u);
    EXPECT_EQ(d.contexts, req.contexts);
}

TEST(Request, DecodeRejectsTruncation) {
    Request req;
    req.object_key = "x";
    req.operation = "y";
    Bytes wire = req.encode();
    wire.resize(wire.size() / 2);
    EXPECT_FALSE(Request::decode(wire).has_value());
}

TEST(Request, WireSizeGrowsWithPayload) {
    Request small, big;
    small.args = Any{Bytes(10, 0)};
    big.args = Any{Bytes(10000, 0)};
    EXPECT_LT(small.wire_size() + 5000, big.wire_size());
}

// ---------------------------------------------------------------------------
// Orb invocation
// ---------------------------------------------------------------------------

struct TestWorld {
    sim::Simulation sim;
    net::SimNetwork net{sim, Rng(11)};
    orb::OrbDomain domain{sim, net, sim::CostModel{}, 10};
};

class RecordingServant : public Servant {
public:
    void dispatch(const Request& request) override { requests.push_back(request); }
    std::vector<Request> requests;
};

TEST(Orb, OnewayInvocationReachesServant) {
    TestWorld w;
    Orb& a = w.domain.create_orb(NodeId{1});
    Orb& b = w.domain.create_orb(NodeId{2});

    RecordingServant servant;
    const ObjectRef ref = b.activate("svc", &servant);

    a.invoke(ref, "ping", Any{"payload"});
    w.sim.run();

    ASSERT_EQ(servant.requests.size(), 1u);
    EXPECT_EQ(servant.requests[0].operation, "ping");
    EXPECT_EQ(servant.requests[0].args.as<std::string>(), "payload");
    EXPECT_EQ(servant.requests[0].sender, a.endpoint());
    EXPECT_EQ(a.requests_sent(), 1u);
    EXPECT_EQ(b.requests_dispatched(), 1u);
}

TEST(Orb, UnknownObjectKeyIsIgnored) {
    TestWorld w;
    Orb& a = w.domain.create_orb(NodeId{1});
    Orb& b = w.domain.create_orb(NodeId{2});
    a.invoke(ObjectRef{b.endpoint(), "ghost"}, "ping", Any{});
    w.sim.run();
    EXPECT_EQ(b.requests_dispatched(), 0u);
}

TEST(Orb, DeactivateStopsDispatch) {
    TestWorld w;
    Orb& a = w.domain.create_orb(NodeId{1});
    Orb& b = w.domain.create_orb(NodeId{2});
    RecordingServant servant;
    const ObjectRef ref = b.activate("svc", &servant);
    b.deactivate("svc");
    a.invoke(ref, "ping", Any{});
    w.sim.run();
    EXPECT_TRUE(servant.requests.empty());
}

TEST(Orb, SelfInvocationWorks) {
    TestWorld w;
    Orb& a = w.domain.create_orb(NodeId{1});
    RecordingServant servant;
    const ObjectRef ref = a.activate("svc", &servant);
    a.invoke(ref, "op", Any{std::int64_t{1}});
    w.sim.run();
    EXPECT_EQ(servant.requests.size(), 1u);
}

TEST(Orb, CollocatedOrbsShareNodePool) {
    TestWorld w;
    Orb& a = w.domain.create_orb(NodeId{1});
    Orb& b = w.domain.create_orb(NodeId{1});
    EXPECT_EQ(&a.pool(), &b.pool());
    Orb& c = w.domain.create_orb(NodeId{2});
    EXPECT_NE(&a.pool(), &c.pool());
}

TEST(Orb, ThreadPoolLimitsConcurrentDispatch) {
    // With a 1-thread pool, 5 requests each costing fixed dispatch time are
    // serialized; with 5 threads they overlap.
    TimePoint serialized, parallel;
    for (const int threads : {1, 5}) {
        sim::Simulation sim;
        net::SimNetwork net{sim, Rng(11)};
        sim::CostModel costs;
        OrbDomain domain{sim, net, costs, threads};
        Orb& client = domain.create_orb(NodeId{1});
        Orb& server = domain.create_orb(NodeId{2});
        RecordingServant servant;
        const ObjectRef ref = server.activate("svc", &servant);
        for (int i = 0; i < 5; ++i) client.invoke(ref, "op", Any{});
        sim.run();
        (threads == 1 ? serialized : parallel) = sim.now();
    }
    EXPECT_GT(serialized, parallel);
}

TEST(Orb, MalformedNetworkBytesIgnored) {
    TestWorld w;
    Orb& server = w.domain.create_orb(NodeId{2});
    RecordingServant servant;
    server.activate("svc", &servant);
    w.net.send(Endpoint{NodeId{1}, PortId{99}}, server.endpoint(), bytes_of("junk"));
    w.sim.run();
    EXPECT_TRUE(servant.requests.empty());
}

}  // namespace
}  // namespace failsig::orb
