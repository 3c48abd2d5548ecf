// Unit tests for the mini-ORB: request codec, invocation,
// thread-pool dispatch, per-node pool sharing.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "orb/orb.hpp"

namespace failsig::orb {
namespace {

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

TEST(Request, EncodeDecodeRoundTrip) {
    Request req;
    req.object_key = "gc:1";
    req.operation = "multicast";
    req.args = Bytes{9, 9, 9};
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
    small.args = Bytes(10, 0);
    big.args = Bytes(10000, 0);
    EXPECT_LT(small.wire_size() + 5000, big.wire_size());
}

TEST(Request, WireImageIsPinned) {
    // The argument is framed as a CORBA any of kind "bytes": a blob length,
    // tag 6, then the length-prefixed bytes.
    Request req;
    req.object_key = "gc:1";
    req.operation = "deliver";
    req.args = Bytes{1, 2, 3};
    req.request_id = 7;
    req.contexts["sig"] = Bytes{0xaa};
    EXPECT_EQ(to_hex(req.encode()),
              "0400000067633a310700000064656c697665720800000006030000000102030000000000000000"
              "000000000700000000000000010000000300000073696701000000aa");
    // The cost model's size proxy counts the argument as 1 + 4 + n bytes.
    EXPECT_EQ(req.wire_size(), 23u);
}

TEST(Request, DecodeRejectsMalformedArgument) {
    // A request's wire image, field by field, around a hand-made argument.
    const auto wire_with_args = [](const Bytes& blob) {
        ByteWriter w;
        w.str("gc:1");     // object key
        w.str("deliver");  // operation
        w.bytes(blob);     // argument
        w.u32(0);          // reply_to node
        w.u32(0);          // reply_to port
        w.str("");         // reply_to key
        w.u64(7);          // request id
        w.u32(0);          // no contexts
        return w.take();
    };
    ASSERT_TRUE(Request::decode(wire_with_args(Bytes{6, 0, 0, 0, 0})).has_value());
    EXPECT_FALSE(Request::decode(wire_with_args(Bytes{5, 0, 0, 0, 0})).has_value())
        << "a tag other than 6";
    EXPECT_FALSE(Request::decode(wire_with_args(Bytes{6, 2, 0, 0, 0, 9})).has_value())
        << "an argument shorter than its length";
    EXPECT_FALSE(Request::decode(wire_with_args(Bytes{6, 0, 0, 0, 0, 9})).has_value())
        << "trailing bytes inside the argument blob";
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

    a.invoke(ref, "ping", bytes_of("payload"));
    w.sim.run();

    ASSERT_EQ(servant.requests.size(), 1u);
    EXPECT_EQ(servant.requests[0].operation, "ping");
    EXPECT_EQ(servant.requests[0].args, bytes_of("payload"));
    EXPECT_EQ(servant.requests[0].sender, a.endpoint());
    EXPECT_EQ(a.requests_sent(), 1u);
    EXPECT_EQ(b.requests_dispatched(), 1u);
}

TEST(Orb, UnknownObjectKeyIsIgnored) {
    TestWorld w;
    Orb& a = w.domain.create_orb(NodeId{1});
    Orb& b = w.domain.create_orb(NodeId{2});
    a.invoke(ObjectRef{b.endpoint(), "ghost"}, "ping", {});
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
    a.invoke(ref, "ping", {});
    w.sim.run();
    EXPECT_TRUE(servant.requests.empty());
}

TEST(Orb, SelfInvocationWorks) {
    TestWorld w;
    Orb& a = w.domain.create_orb(NodeId{1});
    RecordingServant servant;
    const ObjectRef ref = a.activate("svc", &servant);
    a.invoke(ref, "op", Bytes{1});
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
        for (int i = 0; i < 5; ++i) client.invoke(ref, "op", {});
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
