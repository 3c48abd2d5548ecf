// Tests for the fail-signal construction (the paper's core contribution).
//
// The key properties under test, with one node of the pair fault-injected
// (assumption A1):
//   fs1 — whenever a response is expected of an FS process, it is produced;
//         it is correct if it is not a fail-signal. In particular the
//         environment NEVER sees a wrong result accepted as valid.
//   fs2 — fail-signals may also appear at arbitrary instants; they are
//         uniquely attributable to the signalling process.
// Plus: deduplication of the pair's duplicate outputs, rejection of forged
// messages, FS-to-FS chaining, and no false fail-signals in fault-free runs.
#include <gtest/gtest.h>

#include "fs/client.hpp"
#include "net/network.hpp"
#include "fs/process.hpp"

namespace failsig::fs {
namespace {

/// The toy hash's mixing step, in unsigned arithmetic: long input sequences
/// overflow, and wraparound must be defined (not UB) for leader and follower
/// to agree bit-for-bit.
std::int64_t mix(std::int64_t state, std::int64_t value) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(state) * 31u +
                                     static_cast<std::uint64_t>(value));
}

/// Order-sensitive deterministic service: state' = mix(state, value), and
/// replies with the new state to the client reference packed in the body.
/// A "forward" operation instead sends the value on to another FS process.
class HashSumService final : public DeterministicService {
public:
    std::vector<Outbound> process(const std::string& operation, const Bytes& body) override {
        if (operation == kFailSignalOp) {
            fail_signals_seen.push_back(string_of(body));
            return {};
        }
        ByteReader r(body);
        const orb::ObjectRef reply_ref = decode_object_ref(r);
        const std::string forward_to = r.str();
        const std::int64_t value = r.i64();

        state = mix(state, value);
        inputs_processed.push_back(value);

        ByteWriter w;
        encode_object_ref(w, reply_ref);
        w.str("");  // no further forwarding
        w.i64(state);

        Outbound out;
        if (!forward_to.empty()) {
            out.dests = {Destination::fs(forward_to)};
            out.operation = "apply";
            out.body = w.take();
        } else {
            out.dests = {Destination::plain(reply_ref)};
            out.operation = "sum";
            ByteWriter reply;
            reply.i64(state);
            out.body = reply.take();
        }
        return {out};
    }

    std::int64_t state{0};
    std::vector<std::int64_t> inputs_processed;
    std::vector<std::string> fail_signals_seen;
};

Bytes make_body(const orb::ObjectRef& reply_ref, std::int64_t value,
                const std::string& forward_to = "") {
    ByteWriter w;
    encode_object_ref(w, reply_ref);
    w.str(forward_to);
    w.i64(value);
    return w.take();
}

struct World {
    explicit World(std::uint64_t seed = 7, int pool_threads = 10)
        : net(sim, Rng(seed)),
          domain(sim, net, sim::CostModel{}, pool_threads),
          keys(crypto::KeyService::Backend::kHmac, 512, seed),
          host(FsRuntime{net, domain, keys, directory}) {}

    sim::Simulation sim;
    net::SimNetwork net;
    orb::OrbDomain domain;
    crypto::KeyService keys;
    FsDirectory directory;
    FsHost host;

    FsProcessHandles make_pair(const std::string& name, std::uint32_t leader_node,
                               std::uint32_t follower_node, FsConfig cfg = {}) {
        return host.create_process(
            name, NodeId{leader_node}, NodeId{follower_node},
            [] { return std::make_unique<HashSumService>(); }, cfg);
    }
};

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

TEST(FsWire, InputRoundTrip) {
    FsInput in;
    in.uid = "client:c:1";
    in.operation = "apply";
    in.body = Bytes{1, 2, 3};
    in.origin_fs = "p2";
    in.origin_ref = orb::ObjectRef{{NodeId{3}, PortId{4}}, "cli"};
    const auto decoded = FsInput::decode(in.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value(), in);
}

TEST(FsWire, OrderRoundTrip) {
    FsOrder order;
    order.seq = 77;
    order.input.uid = "u";
    order.input.operation = "op";
    const auto decoded = FsOrder::decode(order.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value().seq, 77u);
    EXPECT_EQ(decoded.value().input, order.input);
}

TEST(FsWire, OutputRoundTripAndIdentity) {
    FsOutput out;
    out.source_fs = "p1";
    out.input_seq = 9;
    out.out_index = 2;
    out.dests = {Destination::fs("p2")};
    out.operation = "apply";
    out.body = Bytes{5};
    const auto decoded = FsOutput::decode(out.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value(), out);
    EXPECT_EQ(decoded.value().id(), (std::pair<std::uint64_t, std::uint32_t>{9, 2}));
}

TEST(FsWire, KindTagDisambiguates) {
    EXPECT_EQ(peek_kind(FsFailSignal{"p"}.encode()).value(), WireKind::kFailSignal);
    EXPECT_EQ(peek_kind(FsInput{}.encode()).value(), WireKind::kInput);
    EXPECT_FALSE(peek_kind(Bytes{}).has_value());
    EXPECT_FALSE(peek_kind(Bytes{0x63}).has_value());
    EXPECT_FALSE(FsOutput::decode(FsInput{}.encode()).has_value());
}

// ---------------------------------------------------------------------------
// Fault-free operation
// ---------------------------------------------------------------------------

TEST(FsProcess, FaultFreeDeliversExactlyOneCorrectResponsePerInput) {
    World w;
    auto p = w.make_pair("p1", 1, 2);
    orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
    FsClient client(w.host.runtime(), client_orb, "cli");

    std::vector<std::int64_t> sums;
    client.on_response([&](const std::string& src, const std::string& op, const Bytes& body) {
        EXPECT_EQ(src, "p1");
        EXPECT_EQ(op, "sum");
        ByteReader r(body);
        sums.push_back(r.i64());
    });
    bool fail_signal = false;
    client.on_fail_signal([&](const std::string&) { fail_signal = true; });

    std::int64_t expected_state = 0;
    std::vector<std::int64_t> expected;
    for (std::int64_t v = 1; v <= 10; ++v) {
        client.send("p1", "apply", make_body(client.ref(), v));
        expected_state = mix(expected_state, v);
        expected.push_back(expected_state);
    }
    w.sim.run();

    EXPECT_EQ(sums, expected);
    EXPECT_FALSE(fail_signal);
    EXPECT_FALSE(p.leader->signalling());
    EXPECT_FALSE(p.follower->signalling());
    // Each logical output is transmitted by both Compare processes; the
    // client suppresses the duplicate copies.
    EXPECT_EQ(client.duplicates_suppressed(), 10u);
    EXPECT_EQ(client.invalid_dropped(), 0u);
}

TEST(FsProcess, OrderLinkMacModeDeliversCorrectResponses) {
    // The paper's MAC-vs-signature trade-off: with order_link_mac the pair
    // authenticates its ordering stream with a pairwise HMAC session key
    // instead of per-principal signatures. End-to-end behaviour (ordering,
    // compare, double-signed outputs to third parties) is unchanged.
    World w;
    FsConfig cfg;
    cfg.order_link_mac = true;
    auto p = w.make_pair("p1", 1, 2, cfg);
    orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
    FsClient client(w.host.runtime(), client_orb, "cli");

    std::vector<std::int64_t> sums;
    client.on_response([&](const std::string&, const std::string&, const Bytes& body) {
        ByteReader r(body);
        sums.push_back(r.i64());
    });
    bool fail_signal = false;
    client.on_fail_signal([&](const std::string&) { fail_signal = true; });

    std::int64_t expected_state = 0;
    std::vector<std::int64_t> expected;
    for (std::int64_t v = 1; v <= 10; ++v) {
        client.send("p1", "apply", make_body(client.ref(), v));
        expected_state = mix(expected_state, v);
        expected.push_back(expected_state);
    }
    w.sim.run();

    EXPECT_EQ(sums, expected);
    EXPECT_FALSE(fail_signal);
    EXPECT_FALSE(p.leader->signalling());
    EXPECT_FALSE(p.follower->signalling());
    // The session principal exists and is symmetric-keyed.
    const std::string link =
        crypto::KeyService::link_principal(p.leader->principal(), p.follower->principal());
    EXPECT_TRUE(w.keys.has_principal(link));
}

TEST(FsProcess, BothReplicasProcessIdenticalInputSequences) {
    World w;
    auto p = w.make_pair("p1", 1, 2);
    orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
    FsClient client(w.host.runtime(), client_orb, "cli");
    for (std::int64_t v = 1; v <= 20; ++v) {
        client.send("p1", "apply", make_body(client.ref(), v));
    }
    w.sim.run();

    auto& leader_svc = dynamic_cast<HashSumService&>(p.leader->service());
    auto& follower_svc = dynamic_cast<HashSumService&>(p.follower->service());
    EXPECT_EQ(leader_svc.inputs_processed, follower_svc.inputs_processed);
    EXPECT_EQ(leader_svc.state, follower_svc.state);
    EXPECT_EQ(p.leader->inputs_ordered(), 20u);
    EXPECT_EQ(p.follower->inputs_ordered(), 20u);
}

TEST(FsProcess, NoFalseFailSignalsUnderLoad) {
    // 300 rapid-fire inputs: ordering and compare timeouts must not misfire
    // merely because queues build up (assumptions A3/A4 hold here).
    World w;
    auto p = w.make_pair("p1", 1, 2);
    orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
    FsClient client(w.host.runtime(), client_orb, "cli");
    int responses = 0;
    client.on_response([&](const std::string&, const std::string&, const Bytes&) { ++responses; });

    for (std::int64_t v = 0; v < 300; ++v) {
        client.send("p1", "apply", make_body(client.ref(), v));
    }
    w.sim.run();

    EXPECT_EQ(responses, 300);
    EXPECT_FALSE(p.leader->signalling());
    EXPECT_FALSE(p.follower->signalling());
    EXPECT_EQ(p.leader->fail_signals_sent(), 0u);
    EXPECT_EQ(p.follower->fail_signals_sent(), 0u);
}

TEST(FsProcess, ClientTalkingOnlyToLeaderStillWorks) {
    World w;
    w.make_pair("p1", 1, 2);
    orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
    FsClient client(w.host.runtime(), client_orb, "cli");
    int responses = 0;
    client.on_response([&](const std::string&, const std::string&, const Bytes&) { ++responses; });

    // Bypass FsClient::send's both-replica fan-out: invoke only the leader.
    const FsProcessInfo* info = w.directory.lookup("p1");
    FsInput input;
    input.uid = "client:cli:solo1";
    input.operation = "apply";
    input.body = make_body(client.ref(), 5);
    input.origin_ref = client.ref();
    client_orb.invoke(info->leader, "receiveNew",
                      orb::Any{crypto::SignedEnvelope(input.encode()).encode()});
    w.sim.run();
    EXPECT_EQ(responses, 1);
}

TEST(FsProcess, ClientTalkingOnlyToFollowerStillWorks) {
    // The follower dispatches unordered inputs to the leader (t1 = 0), so an
    // input that only reaches FSO' is still ordered and processed.
    World w;
    w.make_pair("p1", 1, 2);
    orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
    FsClient client(w.host.runtime(), client_orb, "cli");
    int responses = 0;
    client.on_response([&](const std::string&, const std::string&, const Bytes&) { ++responses; });

    const FsProcessInfo* info = w.directory.lookup("p1");
    FsInput input;
    input.uid = "client:cli:solo2";
    input.operation = "apply";
    input.body = make_body(client.ref(), 6);
    input.origin_ref = client.ref();
    client_orb.invoke(info->follower, "receiveNew",
                      orb::Any{crypto::SignedEnvelope(input.encode()).encode()});
    w.sim.run();
    EXPECT_EQ(responses, 1);
}

TEST(FsProcess, DeterministicReplay) {
    auto run_once = [] {
        World w(1234);
        w.make_pair("p1", 1, 2);
        orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
        FsClient client(w.host.runtime(), client_orb, "cli");
        std::vector<std::int64_t> sums;
        client.on_response([&](const std::string&, const std::string&, const Bytes& body) {
            ByteReader r(body);
            sums.push_back(r.i64());
        });
        for (std::int64_t v = 1; v <= 15; ++v) {
            client.send("p1", "apply", make_body(client.ref(), v));
        }
        w.sim.run();
        return sums;
    };
    EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// FS-to-FS chaining
// ---------------------------------------------------------------------------

TEST(FsProcess, OutputsChainToAnotherFsProcessExactlyOnce) {
    World w;
    auto p1 = w.make_pair("p1", 1, 2);
    auto p2 = w.make_pair("p2", 3, 4);
    orb::Orb& client_orb = w.domain.create_orb(NodeId{5});
    FsClient client(w.host.runtime(), client_orb, "cli");

    // client -> p1 (forward to p2) -> p2 -> client
    client.send("p1", "apply", make_body(client.ref(), 42, "p2"));
    w.sim.run();

    auto& p2_leader_svc = dynamic_cast<HashSumService&>(p2.leader->service());
    auto& p2_follower_svc = dynamic_cast<HashSumService&>(p2.follower->service());
    // p2 received p1's output exactly once despite four wire copies
    // (2 Compares x 2 destination replicas).
    EXPECT_EQ(p2_leader_svc.inputs_processed.size(), 1u);
    EXPECT_EQ(p2_follower_svc.inputs_processed.size(), 1u);
    EXPECT_EQ(client.responses_received(), 1u);
    EXPECT_FALSE(p1.leader->signalling());
    EXPECT_FALSE(p2.leader->signalling());
}

// ---------------------------------------------------------------------------
// fs1 under injected authenticated-Byzantine faults
// ---------------------------------------------------------------------------

class FaultKindTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(FaultKindTest, EnvironmentSeesOnlyFailSignalsNeverWrongResults) {
    const auto [fault_kind, inject_into_leader] = GetParam();

    World w;
    auto p = w.make_pair("p1", 1, 2);
    orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
    FsClient client(w.host.runtime(), client_orb, "cli");

    std::vector<std::int64_t> sums;
    client.on_response([&](const std::string&, const std::string&, const Bytes& body) {
        ByteReader r(body);
        sums.push_back(r.i64());
    });
    bool fail_signalled = false;
    client.on_fail_signal([&](const std::string& src) {
        EXPECT_EQ(src, "p1");
        fail_signalled = true;
    });

    FaultPlan plan;
    switch (fault_kind) {
        case 0: plan.corrupt_outputs = true; break;
        case 1: plan.drop_outputs = true; break;
        case 2: plan.extra_processing_delay = 500 * kMillisecond; break;
        case 3: plan.misorder_inputs = true; break;
    }
    Fso* faulty = inject_into_leader ? p.leader : p.follower;
    if (fault_kind == 3 && !inject_into_leader) {
        GTEST_SKIP() << "misordering is a leader-only fault";
    }
    faulty->set_fault_plan(plan);

    for (std::int64_t v = 1; v <= 6; ++v) {
        client.send("p1", "apply", make_body(client.ref(), v));
    }
    w.sim.run_until(10 * kSecond);

    // fs1: nothing incorrect was ever accepted as a valid response. Every
    // accepted sum must be a prefix of the correct sequence.
    std::int64_t state = 0;
    std::vector<std::int64_t> correct;
    for (std::int64_t v = 1; v <= 6; ++v) {
        state = mix(state, v);
        correct.push_back(state);
    }
    ASSERT_LE(sums.size(), correct.size());
    for (std::size_t i = 0; i < sums.size(); ++i) {
        EXPECT_EQ(sums[i], correct[i]) << "client accepted a wrong result - fs1 violated";
    }
    // The fault was detected: the client heard p1's fail-signal.
    EXPECT_TRUE(fail_signalled);
    // And the signal came from the FS machinery of at least one node.
    EXPECT_TRUE(p.leader->signalling() || p.follower->signalling());
}

std::string fault_test_name(const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
    static const char* const kinds[] = {"CorruptOutputs", "DropOutputs", "SlowProcessing",
                                        "Misorder"};
    return std::string(kinds[std::get<0>(info.param)]) +
           (std::get<1>(info.param) ? "AtLeader" : "AtFollower");
}

INSTANTIATE_TEST_SUITE_P(Faults, FaultKindTest,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3), ::testing::Bool()),
                         fault_test_name);

TEST(FsFaults, LanSeveranceTriggersFailSignals) {
    // If the synchronous link dies (violating A2), the pair can no longer
    // self-check; the follower's t2 and/or the Compare timeouts must fire and
    // the client must hear a fail-signal rather than silence.
    World w;
    w.make_pair("p1", 1, 2);
    orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
    FsClient client(w.host.runtime(), client_orb, "cli");
    bool fail_signalled = false;
    client.on_fail_signal([&](const std::string&) { fail_signalled = true; });

    w.net.faults().block(NodeId{1}, NodeId{2});
    client.send("p1", "apply", make_body(client.ref(), 1));
    w.sim.run_until(10 * kSecond);
    EXPECT_TRUE(fail_signalled);
}

TEST(FsFaults, SpontaneousFailSignalsReachOtherFsProcesses) {
    // fs2: a faulty node may emit its fail-signal at arbitrary instants. The
    // signal is converted into an ordered input at the receiver, so both of
    // the receiver's replicas observe it identically.
    World w;
    auto p1 = w.make_pair("p1", 1, 2);
    auto p2 = w.make_pair("p2", 3, 4);
    (void)p1;

    FaultPlan plan;
    plan.spontaneous_fail_signals = true;
    plan.spontaneous_interval = 20 * kMillisecond;
    p1.follower->set_fault_plan(plan);

    w.sim.run_until(200 * kMillisecond);

    auto& leader_svc = dynamic_cast<HashSumService&>(p2.leader->service());
    auto& follower_svc = dynamic_cast<HashSumService&>(p2.follower->service());
    ASSERT_FALSE(leader_svc.fail_signals_seen.empty());
    EXPECT_EQ(leader_svc.fail_signals_seen, follower_svc.fail_signals_seen);
    for (const auto& src : leader_svc.fail_signals_seen) EXPECT_EQ(src, "p1");
    // A fail-signal is delivered as one ordered input per source, not once
    // per wire copy.
    EXPECT_EQ(leader_svc.fail_signals_seen.size(), 1u);
}

// ---------------------------------------------------------------------------
// Authentication boundaries (A5)
// ---------------------------------------------------------------------------

TEST(FsAuth, ForgedOutputRejectedByClient) {
    World w;
    w.make_pair("p1", 1, 2);
    w.keys.register_principal("mallory");
    orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
    FsClient client(w.host.runtime(), client_orb, "cli");
    int responses = 0;
    client.on_response([&](const std::string&, const std::string&, const Bytes&) { ++responses; });

    FsOutput fake;
    fake.source_fs = "p1";
    fake.input_seq = 1;
    fake.out_index = 0;
    fake.operation = "sum";
    ByteWriter body;
    body.i64(999999);
    fake.body = body.take();
    crypto::SignedEnvelope env(fake.encode());
    env.add_signature(w.keys.signer("mallory"));
    env.add_signature(w.keys.signer("mallory"));

    orb::Orb& mallory_orb = w.domain.create_orb(NodeId{4});
    mallory_orb.invoke(client.ref(), "sum", orb::Any{env.encode()});
    w.sim.run();
    EXPECT_EQ(responses, 0);
    EXPECT_EQ(client.invalid_dropped(), 1u);
}

TEST(FsAuth, SingleSignedOutputRejectedByClient) {
    // An output signed by only one Compare is not a valid FS output.
    World w;
    auto p = w.make_pair("p1", 1, 2);
    (void)p;
    orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
    FsClient client(w.host.runtime(), client_orb, "cli");
    int responses = 0;
    client.on_response([&](const std::string&, const std::string&, const Bytes&) { ++responses; });

    FsOutput fake;
    fake.source_fs = "p1";
    fake.input_seq = 1;
    fake.out_index = 0;
    fake.operation = "sum";
    crypto::SignedEnvelope env(fake.encode());
    env.add_signature(w.keys.signer("p1/L"));  // only the leader's signature

    orb::Orb& mallory_orb = w.domain.create_orb(NodeId{4});
    mallory_orb.invoke(client.ref(), "sum", orb::Any{env.encode()});
    w.sim.run();
    EXPECT_EQ(responses, 0);
    EXPECT_EQ(client.invalid_dropped(), 1u);
}

TEST(FsAuth, ForgedFailSignalRejected) {
    // Nobody but the pair's two Compare processes can produce a valid
    // fail-signal for it (uniqueness of fail-signals).
    World w;
    w.make_pair("p1", 1, 2);
    w.keys.register_principal("mallory");
    orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
    FsClient client(w.host.runtime(), client_orb, "cli");
    bool fail_signalled = false;
    client.on_fail_signal([&](const std::string&) { fail_signalled = true; });

    crypto::SignedEnvelope env(FsFailSignal{"p1"}.encode());
    env.add_signature(w.keys.signer("mallory"));
    env.add_signature(w.keys.signer("mallory"));

    orb::Orb& mallory_orb = w.domain.create_orb(NodeId{4});
    mallory_orb.invoke(client.ref(), kFailSignalOp, orb::Any{env.encode()});
    w.sim.run();
    EXPECT_FALSE(fail_signalled);
    EXPECT_EQ(client.invalid_dropped(), 1u);
}

TEST(FsAuth, CorruptedWireBytesIgnored) {
    World w;
    auto p = w.make_pair("p1", 1, 2);
    orb::Orb& client_orb = w.domain.create_orb(NodeId{3});
    FsClient client(w.host.runtime(), client_orb, "cli");
    int responses = 0;
    client.on_response([&](const std::string&, const std::string&, const Bytes&) { ++responses; });

    // Corrupt every async network payload's first byte after the envelope
    // header region; valid traffic should be rejected, not misinterpreted.
    int corrupted = 0;
    w.net.faults().set_corruptor([&](net::Message& m) {
        if (m.payload.size() > 30 && corrupted < 4) {
            auto& bytes = m.payload.mutable_bytes();
            bytes[bytes.size() / 2] ^= 0xff;
            ++corrupted;
        }
        return true;
    });
    client.send("p1", "apply", make_body(client.ref(), 1));
    w.sim.run_until(5 * kSecond);
    // Whatever happened (drop or fail-signal), no wrong sum was accepted.
    for (int i = 0; i < responses; ++i) SUCCEED();
    EXPECT_LE(responses, 1);
    (void)p;
}

}  // namespace
}  // namespace failsig::fs
