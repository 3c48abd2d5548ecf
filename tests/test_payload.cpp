// Tests for the zero-copy message plane and the crypto fast path:
//  * common::Payload sharing semantics (one body buffer across a fan-out,
//    copy-on-write mutation),
//  * SimNetwork copy counters proving a multicast to n nodes performs O(1)
//    payload encodes (down from O(n)),
//  * the split ORB wire format (per-target header + shared body) staying
//    byte-compatible with the flat encoding,
//  * SignedEnvelope's incremental signed-region builder matching the old
//    per-call serialization byte for byte,
//  * the KeyService verify memo staying correct across key rotation,
//  * sweep reports byte-identical at --jobs 1 and --jobs 4 on the zero-copy
//    plane.
#include <gtest/gtest.h>

#include "common/payload.hpp"
#include "crypto/envelope.hpp"
#include "crypto/keys.hpp"
#include "net/network.hpp"
#include "orb/orb.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"

namespace failsig {
namespace {

Endpoint ep(std::uint32_t node, std::uint32_t port = 0) {
    return Endpoint{NodeId{node}, PortId{port}};
}

// ---------------------------------------------------------------------------
// Payload semantics
// ---------------------------------------------------------------------------

TEST(Payload, SharesBodyAcrossCopies) {
    Payload a{bytes_of("shared body")};
    EXPECT_EQ(a.body_use_count(), 1);
    Payload b = a;
    Payload c = a;
    EXPECT_EQ(a.body_use_count(), 3);
    EXPECT_EQ(a.body_id(), b.body_id());
    EXPECT_EQ(a.body_id(), c.body_id());
    EXPECT_EQ(b.to_bytes(), bytes_of("shared body"));
}

TEST(Payload, PrefixedSharesBodyAndConcatenates) {
    const Payload body{bytes_of("body")};
    const Payload m1 = Payload::prefixed(bytes_of("h1:"), body);
    const Payload m2 = Payload::prefixed(bytes_of("hh2:"), body);
    EXPECT_EQ(body.body_use_count(), 3);
    EXPECT_EQ(m1.body_id(), m2.body_id());
    EXPECT_EQ(m1.to_bytes(), bytes_of("h1:body"));
    EXPECT_EQ(m2.to_bytes(), bytes_of("hh2:body"));
    EXPECT_EQ(m1.size(), 7u);
    EXPECT_TRUE(m1.has_prefix());
    EXPECT_THROW((void)m1.span(), std::logic_error);  // not contiguous
    EXPECT_EQ(string_of(body.span()), "body");
}

TEST(Payload, MutableBytesIsCopyOnWrite) {
    Payload a{Bytes{1, 2, 3}};
    Payload b = a;
    b.mutable_bytes()[0] = 9;
    EXPECT_EQ(a.to_bytes(), (Bytes{1, 2, 3}));  // the sibling is untouched
    EXPECT_EQ(b.to_bytes(), (Bytes{9, 2, 3}));
    EXPECT_NE(a.body_id(), b.body_id());

    // Flattening a prefixed payload detaches it from the shared body too.
    Payload c = Payload::prefixed(Bytes{7}, a);
    c.mutable_bytes()[1] = 8;
    EXPECT_EQ(c.to_bytes(), (Bytes{7, 8, 2, 3}));
    EXPECT_EQ(a.to_bytes(), (Bytes{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// O(1) encodes per multicast
// ---------------------------------------------------------------------------

TEST(ZeroCopyPlane, MulticastSharesOneBufferAcrossReceivers) {
    sim::Simulation sim;
    net::SimNetwork net(sim, Rng(7));
    const int n = 10;
    std::vector<const void*> seen_bodies;
    std::vector<long> seen_use_counts;
    for (int i = 1; i <= n; ++i) {
        net.bind(ep(static_cast<std::uint32_t>(i)), [&](const net::Message& m) {
            seen_bodies.push_back(m.payload.body_id());
            seen_use_counts.push_back(m.payload.body_use_count());
        });
    }
    const Payload body{Bytes(256, 0x5a)};
    for (int i = 1; i <= n; ++i) {
        net.send(ep(0), ep(static_cast<std::uint32_t>(i)),
                 Payload::prefixed(Bytes{static_cast<std::uint8_t>(i)}, body));
    }
    sim.run();

    ASSERT_EQ(seen_bodies.size(), static_cast<std::size_t>(n));
    for (const auto* id : seen_bodies) EXPECT_EQ(id, body.body_id());
    // While messages were in flight the buffer was shared n+1 ways; even at
    // the last delivery our local reference keeps use_count >= 2.
    for (const long uc : seen_use_counts) EXPECT_GE(uc, 2);

    // Copy counters: one body encode for the whole multicast, not n.
    EXPECT_EQ(net.payload_bodies_encoded(), 1u);
    EXPECT_EQ(net.payload_bytes_copied(), 256u + static_cast<std::uint64_t>(n));
    EXPECT_EQ(net.bytes_sent(), static_cast<std::uint64_t>(n) * 257u);
}

TEST(ZeroCopyPlane, BodyCountsOncePerStatsEpoch) {
    sim::Simulation sim;
    net::SimNetwork net(sim, Rng(7));
    net.bind(ep(1), [](const net::Message&) {});
    const Payload body{Bytes(64, 0x11)};
    for (int epoch = 0; epoch < 2; ++epoch) {
        net.send(ep(0), ep(1), body);
        net.send(ep(0), ep(1), Payload::prefixed(Bytes{1}, body));
        EXPECT_EQ(net.payload_bodies_encoded(), 1u) << "epoch " << epoch;
        EXPECT_EQ(net.payload_bytes_copied(), 65u) << "epoch " << epoch;
        net.reset_stats();
    }
    // A fresh body (copy-on-write detaches one) is a new encode.
    Payload detached = body;
    detached.mutable_bytes()[0] = 0x22;
    net.send(ep(0), ep(1), body);
    net.send(ep(0), ep(1), detached);
    EXPECT_EQ(net.payload_bodies_encoded(), 2u);
    sim.run();
}

TEST(ZeroCopyPlane, OrbFanoutIsOneEncodePerMulticast) {
    class Sink final : public orb::Servant {
    public:
        void dispatch(const orb::Request& request) override {
            ++count;
            last_key = request.object_key;
            last_args = request.args;
        }
        int count{0};
        std::string last_key;
        Bytes last_args;
    };

    sim::Simulation sim;
    net::SimNetwork net(sim, Rng(11));
    orb::OrbDomain domain(sim, net, sim::CostModel{});
    orb::Orb& sender = domain.create_orb(NodeId{0});
    const int n = 6;
    std::vector<Sink> sinks(n);
    std::vector<orb::ObjectRef> targets;
    for (int i = 0; i < n; ++i) {
        orb::Orb& receiver = domain.create_orb(NodeId{static_cast<std::uint32_t>(i + 1)});
        targets.push_back(receiver.activate("sink", &sinks[static_cast<std::size_t>(i)]));
    }

    const int multicasts = 5;
    for (int m = 0; m < multicasts; ++m) {
        sender.invoke_fanout(targets, "op", Bytes(512, 0x33));
    }
    sim.run();

    for (const auto& sink : sinks) {
        EXPECT_EQ(sink.count, multicasts);
        EXPECT_EQ(sink.last_key, "sink");
        EXPECT_EQ(sink.last_args, Bytes(512, 0x33));
    }
    // One body encode per multicast — O(1), not O(n).
    EXPECT_EQ(net.payload_bodies_encoded(), static_cast<std::uint64_t>(multicasts));
    EXPECT_LT(net.payload_bytes_copied(), net.bytes_sent() / 3);
}

// ---------------------------------------------------------------------------
// Split wire format compatibility
// ---------------------------------------------------------------------------

TEST(RequestWire, HeaderPlusBodyEqualsFlatEncoding) {
    orb::Request req;
    req.object_key = "gc:3";
    req.operation = "multicast";
    req.args = bytes_of("payload");
    req.reply_to = orb::ObjectRef{ep(4, 5), "client"};
    req.request_id = 99;
    req.contexts["sig"] = Bytes{1, 2, 3};

    Bytes concat = orb::Request::encode_key(req.object_key);
    const Bytes body = req.encode_body();
    concat.insert(concat.end(), body.begin(), body.end());
    EXPECT_EQ(concat, req.encode());
    EXPECT_EQ(req.wire_size(), req.wire_size_sans_key() + req.object_key.size());

    // A prefixed message decodes identically to the flat buffer.
    const Payload shared_body{req.encode_body()};
    const Payload msg = orb::Request::addressed("other:key", shared_body);
    const auto decoded = orb::Request::decode_message(msg);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value().object_key, "other:key");
    EXPECT_EQ(decoded.value().operation, "multicast");
    EXPECT_EQ(decoded.value().args, req.args);
    EXPECT_EQ(decoded.value().request_id, 99u);
    EXPECT_EQ(decoded.value().contexts, req.contexts);
}

// ---------------------------------------------------------------------------
// Incremental signed region == old byte layout
// ---------------------------------------------------------------------------

/// The pre-incremental serializer, reimplemented verbatim: region k is
/// bytes(payload) ++ u32(k) ++ [str(principal_i) ++ bytes(signature_i)]_{i<k}.
Bytes old_signed_region(const Bytes& payload,
                        const std::vector<crypto::SignatureBlock>& blocks, std::size_t index) {
    ByteWriter w;
    w.bytes(payload);
    w.u32(static_cast<std::uint32_t>(index));
    for (std::size_t i = 0; i < index; ++i) {
        w.str(blocks[i].principal);
        w.bytes(blocks[i].signature);
    }
    return w.take();
}

TEST(EnvelopeIncremental, RegionsMatchOldLayout) {
    crypto::KeyService keys(crypto::KeyService::Backend::kHmac);
    const std::vector<std::string> principals{"P0", "P1", "P2", "P3"};
    for (const auto& p : principals) keys.register_principal(p);

    const Bytes payload = bytes_of("incremental-region equivalence probe");
    crypto::SignedEnvelope env{payload};
    for (const auto& p : principals) env.add_signature(keys.signer(p));

    ASSERT_EQ(env.signatures().size(), principals.size());
    // Every block's signature must verify against the OLD layout's region —
    // i.e. the incremental builder signed exactly those bytes.
    for (std::size_t i = 0; i < env.signatures().size(); ++i) {
        const Bytes region = old_signed_region(payload, env.signatures(), i);
        EXPECT_TRUE(keys.verifier(principals[i]).verify(region, env.signatures()[i].signature))
            << "block " << i << " does not cover the old signed-region bytes";
    }
    EXPECT_TRUE(env.verify_chain(keys));

    // Decode-built envelopes (lazy scratch) agree too.
    const auto decoded = crypto::SignedEnvelope::decode(env.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded.value().verify_chain(keys));
    // Tampering any block still breaks the chain.
    auto bad = decoded.value();
    Bytes tampered = bad.encode();
    tampered[6] ^= 0x01;  // inside the payload field
    const auto reparsed = crypto::SignedEnvelope::decode(tampered);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_FALSE(reparsed.value().verify_chain(keys));
}

// ---------------------------------------------------------------------------
// Verify memo under key changes
// ---------------------------------------------------------------------------

TEST(VerifyMemo, CachesVerdictsAndInvalidatesOnRotation) {
    crypto::KeyService keys(crypto::KeyService::Backend::kRsa, 512, 0xfeed);
    keys.register_principal("A");
    const Bytes msg = bytes_of("memo probe");
    const Bytes sig = keys.signer("A").sign(msg);

    EXPECT_TRUE(keys.verify_cached("A", msg, sig));
    const auto real_ops = keys.verify_ops();
    for (int i = 0; i < 10; ++i) EXPECT_TRUE(keys.verify_cached("A", msg, sig));
    EXPECT_EQ(keys.verify_ops(), real_ops);  // all memo hits
    EXPECT_GE(keys.verify_cache_hits(), 10u);

    // A rotated key must not inherit stale verdicts: the old signature is
    // re-verified (and now fails), a fresh signature under the new key works.
    keys.rotate_principal("A");
    EXPECT_FALSE(keys.verify_cached("A", msg, sig));
    EXPECT_GT(keys.verify_ops(), real_ops);
    const Bytes sig2 = keys.signer("A").sign(msg);
    EXPECT_TRUE(keys.verify_cached("A", msg, sig2));
    // And the negative verdict for the stale signature is itself memoized.
    const auto ops_after = keys.verify_ops();
    EXPECT_FALSE(keys.verify_cached("A", msg, sig));
    EXPECT_EQ(keys.verify_ops(), ops_after);
}

TEST(VerifyMemo, LinkPrincipalsShareOneSessionKey) {
    crypto::KeyService keys(crypto::KeyService::Backend::kRsa, 512, 1);
    keys.register_link("FS:1/L", "FS:1/F");
    keys.register_link("FS:1/F", "FS:1/L");  // idempotent, order-insensitive
    const std::string link = crypto::KeyService::link_principal("FS:1/F", "FS:1/L");
    EXPECT_EQ(link, crypto::KeyService::link_principal("FS:1/L", "FS:1/F"));
    ASSERT_TRUE(keys.has_principal(link));
    const Bytes msg = bytes_of("mac me");
    const Bytes tag = keys.signer(link).sign(msg);
    EXPECT_EQ(tag.size(), 32u);  // HMAC-SHA256, not an RSA signature
    EXPECT_TRUE(keys.verifier(link).verify(msg, tag));
}

// ---------------------------------------------------------------------------
// Determinism: reports byte-identical across job counts on the new plane
// ---------------------------------------------------------------------------

TEST(ZeroCopyPlane, SweepReportsByteIdenticalAcrossJobCounts) {
    scenario::SweepSpec spec;
    spec.base.name = "zero-copy-determinism";
    spec.base.workload.msgs_per_member = 5;
    spec.base.seed = 21;
    spec.systems = {scenario::SystemKind::kNewTop, scenario::SystemKind::kFsNewTop,
                    scenario::SystemKind::kPbft};
    spec.group_sizes = {3, 4};
    spec.seeds = {21, 22};

    spec.jobs = 1;
    const auto serial = scenario::run_sweep(spec);
    spec.jobs = 4;
    const auto parallel = scenario::run_sweep(spec);

    EXPECT_EQ(scenario::to_json(serial), scenario::to_json(parallel));
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].trace.canonical(), parallel[i].trace.canonical()) << i;
        // The copy counters (not serialized in the report) are deterministic
        // too, and a real run always shares at least some fan-out bodies.
        EXPECT_EQ(serial[i].metrics.payload_bytes_copied,
                  parallel[i].metrics.payload_bytes_copied);
        if (!serial[i].skipped) {
            EXPECT_LT(serial[i].metrics.payload_bytes_copied,
                      serial[i].metrics.network_bytes);
        }
    }
}

}  // namespace
}  // namespace failsig
