// Conformance of the 13 protocol codecs written as field walks
// (common/wire.hpp). For a sample of each message: the decoded message
// re-encodes to the same bytes, wire_size() is the encoded size, every
// strict prefix is rejected, and so is one trailing byte.
#include <gtest/gtest.h>

#include <span>

#include "baseline/pbft.hpp"
#include "fs/wire.hpp"
#include "newtop/wire.hpp"

namespace failsig {
namespace {

template <typename M>
void expect_conformant(const M& m, const char* name) {
    SCOPED_TRACE(name);
    const Bytes wire = m.encode();
    EXPECT_EQ(m.wire_size(), wire.size());

    const auto decoded = M::decode(wire);
    ASSERT_TRUE(decoded.has_value()) << decoded.error().message;
    EXPECT_EQ(decoded.value().encode(), wire) << "round trip changed the bytes";

    for (std::size_t len = 0; len < wire.size(); ++len) {
        EXPECT_FALSE(M::decode(std::span<const std::uint8_t>(wire.data(), len)).has_value())
            << "prefix of length " << len << " accepted";
    }
    Bytes trailing = wire;
    trailing.push_back(0);
    EXPECT_FALSE(M::decode(trailing).has_value()) << "trailing byte accepted";
}

newtop::GcMessage sample_gc(newtop::GcKind kind, std::uint64_t global_seq) {
    newtop::GcMessage m;
    m.kind = kind;
    m.sender = 3;
    m.stream_seq = 9;
    m.service = newtop::ServiceType::kCausalOrder;
    m.sender_seq = 4;
    m.lamport_ts = 17;
    m.payload = {1, 2, 3};
    m.vector_clock = {1, 0, 5};
    m.global_seq = global_seq;
    m.origin = 2;
    m.view_id = 6;
    m.view_members = {0, 2, 3};
    return m;
}

baseline::ClientRequest sample_request(std::uint64_t seq) {
    baseline::ClientRequest req;
    req.origin = 1;
    req.origin_seq = seq;
    req.payload = {0xde, 0xad, static_cast<std::uint8_t>(seq)};
    return req;
}

orb::ObjectRef sample_ref() { return {Endpoint{NodeId{2}, PortId{7}}, "client-7"}; }

TEST(WireCodec, NewTopMessagesConform) {
    expect_conformant(sample_gc(newtop::GcKind::kOrder, 12), "GcMessage");

    newtop::FlushState flush;
    flush.sym_watermark_ts = 40;
    flush.sym_watermark_sender = 1;
    flush.asym_delivered = 11;
    flush.entries = {sample_gc(newtop::GcKind::kData, 0), sample_gc(newtop::GcKind::kOrder, 12)};
    expect_conformant(flush, "FlushState");

    newtop::JoinGrant grant;
    grant.lamport = 42;
    grant.sym_stream_out = 7;
    grant.rel_seq = 3;
    grant.causal_out = 9;
    grant.sym_watermark_ts = 41;
    grant.sym_watermark_sender = 2;
    grant.asym_next_deliver = 5;
    grant.asym_next_assign = 6;
    grant.vector_clock = {4, 0, 11};
    grant.app_snapshot = {7, 7, 7, 7};
    expect_conformant(grant, "JoinGrant");

    newtop::MulticastRequest request;
    request.service = newtop::ServiceType::kAsymmetricTotalOrder;
    request.payload = {5, 6};
    expect_conformant(request, "MulticastRequest");

    newtop::Delivery delivery;
    delivery.kind = newtop::Delivery::Kind::kView;
    delivery.delivery_seq = 8;
    delivery.sender = 2;
    delivery.service = newtop::ServiceType::kReliableMulticast;
    delivery.sender_seq = 3;
    delivery.payload = {9};
    delivery.view = {4, {0, 2, 3}};
    expect_conformant(delivery, "Delivery");
}

TEST(WireCodec, FsMessagesConform) {
    fs::FsInput input;
    input.uid = "c1/17";
    input.operation = "multicast";
    input.body = {1, 2, 3, 4};
    input.origin_ref = sample_ref();
    expect_conformant(input, "FsInput");

    fs::FsOrder order;
    order.seq = 11;
    order.input = input;
    expect_conformant(order, "FsOrder");

    fs::FsOutput output;
    output.source_fs = "gc0";
    output.input_seq = 4;
    output.out_index = 1;
    output.dests = {fs::Destination::fs("gc1"), fs::Destination::plain(sample_ref())};
    output.operation = "deliver";
    output.body = {8, 9};
    expect_conformant(output, "FsOutput");

    fs::FsFailSignal signal;
    signal.source_fs = "gc2";
    expect_conformant(signal, "FsFailSignal");
}

TEST(WireCodec, PbftMessagesConform) {
    expect_conformant(sample_request(7), "ClientRequest");

    baseline::PbftMessage msg;
    msg.kind = baseline::PbftKind::kPrePrepare;
    msg.sender = 0;
    msg.view = 1;
    msg.seq = 3;
    msg.digest = Bytes(16, 0xab);
    msg.request = sample_request(3);
    expect_conformant(msg, "PbftMessage");

    baseline::PbftDelivery delivery;
    delivery.seq = 3;
    delivery.request = sample_request(3);
    expect_conformant(delivery, "PbftDelivery");

    baseline::RecoveryState state;
    state.view = 1;
    state.snapshot_watermark = 2;
    state.last_delivered = 4;
    state.app_snapshot = {9, 9};
    state.suffix = {{3, sample_request(3)}, {4, sample_request(4)}};
    expect_conformant(state, "RecoveryState");
}

}  // namespace
}  // namespace failsig
