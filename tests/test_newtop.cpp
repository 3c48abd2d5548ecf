// NewTOP tests: wire codecs, the GC state machine driven directly through an
// in-memory message router (protocol-level properties under randomized
// network interleavings), and full simulated deployments (ORB + network +
// suspector), including the false-suspicion group split that motivates the
// paper.
#include <gtest/gtest.h>

#include <deque>

#include "deploy/newtop.hpp"

namespace failsig::newtop {
namespace {

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

TEST(NewTopWire, GcMessageRoundTrip) {
    GcMessage m;
    m.kind = GcKind::kOrder;
    m.sender = 3;
    m.service = ServiceType::kAsymmetricTotalOrder;
    m.sender_seq = 7;
    m.lamport_ts = 100;
    m.payload = bytes_of("payload");
    m.vector_clock = {1, 2, 3};
    m.global_seq = 55;
    m.origin = 2;
    m.view_id = 4;
    m.view_members = {0, 1, 2};
    const auto decoded = GcMessage::decode(m.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value(), m);
}

TEST(NewTopWire, GcMessageRejectsBadKind) {
    // 5 and 6 are unassigned: no kind may decode as them.
    for (const std::uint8_t kind : {5, 6, 99}) {
        GcMessage m;
        Bytes wire = m.encode();
        wire[0] = kind;
        EXPECT_FALSE(GcMessage::decode(wire).has_value()) << "kind " << int(kind);
    }
}

TEST(NewTopWire, MulticastRequestRoundTrip) {
    MulticastRequest r;
    r.service = ServiceType::kCausalOrder;
    r.payload = bytes_of("x");
    const auto decoded = MulticastRequest::decode(r.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value().service, ServiceType::kCausalOrder);
    EXPECT_EQ(decoded.value().payload, bytes_of("x"));
}

TEST(NewTopWire, DeliveryRoundTrip) {
    Delivery d;
    d.kind = Delivery::Kind::kView;
    d.view.view_id = 9;
    d.view.members = {1, 4};
    const auto decoded = Delivery::decode(d.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value(), d);
}

TEST(NewTopWire, DeliveryRejectsBadKind) {
    // Only kMessage (1) and kView (2) exist.
    for (const std::uint8_t kind : {0, 3, 99}) {
        Delivery d;
        Bytes wire = d.encode();
        wire[0] = kind;
        EXPECT_FALSE(Delivery::decode(wire).has_value()) << "kind " << int(kind);
    }
}

TEST(NewTopWire, TruncationRejected) {
    GcMessage m;
    m.payload = Bytes(100, 1);
    Bytes wire = m.encode();
    wire.resize(10);
    EXPECT_FALSE(GcMessage::decode(wire).has_value());
}

// ---------------------------------------------------------------------------
// FlushState codec fuzz corpus. Flush frames cross the network during the
// most delicate protocol phase and nest full GcMessages, so the decoder
// gets the same ASan-checked totality treatment as Batch::decode: garbage,
// every truncation, hostile count fields, and bit-flipped valid frames must
// decode to a value or an error — never crash, never over-read.
// ---------------------------------------------------------------------------

GcMessage flush_sym_entry(MemberId sender, std::uint64_t ts, const std::string& text) {
    GcMessage m;
    m.kind = GcKind::kData;
    m.sender = sender;
    m.stream_seq = ts;
    m.service = ServiceType::kSymmetricTotalOrder;
    m.sender_seq = ts;
    m.lamport_ts = ts;
    m.payload = bytes_of(text);
    return m;
}

FlushState sample_flush_state() {
    FlushState st;
    st.sym_watermark_ts = 41;
    st.sym_watermark_sender = 2;
    st.asym_delivered = 7;
    st.entries.push_back(flush_sym_entry(0, 42, "a"));
    st.entries.push_back(flush_sym_entry(1, 43, "bb"));
    GcMessage order;
    order.kind = GcKind::kOrder;
    order.sender = 1;
    order.service = ServiceType::kAsymmetricTotalOrder;
    order.sender_seq = 2;
    order.global_seq = 8;
    order.origin = 3;
    order.payload = bytes_of("ccc");
    st.entries.push_back(order);
    return st;
}

/// Totality oracle: whatever decodes must re-encode byte-identically
/// (decode is the inverse of encode on its accepting set); whatever fails
/// must carry a diagnosis.
void expect_total_flush_decode(const Bytes& input) {
    const auto result = FlushState::decode(input);
    if (result.has_value()) {
        EXPECT_EQ(result.value().encode(), input);
    } else {
        EXPECT_FALSE(result.error().message.empty());
    }
}

TEST(FlushStateCodecFuzz, RoundTripsIncludingEmptyCut) {
    const FlushState st = sample_flush_state();
    const auto decoded = FlushState::decode(st.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value(), st);

    const FlushState empty;
    const auto empty_decoded = FlushState::decode(empty.encode());
    ASSERT_TRUE(empty_decoded.has_value());
    EXPECT_EQ(empty_decoded.value(), empty);
}

TEST(FlushStateCodecFuzz, RandomGarbageNeverCrashesTheDecoder) {
    Rng rng(0xf1005eedULL);
    for (int round = 0; round < 2000; ++round) {
        Bytes noise(rng.uniform(160), 0);
        for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform(256));
        expect_total_flush_decode(noise);
    }
}

TEST(FlushStateCodecFuzz, EveryTruncationOfAValidFrameIsRejected) {
    const Bytes frame = sample_flush_state().encode();
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
        const Bytes prefix(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(cut));
        const auto result = FlushState::decode(prefix);
        EXPECT_FALSE(result.has_value()) << "prefix of " << cut << " bytes decoded";
    }
}

TEST(FlushStateCodecFuzz, HostileCountFieldsAreErrorsNotOverReads) {
    // Entry count sits after the two watermarks (8 + 4 + 8 bytes in).
    Bytes frame = sample_flush_state().encode();
    const std::size_t count_at = 20;
    for (const std::uint32_t hostile : {70000u, 0xFFFFFFFFu}) {
        Bytes bad = frame;
        bad[count_at] = static_cast<std::uint8_t>(hostile);
        bad[count_at + 1] = static_cast<std::uint8_t>(hostile >> 8);
        bad[count_at + 2] = static_cast<std::uint8_t>(hostile >> 16);
        bad[count_at + 3] = static_cast<std::uint8_t>(hostile >> 24);
        EXPECT_FALSE(FlushState::decode(bad).has_value());
    }

    // An oversized view-member list inside a nested entry must surface as a
    // bad-entry error, not an allocation storm. view_members is the last
    // GcMessage field, so its little-endian count sits 16 bytes before the
    // end of the frame (4 count bytes + 3 members x 4 bytes).
    GcMessage entry = flush_sym_entry(0, 1, "x");
    entry.view_members = {0, 1, 2};
    FlushState st;
    st.entries.push_back(entry);
    Bytes wire = st.encode();
    const std::size_t inner_count_at = wire.size() - 16;
    ASSERT_EQ(wire[inner_count_at], 3u) << "fixture drifted: inner count not where expected";
    wire[inner_count_at + 3] = 0xFF;  // count becomes ~4 billion
    EXPECT_FALSE(FlushState::decode(wire).has_value());
}

TEST(FlushStateCodecFuzz, RandomMutationsOfValidFramesDecodeTotally) {
    Rng rng(0xdeadf1005);
    const Bytes frame = sample_flush_state().encode();
    for (int round = 0; round < 1000; ++round) {
        Bytes mutated = frame;
        const int flips = 1 + static_cast<int>(rng.uniform(4));
        for (int f = 0; f < flips; ++f) {
            mutated[rng.uniform(mutated.size())] ^=
                static_cast<std::uint8_t>(1u << rng.uniform(8));
        }
        expect_total_flush_decode(mutated);
    }
}

// ---------------------------------------------------------------------------
// In-memory protocol harness: drives GcService instances directly, with
// randomized cross-link interleaving but FIFO per directed link (matching
// the reliable-FIFO channel assumption).
// ---------------------------------------------------------------------------

class Harness {
public:
    explicit Harness(int n, std::uint64_t seed = 1) : rng_(seed) {
        std::vector<MemberId> ids;
        for (int i = 0; i < n; ++i) ids.push_back(static_cast<MemberId>(i));
        for (int i = 0; i < n; ++i) {
            GcConfig cfg;
            cfg.self = static_cast<MemberId>(i);
            cfg.initial_members = ids;
            for (int j = 0; j < n; ++j) {
                if (j != i) {
                    cfg.peers[static_cast<MemberId>(j)] =
                        fs::Destination::fs("m:" + std::to_string(j));
                }
            }
            cfg.delivery = fs::Destination::fs("app");
            members_.push_back(std::make_unique<GcService>(cfg));
            deliveries_.emplace_back();
            views_.emplace_back();
        }
    }

    GcService& member(int i) { return *members_[static_cast<std::size_t>(i)]; }

    void multicast(int from, ServiceType svc, const std::string& text) {
        MulticastRequest req;
        req.service = svc;
        req.payload = bytes_of(text);
        route(from, members_[static_cast<std::size_t>(from)]->process("multicast", req.encode()));
    }

    void suspect(int at, MemberId who) {
        ByteWriter w;
        w.u32(who);
        route(at, members_[static_cast<std::size_t>(at)]->process("suspect", w.take()));
    }

    /// Member i restarts from nothing and asks the others for readmission.
    void rejoin(int i) { route(i, members_[static_cast<std::size_t>(i)]->process("__rejoin", {})); }

    /// Cuts both directions between a and b (messages silently dropped).
    void disconnect(int a, int b) {
        cut_.insert({a, b});
        cut_.insert({b, a});
    }

    /// Pumps until quiescent, choosing a random non-empty link each step.
    void run() {
        while (true) {
            std::vector<std::pair<int, int>> ready;
            for (auto& [link, queue] : links_) {
                if (!queue.empty()) ready.push_back(link);
            }
            if (ready.empty()) break;
            const auto link = ready[rng_.uniform(ready.size())];
            auto [op, body] = std::move(links_[link].front());
            links_[link].pop_front();
            const int dst = link.second;
            route(dst, members_[static_cast<std::size_t>(dst)]->process(op, body));
        }
    }

    /// Delivered payload texts at member i, with sender prefix "s:text".
    std::vector<std::string> delivered(int i) const { return deliveries_[static_cast<std::size_t>(i)]; }
    const std::vector<GroupView>& views(int i) const { return views_[static_cast<std::size_t>(i)]; }
    /// GC-to-GC messages put on a link so far, by kind (one per receiver).
    const std::map<GcKind, int>& sent_by_kind() const { return sent_by_kind_; }

private:
    void route(int from, const std::vector<fs::Outbound>& outputs) {
        for (const auto& out : outputs) {
            for (const auto& dest : out.dests) {
                if (dest.fs_name == "app") {
                    auto d = Delivery::decode(out.body);
                    ASSERT_TRUE(d.has_value());
                    if (d.value().kind == Delivery::Kind::kView) {
                        views_[static_cast<std::size_t>(from)].push_back(d.value().view);
                    } else {
                        deliveries_[static_cast<std::size_t>(from)].push_back(
                            std::to_string(d.value().sender) + ":" +
                            string_of(d.value().payload));
                    }
                } else {
                    const int to = std::stoi(dest.fs_name.substr(2));
                    if (cut_.contains({from, to})) continue;
                    if (out.operation == "gc") {
                        ++sent_by_kind_[GcMessage::decode(out.body).value().kind];
                    }
                    links_[{from, to}].emplace_back(out.operation, out.body);
                }
            }
        }
    }

    Rng rng_;
    std::vector<std::unique_ptr<GcService>> members_;
    std::map<std::pair<int, int>, std::deque<std::pair<std::string, Bytes>>> links_;
    std::set<std::pair<int, int>> cut_;
    std::vector<std::vector<std::string>> deliveries_;
    std::vector<std::vector<GroupView>> views_;
    std::map<GcKind, int> sent_by_kind_;
};

// --- symmetric total order -------------------------------------------------

class SymTotalOrderTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SymTotalOrderTest, AllMembersDeliverIdenticalSequences) {
    const auto [n, seed] = GetParam();
    Harness h(n, static_cast<std::uint64_t>(seed));
    // Interleaved multicasts from every member.
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < n; ++i) {
            h.multicast(i, ServiceType::kSymmetricTotalOrder,
                        "r" + std::to_string(round) + "m" + std::to_string(i));
        }
    }
    h.run();

    const auto reference = h.delivered(0);
    EXPECT_EQ(reference.size(), static_cast<std::size_t>(5 * n)) << "all messages delivered";
    for (int i = 1; i < n; ++i) {
        EXPECT_EQ(h.delivered(i), reference) << "member " << i << " disagrees on total order";
    }
}

INSTANTIATE_TEST_SUITE_P(GroupsAndSeeds, SymTotalOrderTest,
                         ::testing::Combine(::testing::Values(2, 3, 5, 8),
                                            ::testing::Values(1, 42, 777)));

TEST(SymTotalOrder, SingleMemberDeliversImmediately) {
    Harness h(1);
    h.multicast(0, ServiceType::kSymmetricTotalOrder, "solo");
    h.run();
    EXPECT_EQ(h.delivered(0), std::vector<std::string>{"0:solo"});
}

TEST(SymTotalOrder, SenderDeliversItsOwnMessages) {
    Harness h(3);
    h.multicast(0, ServiceType::kSymmetricTotalOrder, "a");
    h.run();
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(h.delivered(i), std::vector<std::string>{"0:a"});
    }
}

// --- asymmetric total order --------------------------------------------------

class AsymTotalOrderTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AsymTotalOrderTest, AllMembersDeliverIdenticalSequences) {
    const auto [n, seed] = GetParam();
    Harness h(n, static_cast<std::uint64_t>(seed));
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < n; ++i) {
            h.multicast(i, ServiceType::kAsymmetricTotalOrder,
                        "r" + std::to_string(round) + "m" + std::to_string(i));
        }
    }
    h.run();
    const auto reference = h.delivered(0);
    EXPECT_EQ(reference.size(), static_cast<std::size_t>(5 * n));
    for (int i = 1; i < n; ++i) EXPECT_EQ(h.delivered(i), reference);
}

INSTANTIATE_TEST_SUITE_P(GroupsAndSeeds, AsymTotalOrderTest,
                         ::testing::Combine(::testing::Values(2, 4, 7),
                                            ::testing::Values(3, 99)));

TEST(AsymTotalOrder, SequencerIsTheCoordinator) {
    Harness h(3);
    // Member 2 multicasts; only the sequencer (member 0) assigns the order.
    h.multicast(2, ServiceType::kAsymmetricTotalOrder, "x");
    h.run();
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(h.delivered(i), std::vector<std::string>{"2:x"});
    }
}

// --- causal order -------------------------------------------------------------

TEST(CausalOrder, CauseDeliversBeforeEffectEverywhere) {
    // Member 0 multicasts "question"; member 1, having seen it, multicasts
    // "answer". No member may deliver the answer before the question.
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Harness h(4, seed);
        h.multicast(0, ServiceType::kCausalOrder, "question");
        h.run();  // member 1 now saw the question
        h.multicast(1, ServiceType::kCausalOrder, "answer");
        h.run();
        for (int i = 0; i < 4; ++i) {
            const auto d = h.delivered(i);
            const auto q = std::find(d.begin(), d.end(), "0:question");
            const auto a = std::find(d.begin(), d.end(), "1:answer");
            ASSERT_NE(q, d.end());
            ASSERT_NE(a, d.end());
            EXPECT_LT(q - d.begin(), a - d.begin()) << "causality violated at member " << i;
        }
    }
}

TEST(CausalOrder, ConcurrentMessagesAllDelivered) {
    Harness h(3, 9);
    h.multicast(0, ServiceType::kCausalOrder, "a");
    h.multicast(1, ServiceType::kCausalOrder, "b");
    h.multicast(2, ServiceType::kCausalOrder, "c");
    h.run();
    for (int i = 0; i < 3; ++i) EXPECT_EQ(h.delivered(i).size(), 3u);
}

// --- reliable / unreliable multicast ---------------------------------------------

TEST(ReliableMulticast, PerSenderFifoHolds) {
    Harness h(3, 5);
    for (int k = 0; k < 10; ++k) {
        h.multicast(0, ServiceType::kReliableMulticast, "m" + std::to_string(k));
    }
    h.run();
    for (int i = 0; i < 3; ++i) {
        const auto d = h.delivered(i);
        ASSERT_EQ(d.size(), 10u);
        for (int k = 0; k < 10; ++k) {
            EXPECT_EQ(d[static_cast<std::size_t>(k)], "0:m" + std::to_string(k));
        }
    }
}

TEST(UnreliableMulticast, DeliversOnReceipt) {
    Harness h(2);
    h.multicast(0, ServiceType::kUnreliableMulticast, "u");
    h.run();
    EXPECT_EQ(h.delivered(1), std::vector<std::string>{"0:u"});
}

// --- membership -----------------------------------------------------------------

TEST(Membership, SuspicionShrinksViewAtAllCorrectMembers) {
    Harness h(4, 11);
    // Everyone suspects member 3 (e.g. it crashed).
    h.disconnect(0, 3);
    h.disconnect(1, 3);
    h.disconnect(2, 3);
    h.suspect(0, 3);
    h.suspect(1, 3);
    h.suspect(2, 3);
    h.run();
    for (int i = 0; i < 3; ++i) {
        const GroupView& v = h.member(i).view();
        EXPECT_EQ(v.members, (std::vector<MemberId>{0, 1, 2})) << "member " << i;
        EXPECT_GT(v.view_id, 1u);
    }
}

TEST(Membership, ViewsAgreeOnViewId) {
    Harness h(3, 13);
    h.disconnect(0, 2);
    h.disconnect(1, 2);
    h.suspect(0, 2);
    h.suspect(1, 2);
    h.run();
    EXPECT_EQ(h.member(0).view(), h.member(1).view());
}

TEST(Membership, TotalOrderResumesAfterViewChange) {
    Harness h(3, 17);
    h.multicast(0, ServiceType::kSymmetricTotalOrder, "before");
    h.run();
    h.disconnect(0, 2);
    h.disconnect(1, 2);
    h.suspect(0, 2);
    h.suspect(1, 2);
    h.run();
    h.multicast(1, ServiceType::kSymmetricTotalOrder, "after");
    h.run();
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(h.delivered(i), (std::vector<std::string>{"0:before", "1:after"}))
            << "member " << i;
    }
}

TEST(Membership, StabilityBlockedByCrashedMemberReleasesOnViewChange) {
    // A symmetric-TO message cannot stabilize while a silent member never
    // acks; removing the member via a view change must release it.
    Harness h(3, 19);
    h.disconnect(0, 2);
    h.disconnect(1, 2);
    h.multicast(0, ServiceType::kSymmetricTotalOrder, "stuck");
    h.run();
    EXPECT_TRUE(h.delivered(0).empty()) << "message delivered without full acknowledgement";
    h.suspect(0, 2);
    h.suspect(1, 2);
    h.run();
    EXPECT_EQ(h.delivered(0), std::vector<std::string>{"0:stuck"});
    EXPECT_EQ(h.delivered(1), std::vector<std::string>{"0:stuck"});
}

TEST(Membership, DisjointSuspicionsSplitTheGroup) {
    // Partitionable semantics: {0,1} and {2,3} mutually suspect each other
    // and form two sub-views — the group has split.
    Harness h(4, 23);
    for (const int a : {0, 1}) {
        for (const int b : {2, 3}) {
            h.disconnect(a, b);
        }
    }
    h.suspect(0, 2);
    h.suspect(0, 3);
    h.suspect(1, 2);
    h.suspect(1, 3);
    h.suspect(2, 0);
    h.suspect(2, 1);
    h.suspect(3, 0);
    h.suspect(3, 1);
    h.run();
    EXPECT_EQ(h.member(0).view().members, (std::vector<MemberId>{0, 1}));
    EXPECT_EQ(h.member(1).view().members, (std::vector<MemberId>{0, 1}));
    EXPECT_EQ(h.member(2).view().members, (std::vector<MemberId>{2, 3}));
    EXPECT_EQ(h.member(3).view().members, (std::vector<MemberId>{2, 3}));
}

TEST(Membership, CascadingSuspicionsShrinkToSingleton)
{
    Harness h(3, 29);
    h.disconnect(0, 1);
    h.disconnect(0, 2);
    h.suspect(0, 1);
    h.suspect(0, 2);
    h.run();
    EXPECT_EQ(h.member(0).view().members, (std::vector<MemberId>{0}));
}

TEST(Membership, SelfSuspicionIgnored) {
    Harness h(2);
    h.suspect(0, 0);
    h.run();
    EXPECT_EQ(h.member(0).view().members, (std::vector<MemberId>{0, 1}));
}

TEST(Membership, ViewDeliveryReportedToApplication) {
    Harness h(3, 31);
    h.disconnect(0, 2);
    h.disconnect(1, 2);
    h.suspect(0, 2);
    h.suspect(1, 2);
    h.run();
    ASSERT_FALSE(h.views(0).empty());
    EXPECT_EQ(h.views(0).back().members, (std::vector<MemberId>{0, 1}));
}

// --- view-synchronous flush ------------------------------------------------

TEST(ViewFlush, PatchesSurvivorThatMissedAnInFlightMulticast) {
    // The agreement hole the flush closes: member 2's broadcast reaches
    // members 0 and 1 but the copy to 3 is lost when 2 crashes
    // mid-broadcast. Without a flush the survivors install the new view with
    // the message buffered at 0/1 and absent at 3 forever. The flush cut
    // must re-supply it so every survivor delivers it.
    Harness h(4, 7);
    h.disconnect(2, 3);  // 2 crashes before its copy to 3 leaves the node
    h.multicast(2, ServiceType::kSymmetricTotalOrder, "inflight");
    h.run();
    EXPECT_TRUE(h.delivered(3).empty());

    h.disconnect(0, 2);
    h.disconnect(1, 2);
    h.suspect(0, 2);
    h.suspect(1, 2);
    h.suspect(3, 2);
    h.run();

    const std::vector<std::string> want{"2:inflight"};
    for (const int i : {0, 1, 3}) {
        EXPECT_EQ(h.delivered(i), want) << "member " << i;
        ASSERT_FALSE(h.views(i).empty()) << "member " << i;
        EXPECT_EQ(h.views(i).back().members, (std::vector<MemberId>{0, 1, 3}));
        EXPECT_FALSE(h.member(i).flushing());
    }

    // Total order resumes in the installed view.
    h.multicast(0, ServiceType::kSymmetricTotalOrder, "after");
    h.run();
    const std::vector<std::string> want_after{"2:inflight", "0:after"};
    for (const int i : {0, 1, 3}) {
        EXPECT_EQ(h.delivered(i), want_after) << "member " << i;
    }
}

TEST(ViewFlush, RetainedLogPatchesLaggardThatMissedADeliveredMessage) {
    // Harder variant: the in-flight message STABILIZES and is delivered at
    // members 0 and 1 before the view change (member 3's clock advances via
    // its ack of a later message), while 3 never receives it. Patching 3
    // requires the retained log of already-delivered messages, not just the
    // undelivered buffers.
    Harness h(4, 11);
    h.disconnect(2, 3);
    h.multicast(2, ServiceType::kSymmetricTotalOrder, "m");
    h.run();
    h.multicast(1, ServiceType::kSymmetricTotalOrder, "y");
    h.run();

    // 2's ack of "y" follows "m" in its FIFO stream, so 3 (missing "m")
    // resequences it into the holdback: "y" cannot stabilize at 3, and the
    // pre-flush states diverge exactly as a crash mid-broadcast allows.
    EXPECT_EQ(h.delivered(0), (std::vector<std::string>{"2:m", "1:y"}));
    EXPECT_EQ(h.delivered(1), (std::vector<std::string>{"2:m", "1:y"}));
    EXPECT_TRUE(h.delivered(3).empty());

    h.disconnect(0, 2);
    h.disconnect(1, 2);
    h.suspect(0, 2);
    h.suspect(1, 2);
    h.run();

    const std::vector<std::string> want{"2:m", "1:y"};
    for (const int i : {0, 1, 3}) {
        EXPECT_EQ(h.delivered(i), want) << "member " << i;
        ASSERT_FALSE(h.views(i).empty()) << "member " << i;
        EXPECT_EQ(h.views(i).back().members, (std::vector<MemberId>{0, 1, 3}));
    }
}

TEST(ViewFlush, SurvivorCrashMidFlushReproposesWithHigherViewId) {
    // Flush rounds are keyed by proposal id: when a survivor dies before
    // answering, suspicion re-proposes with a higher id and the stale round
    // is discarded — the flush must not wedge the group.
    Harness h(4, 13);
    h.multicast(0, ServiceType::kSymmetricTotalOrder, "pre");
    h.run();

    // Member 3 crashes; member 1 crashes too, before it can answer the
    // first flush round.
    for (const int alive : {0, 1, 2}) h.disconnect(alive, 3);
    h.disconnect(0, 1);
    h.disconnect(2, 1);
    h.suspect(0, 3);
    h.suspect(2, 3);
    h.run();
    // The {0,1,2} round stalls waiting on 1: survivors are mid-flush.
    EXPECT_TRUE(h.member(0).flushing());

    // Application traffic submitted mid-flush is held, not lost.
    h.multicast(0, ServiceType::kSymmetricTotalOrder, "during");
    h.run();
    EXPECT_EQ(h.delivered(0), (std::vector<std::string>{"0:pre"}));

    h.suspect(0, 1);
    h.suspect(2, 1);
    h.run();

    const std::vector<std::string> want{"0:pre", "0:during"};
    for (const int i : {0, 2}) {
        EXPECT_EQ(h.delivered(i), want) << "member " << i;
        ASSERT_FALSE(h.views(i).empty()) << "member " << i;
        EXPECT_EQ(h.views(i).back().members, (std::vector<MemberId>{0, 2}));
        EXPECT_FALSE(h.member(i).flushing()) << "member " << i;
    }
    EXPECT_GE(h.views(0).back().view_id, 3u);
}

TEST(ViewFlush, OneExclusionIsOneProposeStateDoneRound) {
    // A view change is one round: the coordinator proposes, each survivor
    // answers with its FlushState, the coordinator fans out the cut. Nothing
    // else crosses the wire.
    Harness h(4, 17);
    for (const int alive : {0, 1, 3}) h.disconnect(alive, 2);
    for (const int alive : {0, 1, 3}) h.suspect(alive, 2);
    h.run();

    const std::map<GcKind, int> want{
        {GcKind::kViewPropose, 2}, {GcKind::kFlushState, 2}, {GcKind::kFlushDone, 2}};
    EXPECT_EQ(h.sent_by_kind(), want);
    for (const int i : {0, 1, 3}) {
        ASSERT_FALSE(h.views(i).empty()) << "member " << i;
        EXPECT_EQ(h.views(i).back().members, (std::vector<MemberId>{0, 1, 3}));
    }
}

TEST(ViewFlush, LowestMemberRestartingBeforeExclusionRejoins) {
    // Member 0 restarts while everyone still has it in the view. It is the
    // lowest id but a pending joiner, so it must not be picked to lead:
    // member 1 coordinates the view that readmits it. In this schedule
    // every survivor sees the join request before the proposal.
    Harness h(4, 19);
    h.multicast(1, ServiceType::kSymmetricTotalOrder, "a");
    h.multicast(2, ServiceType::kSymmetricTotalOrder, "b");
    h.rejoin(0);
    h.run();

    for (int i = 0; i < 4; ++i) {
        ASSERT_FALSE(h.views(i).empty()) << "member " << i;
        EXPECT_EQ(h.views(i).back().members, (std::vector<MemberId>{0, 1, 2, 3}))
            << "member " << i;
        EXPECT_EQ(h.member(i).app().digest(), h.member(1).app().digest()) << "member " << i;
    }
    EXPECT_EQ(h.member(1).app().applied(), 2u);
    EXPECT_EQ(h.member(0).rejoins_completed(), 1u);
}

// ---------------------------------------------------------------------------
// Full simulated deployment (ORB + network + thread pools)
// ---------------------------------------------------------------------------

TEST(NewTopDeployment, SymmetricTotalOrderAcrossTheWire) {
    deploy::DeploymentSpec spec;
    spec.group_size = 4;
    deploy::NewTopDeployment d(spec);

    // Each payload names its sender ("k<round>i<member>").
    std::vector<std::vector<std::string>> delivered(4);
    deploy::Observers observers;
    observers.delivered = [&delivered](int member, const Bytes& payload) {
        delivered[static_cast<std::size_t>(member)].push_back(string_of(payload));
    };
    d.attach(std::move(observers));
    for (int k = 0; k < 5; ++k) {
        for (int i = 0; i < 4; ++i) {
            d.submit(i, bytes_of("k" + std::to_string(k) + "i" + std::to_string(i)));
        }
    }
    d.run();

    EXPECT_EQ(delivered[0].size(), 20u);
    for (int i = 1; i < 4; ++i) EXPECT_EQ(delivered[static_cast<std::size_t>(i)], delivered[0]);
}

TEST(NewTopDeployment, CrashDetectionRemovesMemberFromView) {
    deploy::DeploymentSpec spec;
    spec.group_size = 3;
    spec.start_suspectors = true;
    spec.suspector.ping_interval = 50 * kMillisecond;
    spec.suspector.suspect_timeout = 300 * kMillisecond;
    deploy::NewTopDeployment d(spec);

    // "Crash" member 2 by cutting its node off the network.
    d.faults().block(d.node_of(2), d.node_of(0));
    d.faults().block(d.node_of(2), d.node_of(1));

    d.run_until(3 * kSecond);
    d.stop_perpetual();
    d.run();

    EXPECT_EQ(d.gc(0).view().members, (std::vector<MemberId>{0, 1}));
    EXPECT_EQ(d.gc(1).view().members, (std::vector<MemberId>{0, 1}));
    EXPECT_GT(d.suspector(0).suspicions_raised(), 0u);
}

TEST(NewTopDeployment, FalseSuspicionSplitsGroupWithoutAnyFailure) {
    // The paper's motivating pathology: a delay surge (no crash!) makes the
    // timeout-based suspectors fire, and connected, operational processes
    // split into sub-groups.
    deploy::DeploymentSpec spec;
    spec.group_size = 3;
    spec.start_suspectors = true;
    spec.suspector.ping_interval = 50 * kMillisecond;
    spec.suspector.suspect_timeout = 200 * kMillisecond;
    deploy::NewTopDeployment d(spec);

    d.run_until(500 * kMillisecond);  // healthy phase
    EXPECT_EQ(d.gc(0).view().members, (std::vector<MemberId>{0, 1, 2}));

    // Delay surge far above the suspect timeout, for 2 simulated seconds.
    d.faults().delay_surge(1 * kSecond, d.now() + 2 * kSecond);
    d.run_until(d.now() + 5 * kSecond);
    d.stop_perpetual();
    d.run();

    // At least one member no longer has the full view: the group split even
    // though no process failed.
    const bool split = d.gc(0).view().members.size() < 3 ||
                       d.gc(1).view().members.size() < 3 ||
                       d.gc(2).view().members.size() < 3;
    EXPECT_TRUE(split);
}

TEST(NewTopDeployment, MessageSizeAffectsNothingButPayload) {
    deploy::DeploymentSpec spec;
    spec.group_size = 2;
    deploy::NewTopDeployment d(spec);
    std::vector<Bytes> got;
    deploy::Observers observers;
    observers.delivered = [&got](int member, const Bytes& payload) {
        if (member == 1) got.push_back(payload);
    };
    d.attach(std::move(observers));
    const Bytes big(10000, 0xab);
    d.submit(0, big);
    d.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], big);
}

// ---------------------------------------------------------------------------
// The shared delivery stream: every stack's Invocation layer re-sequences,
// unbatches and drops stale positions through InvocationService::deliver.
// ---------------------------------------------------------------------------

/// A bare Invocation layer whose ordering layer is the test: it hands
/// deliveries up at chosen stream positions.
class StreamProbe final : public InvocationService {
public:
    explicit StreamProbe(sim::Simulation& sim)
        : InvocationService(sim, BatchConfig{}, nullptr, 0) {
        on_delivery([this](const Delivery& d) { seen.push_back(string_of(d.payload)); });
    }

    void hand_up(std::uint64_t seq, Bytes payload) {
        Delivery d;
        d.delivery_seq = seq;
        d.payload = std::move(payload);
        deliver(std::move(d));
    }

    std::vector<std::string> seen;

protected:
    void do_multicast(ServiceType, Bytes) override {}
};

TEST(InvocationStream, ReleasesInStackOrderDropsStaleAndResumes) {
    sim::Simulation sim;
    StreamProbe inv(sim);

    inv.hand_up(2, bytes_of("b"));
    EXPECT_TRUE(inv.seen.empty());  // held until position 1 arrives

    inv.hand_up(1, Batch::encode({bytes_of("a1"), bytes_of("a2")}));
    EXPECT_EQ(inv.seen, (std::vector<std::string>{"a1", "a2", "b"}));

    inv.hand_up(2, bytes_of("b again"));  // already released: stale
    EXPECT_EQ(inv.seen.size(), 3u);

    // A restarted stream: what the old stream held back (positions 5 and 7)
    // is dropped, and everything below the resume point is stale.
    inv.hand_up(5, bytes_of("old 5"));
    inv.hand_up(7, bytes_of("old 7"));
    inv.resume_deliveries_at(7);
    inv.hand_up(6, bytes_of("old 6"));
    EXPECT_EQ(inv.seen.size(), 3u);
    inv.hand_up(7, bytes_of("resumed"));
    EXPECT_EQ(inv.seen, (std::vector<std::string>{"a1", "a2", "b", "resumed"}));
}

}  // namespace
}  // namespace failsig::newtop
