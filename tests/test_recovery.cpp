// Checkpoint/recovery subsystem tests: the replicated KV store, the three
// new wire codecs it rides on (newtop::JoinGrant, baseline::RecoveryState,
// the KV snapshot itself), PBFT log and FS-NewTOP verify-memo boundedness
// under sustained load, and the scenario-level crash -> recover -> rejoin arc judged by the recovery
// invariant checkers.
//
// The codecs are fuzzed the way test_tcp_frame.cpp fuzzes the TCP frame
// parser — they sit directly behind a network read (a rejoin grant, a
// state-transfer reply), so a corrupt or hostile peer must never crash the
// decoder or smuggle an implausible allocation through a count field:
// round-trip equality, truncation at every prefix length, seeded garbage
// corpora, and hand-crafted hostile counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "baseline/pbft.hpp"
#include "common/batch.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/keys.hpp"
#include "deploy/pbft.hpp"
#include "explore/explore.hpp"
#include "explore/repro.hpp"
#include "newtop/wire.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace failsig {
namespace {

Bytes request_body(std::uint32_t sender, std::uint32_t seq) {
    ByteWriter w;
    w.u32(sender);
    w.u32(seq);
    return w.take();
}

// ---------------------------------------------------------------------------
// KvStore: deterministic state machine semantics

TEST(KvStore, DigestIsAPureFunctionOfTheAppliedSequence) {
    app::KvStore a;
    app::KvStore b;
    for (std::uint32_t i = 0; i < 32; ++i) {
        a.apply(request_body(1, i));
        b.apply(request_body(1, i));
    }
    EXPECT_EQ(a.applied(), 32u);
    EXPECT_TRUE(a.state_equals(b));

    // Same multiset of requests in a different order must diverge: the
    // digest is what the agreement checkers compare, so it has to be
    // order-sensitive, not just content-sensitive.
    app::KvStore c;
    for (std::uint32_t i = 0; i < 32; ++i) {
        c.apply(request_body(1, 31 - i));
    }
    EXPECT_EQ(c.applied(), 32u);
    EXPECT_NE(c.digest(), a.digest());
}

TEST(KvStore, BatchFramesUnbatchToTheIndividualRequests) {
    std::vector<Bytes> requests;
    for (std::uint32_t i = 0; i < 5; ++i) requests.push_back(request_body(2, i));

    app::KvStore batched;
    EXPECT_EQ(batched.apply(Batch::encode(requests)), 5u);

    app::KvStore individual;
    for (const auto& r : requests) {
        EXPECT_EQ(individual.apply(r), 1u);
    }
    EXPECT_TRUE(batched.state_equals(individual))
        << batched.state_string() << " vs " << individual.state_string();
}

TEST(KvStore, PeriodicCheckpointsFollowTheInterval) {
    app::KvStore store(5);
    for (std::uint32_t i = 0; i < 23; ++i) store.apply(request_body(0, i));
    EXPECT_EQ(store.checkpoints_taken(), 4u);  // at 5, 10, 15, 20
    ASSERT_FALSE(store.checkpoints().empty());
    EXPECT_EQ(store.checkpoints().back().applied, 20u);

    // Watermarks are strictly increasing — the decode validator depends
    // on it, so the encoder had better produce it.
    for (std::size_t i = 1; i < store.checkpoints().size(); ++i) {
        EXPECT_LT(store.checkpoints()[i - 1].applied, store.checkpoints()[i].applied);
    }
}

TEST(KvStore, CheckpointHistoryIsBounded) {
    app::KvStore store(1);  // checkpoint after every request
    for (std::uint32_t i = 0; i < 50; ++i) store.apply(request_body(0, i));
    EXPECT_EQ(store.checkpoints_taken(), 50u);
    EXPECT_EQ(store.checkpoints().size(), app::KvStore::kCheckpointHistory);
    // The retained window is the most recent history.
    EXPECT_EQ(store.checkpoints().back().applied, 50u);
}

TEST(KvStore, SnapshotRestoreRoundTrips) {
    app::KvStore original(4);
    for (std::uint32_t i = 0; i < 19; ++i) original.apply(request_body(3, i * 7));

    app::KvStore restored(9);  // interval is configuration, not state
    const auto ok = restored.restore(original.snapshot());
    ASSERT_TRUE(ok.has_value()) << ok.error().message;
    EXPECT_TRUE(restored.state_equals(original));
    EXPECT_EQ(restored.checkpoint_interval(), 9u)
        << "restore must preserve the local checkpoint cadence";

    // The restored store continues deterministically from the snapshot.
    app::KvStore continued = original;
    continued.apply(request_body(3, 999));
    restored.apply(request_body(3, 999));
    EXPECT_EQ(restored.digest(), continued.digest());
}

TEST(KvStore, RestoreRejectsMalformedInputWithoutTouchingState) {
    app::KvStore store(2);
    for (std::uint32_t i = 0; i < 9; ++i) store.apply(request_body(1, i));
    const app::KvStore before = store;

    const auto reject = [&store, &before](const Bytes& wire, const char* what) {
        const auto result = store.restore(wire);
        EXPECT_FALSE(result.has_value()) << what;
        EXPECT_TRUE(store.state_equals(before)) << what << ": state was mutated";
    };

    // Wrong magic.
    {
        Bytes wire = store.snapshot();
        wire[0] ^= 0xff;
        reject(wire, "bad magic");
    }
    // Trailing bytes.
    {
        Bytes wire = store.snapshot();
        wire.push_back(0x00);
        reject(wire, "trailing byte");
    }
    // Store count past the key space.
    {
        ByteWriter w;
        w.u32(app::KvStore::kSnapshotMagic);
        w.u64(1);
        w.u64(2);
        w.u64(0);
        w.u32(app::KvStore::kKeySpace + 1);
        reject(w.take(), "implausible store count");
    }
    // Key outside the key space.
    {
        ByteWriter w;
        w.u32(app::KvStore::kSnapshotMagic);
        w.u64(1);
        w.u64(2);
        w.u64(0);
        w.u32(1);
        w.u32(app::KvStore::kKeySpace);  // keys are [0, kKeySpace)
        w.u64(7);
        w.u32(0);
        reject(w.take(), "key out of key space");
    }
    // Duplicate key.
    {
        ByteWriter w;
        w.u32(app::KvStore::kSnapshotMagic);
        w.u64(2);
        w.u64(2);
        w.u64(0);
        w.u32(2);
        w.u32(5);
        w.u64(1);
        w.u32(5);
        w.u64(2);
        w.u32(0);
        reject(w.take(), "duplicate key");
    }
    // Non-monotone checkpoint watermarks.
    {
        ByteWriter w;
        w.u32(app::KvStore::kSnapshotMagic);
        w.u64(10);
        w.u64(2);
        w.u64(2);
        w.u32(0);
        w.u32(2);
        w.u64(6);
        w.u64(11);
        w.u64(4);  // goes backwards
        w.u64(12);
        reject(w.take(), "non-monotone checkpoints");
    }
    // Checkpoint watermark past the applied count.
    {
        ByteWriter w;
        w.u32(app::KvStore::kSnapshotMagic);
        w.u64(3);
        w.u64(2);
        w.u64(1);
        w.u32(0);
        w.u32(1);
        w.u64(4);  // > applied
        w.u64(9);
        reject(w.take(), "checkpoint past applied");
    }
}

TEST(KvStore, SnapshotTruncationAtEveryOffsetIsRejected) {
    app::KvStore store(3);
    for (std::uint32_t i = 0; i < 11; ++i) store.apply(request_body(2, i));
    const Bytes wire = store.snapshot();
    for (std::size_t len = 0; len < wire.size(); ++len) {
        app::KvStore victim;
        const auto result =
            victim.restore(std::span<const std::uint8_t>(wire.data(), len));
        EXPECT_FALSE(result.has_value()) << "prefix of length " << len << " accepted";
        EXPECT_EQ(victim.applied(), 0u);
    }
}

// ---------------------------------------------------------------------------
// Wire codec fuzzing: JoinGrant and RecoveryState

newtop::JoinGrant sample_grant() {
    app::KvStore app(4);
    for (std::uint32_t i = 0; i < 13; ++i) app.apply(request_body(0, i));

    newtop::JoinGrant g;
    g.lamport = 42;
    g.sym_stream_out = 7;
    g.rel_seq = 3;
    g.causal_out = 9;
    g.sym_watermark_ts = 41;
    g.sym_watermark_sender = 2;
    g.asym_next_deliver = 5;
    g.asym_next_assign = 6;
    g.vector_clock = {4, 0, 11};
    g.app_snapshot = app.snapshot();
    return g;
}

TEST(JoinGrantCodec, RoundTrips) {
    const newtop::JoinGrant g = sample_grant();
    const Bytes wire = g.encode();
    EXPECT_EQ(wire.size(), g.wire_size());
    const auto decoded = newtop::JoinGrant::decode(wire);
    ASSERT_TRUE(decoded.has_value()) << decoded.error().message;
    EXPECT_EQ(decoded.value(), g);
}

TEST(JoinGrantCodec, TruncationAtEveryOffsetIsRejected) {
    const Bytes wire = sample_grant().encode();
    for (std::size_t len = 0; len < wire.size(); ++len) {
        const auto result =
            newtop::JoinGrant::decode(std::span<const std::uint8_t>(wire.data(), len));
        EXPECT_FALSE(result.has_value()) << "prefix of length " << len << " accepted";
    }
}

TEST(JoinGrantCodec, HostileCountsAreRejectedBeforeAllocation) {
    // A vector-clock count far past any plausible group size must be
    // refused by the validator, not handed to reserve().
    ByteWriter w;
    for (int i = 0; i < 5; ++i) w.u64(1);  // lamport..sym_watermark_ts
    w.u32(0);                              // sym_watermark_sender
    w.u64(1);                              // asym_next_deliver (1-based)
    w.u64(1);                              // asym_next_assign
    w.u32(0xFFFFFFFFu);                    // hostile vector-clock count
    const auto result = newtop::JoinGrant::decode(w.take());
    ASSERT_FALSE(result.has_value());
    EXPECT_NE(result.error().message.find("vector clock"), std::string::npos);
}

TEST(JoinGrantCodec, ZeroBasedAsymPositionsAreRejected) {
    newtop::JoinGrant g = sample_grant();
    g.asym_next_deliver = 0;
    const auto result = newtop::JoinGrant::decode(g.encode());
    EXPECT_FALSE(result.has_value());
}

TEST(JoinGrantCodec, TrailingBytesAreRejected) {
    Bytes wire = sample_grant().encode();
    wire.push_back(0xAA);
    EXPECT_FALSE(newtop::JoinGrant::decode(wire).has_value());
}

baseline::RecoveryState sample_state() {
    app::KvStore app(3);
    for (std::uint32_t i = 0; i < 6; ++i) app.apply(request_body(1, i));

    baseline::RecoveryState st;
    st.view = 2;
    st.snapshot_watermark = 6;
    st.last_delivered = 9;
    st.app_snapshot = app.snapshot();
    for (std::uint64_t seq = 7; seq <= 9; ++seq) {
        baseline::ClientRequest req;
        req.origin = 1;
        req.origin_seq = seq;
        req.payload = request_body(1, static_cast<std::uint32_t>(seq));
        st.suffix.emplace_back(seq, std::move(req));
    }
    return st;
}

TEST(RecoveryStateCodec, RoundTrips) {
    const baseline::RecoveryState st = sample_state();
    const Bytes wire = st.encode();
    EXPECT_EQ(wire.size(), st.wire_size());
    const auto decoded = baseline::RecoveryState::decode(wire);
    ASSERT_TRUE(decoded.has_value()) << decoded.error().message;
    EXPECT_EQ(decoded.value(), st);
}

TEST(RecoveryStateCodec, TruncationAtEveryOffsetIsRejected) {
    const Bytes wire = sample_state().encode();
    for (std::size_t len = 0; len < wire.size(); ++len) {
        const auto result = baseline::RecoveryState::decode(
            std::span<const std::uint8_t>(wire.data(), len));
        EXPECT_FALSE(result.has_value()) << "prefix of length " << len << " accepted";
    }
}

TEST(RecoveryStateCodec, HostileSuffixCountIsRejected) {
    // A suffix count claiming to span more than a checkpoint window is a
    // corrupt frame even when internally consistent with (S, W].
    ByteWriter w;
    w.u64(0);        // view
    w.u64(0);        // snapshot_watermark
    w.u64(100000);   // last_delivered
    w.bytes(Bytes{});
    w.u32(100000);   // suffix count: matches (S, W] but is implausible
    const auto result = baseline::RecoveryState::decode(w.take());
    ASSERT_FALSE(result.has_value());
    EXPECT_NE(result.error().message.find("implausible"), std::string::npos);
}

TEST(RecoveryStateCodec, SuffixMustCoverTheWindowExactly) {
    baseline::RecoveryState st = sample_state();
    st.suffix.pop_back();  // now covers (6, 8], but W says 9
    EXPECT_FALSE(baseline::RecoveryState::decode(st.encode()).has_value());

    st = sample_state();
    st.snapshot_watermark = 10;  // watermark past last_delivered
    EXPECT_FALSE(baseline::RecoveryState::decode(st.encode()).has_value());
}

TEST(RecoveryStateCodec, NonContiguousSuffixIsRejected) {
    baseline::RecoveryState st = sample_state();
    st.suffix[1].first = 11;  // gap in the committed suffix
    EXPECT_FALSE(baseline::RecoveryState::decode(st.encode()).has_value());
}

TEST(RecoveryCodecs, SeededGarbageCorpusNeverCrashes) {
    // 512 seeded random buffers through all three decoders: any verdict is
    // fine, crashing or throwing past the codec boundary is not.
    Rng rng(0xC0DEC5);
    for (int round = 0; round < 512; ++round) {
        const std::size_t len = rng.uniform(256);
        Bytes wire(len);
        for (auto& b : wire) b = static_cast<std::uint8_t>(rng.uniform(256));

        (void)newtop::JoinGrant::decode(wire);
        (void)baseline::RecoveryState::decode(wire);
        app::KvStore store;
        (void)store.restore(wire);
    }
}

TEST(RecoveryCodecs, BitFlippedFramesNeverCrash) {
    // Mutation corpus: flip one byte of a valid frame at every offset.
    const Bytes grant = sample_grant().encode();
    for (std::size_t i = 0; i < grant.size(); ++i) {
        Bytes wire = grant;
        wire[i] ^= 0x41;
        (void)newtop::JoinGrant::decode(wire);
    }
    const Bytes state = sample_state().encode();
    for (std::size_t i = 0; i < state.size(); ++i) {
        Bytes wire = state;
        wire[i] ^= 0x41;
        (void)baseline::RecoveryState::decode(wire);
    }
}

// ---------------------------------------------------------------------------
// PBFT log boundedness under sustained load

TEST(PbftLogBoundedness, TenThousandRequestsKeepTheSlotMapUnderTwoWindows) {
    // The defect this PR fixes: slots_ grew monotonically because committed
    // instances were never garbage-collected. With checkpointing on, a
    // 10k-request run must keep the per-replica slot map's high-water mark
    // under two checkpoint windows — the current open window plus whatever
    // the previous stable checkpoint had not yet truncated.
    deploy::DeploymentSpec spec;
    spec.group_size = 4;
    spec.threads_per_node = 10;
    spec.seed = 11;
    spec.checkpoint_interval = 100;
    deploy::PbftDeployment d(spec);

    constexpr int kWaves = 100;
    constexpr int kPerWave = 100;  // paced at one checkpoint window per wave
    for (int wave = 0; wave < kWaves; ++wave) {
        for (int i = 0; i < kPerWave; ++i) {
            d.submit(0, request_body(0, static_cast<std::uint32_t>(wave * kPerWave + i)));
        }
        d.run();
    }

    const std::uint64_t total = static_cast<std::uint64_t>(kWaves) * kPerWave;
    for (baseline::ReplicaId r = 0; r < 4; ++r) {
        const auto& rep = d.replica(r);
        EXPECT_EQ(rep.app().applied(), total) << "replica " << int(r);
        EXPECT_GT(rep.checkpoints_taken(), 0u) << "replica " << int(r);
        EXPECT_GT(rep.log_slots_truncated(), 0u) << "replica " << int(r);
        EXPECT_LT(rep.log_slots_retained(), 2 * spec.checkpoint_interval)
            << "replica " << int(r) << ": slot map high-water mark is unbounded";
        // Everything committed and stable-checkpointed must be gone; only
        // the tail above the last stable watermark may remain.
        EXPECT_GE(rep.log_slots_truncated(), total - 2 * spec.checkpoint_interval)
            << "replica " << int(r);
    }
    // And the replicated app converged on every replica.
    const auto& app0 = d.replica(0).app();
    EXPECT_EQ(app0.applied(), total);
    for (baseline::ReplicaId r = 1; r < 4; ++r) {
        EXPECT_TRUE(d.replica(r).app().state_equals(app0)) << "replica " << int(r);
    }
}

// ---------------------------------------------------------------------------
// FS-NewTOP verify-memo boundedness under sustained load

std::int64_t gauge_of(const std::string& metrics_json, const std::string& name) {
    const std::string key = "\"" + name + "\":";
    const auto pos = metrics_json.find(key);
    if (pos == std::string::npos) return -1;
    return std::stoll(metrics_json.substr(pos + key.size()));
}

TEST(FsNewTopMemoBoundedness, ThreeTimesTheRunKeepsTheSameHighWater) {
    // The verify memo used to keep one verdict per verified message for the
    // whole run. Bounded by a window, its high-water mark must not depend
    // on the run length once the run has filled both generations.
    const auto run = [](Duration length) {
        scenario::Scenario s;
        s.name = "memo-soak";
        s.system = scenario::SystemKind::kFsNewTop;
        s.group_size = 4;
        s.seed = 5;
        s.workload.msgs_per_member = 0;
        s.obs.enabled = true;  // exports the crypto.memo_high_water gauge
        scenario::LoadSpec load;
        load.rate = 200.0;
        load.duration = length;
        s.timeline.push_back(scenario::ScenarioEvent::load(10 * kMillisecond, load));
        return scenario::run_scenario(s);
    };
    const auto short_run = run(1 * kSecond);
    const auto long_run = run(3 * kSecond);
    ASSERT_TRUE(short_run.all_invariants_passed());
    ASSERT_TRUE(long_run.all_invariants_passed());

    const auto calls = [](const scenario::ScenarioReport& r) {
        return static_cast<double>(r.metrics.verify_ops + r.metrics.verify_cache_hits);
    };
    // The short run already verifies more than both generations hold.
    EXPECT_GT(short_run.metrics.verify_ops, 2 * crypto::KeyService::kMemoWindow);
    EXPECT_GT(calls(long_run) / calls(short_run), 2.5);
    EXPECT_LT(calls(long_run) / calls(short_run), 3.5);

    const auto high_water = gauge_of(short_run.metrics_json, "crypto.memo_high_water");
    EXPECT_GT(high_water, 0);
    EXPECT_LE(high_water, static_cast<std::int64_t>(2 * crypto::KeyService::kMemoWindow));
    EXPECT_EQ(gauge_of(long_run.metrics_json, "crypto.memo_high_water"), high_water);
}

// ---------------------------------------------------------------------------
// Scenario-level: the crash -> recover -> rejoin arc under the checkers

namespace sc = failsig::scenario;

sc::Scenario recovery_scenario(sc::SystemKind system) {
    sc::Scenario s;
    s.name = "recovery-arc";
    s.system = system;
    s.group_size = system == sc::SystemKind::kPbft ? 4 : 3;
    s.seed = 21;
    s.checkpoint_interval = 3;
    s.workload.msgs_per_member = 4;
    const int victim = s.group_size - 1;
    s.timeline.push_back(sc::ScenarioEvent::crash(600 * kMillisecond, victim));
    // Traffic the victim misses while down — recovered via state transfer.
    s.timeline.push_back(sc::ScenarioEvent::burst(1500 * kMillisecond, 0, 3));
    s.timeline.push_back(sc::ScenarioEvent::recover(4 * kSecond, victim));
    // Post-rejoin traffic the recovered member must deliver like anyone else.
    s.timeline.push_back(sc::ScenarioEvent::burst(8 * kSecond, 0, 2));
    s.deadline = 11 * kSecond;
    if (system == sc::SystemKind::kNewTop) {
        // Plain NewTOP only excludes a crashed member when suspectors run.
        s.start_suspectors = true;
        s.suspector.ping_interval = 50 * kMillisecond;
        s.suspector.suspect_timeout = 300 * kMillisecond;
    }
    if (system == sc::SystemKind::kFsNewTop) {
        s.placement = fsnewtop::Placement::kFull;  // host crashes need it
    }
    return s;
}

class RecoveryScenario : public ::testing::TestWithParam<sc::SystemKind> {};

TEST_P(RecoveryScenario, RejoinPassesTheRecoveryCheckers) {
    const auto report = sc::run_scenario(recovery_scenario(GetParam()));
    ASSERT_FALSE(report.skipped) << report.skip_reason;

    bool saw_rejoined = false;
    bool saw_linearizability = false;
    for (const auto& inv : report.invariants) {
        if (inv.name == "rejoined-state-matches-survivors") saw_rejoined = true;
        if (inv.name == "kv-linearizability") saw_linearizability = true;
        EXPECT_TRUE(inv.passed) << inv.name << ": " << inv.detail;
    }
    EXPECT_TRUE(saw_rejoined)
        << "recovery scenarios must run the rejoined-state checker";
    EXPECT_TRUE(saw_linearizability)
        << "recovery scenarios must run the KV-linearizability checker";

    EXPECT_GE(report.recovery.rejoins_completed, 1u);
    EXPECT_GT(report.recovery.checkpoints_taken, 0u);
    EXPECT_EQ(report.recovery.flush_eviction_gaps, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, RecoveryScenario,
                         ::testing::Values(sc::SystemKind::kNewTop,
                                           sc::SystemKind::kFsNewTop,
                                           sc::SystemKind::kPbft),
                         [](const auto& info) {
                             switch (info.param) {
                                 case sc::SystemKind::kNewTop: return std::string("NewTop");
                                 case sc::SystemKind::kFsNewTop: return std::string("FsNewTop");
                                 case sc::SystemKind::kPbft: return std::string("Pbft");
                             }
                             return std::string("Unknown");
                         });

TEST(RecoveryScenario_Gating, NonRecoveryRunsCarryNoRecoverySurface) {
    // The byte-identity contract: a scenario without a recover event must
    // produce a report with no recovery checkers and no app-state trace
    // records — its JSON stays byte-identical to the pre-recovery era.
    sc::Scenario s;
    s.name = "plain";
    s.system = sc::SystemKind::kFsNewTop;
    s.group_size = 3;
    s.workload.msgs_per_member = 3;
    EXPECT_FALSE(s.has_recovery());

    const auto report = sc::run_scenario(s);
    for (const auto& inv : report.invariants) {
        EXPECT_NE(inv.name, "rejoined-state-matches-survivors");
        EXPECT_NE(inv.name, "kv-linearizability");
    }
    EXPECT_EQ(report.trace.canonical().find("app_state"), std::string::npos)
        << "app-state records must only appear on recovery runs";
    EXPECT_EQ(report.recovery.checkpoints_taken, 0u);
    EXPECT_EQ(report.recovery.rejoins_completed, 0u);
}

TEST(ExplorerChurn, GrammarDrawsWellFormedChurnArcs) {
    // The CI churn campaign (explore_cli --churn --seed 7) is only a gate if
    // the grammar actually draws crash -> recover arcs at that seed. Episode
    // generation is pure, so assert it statically: across the campaign's
    // cells some episodes contain a recover event, every recover is paired
    // with an earlier crash of the same member, and churn episodes run with
    // periodic checkpoints on.
    explore::ExploreConfig config;
    config.systems = {sc::SystemKind::kFsNewTop, sc::SystemKind::kPbft};
    config.group_sizes = {3, 4};
    config.episodes_per_cell = 6;
    config.seed = 7;
    config.grammar.churn = true;

    int churn_episodes = 0;
    for (const auto system : config.systems) {
        for (const int n : config.group_sizes) {
            for (int e = 0; e < config.episodes_per_cell; ++e) {
                const sc::Scenario s = explore::generate_episode(config, system, n, 1, e);
                EXPECT_GT(s.checkpoint_interval, 0u)
                    << "churn campaigns must run with periodic checkpoints";
                if (!s.has_recovery()) continue;
                ++churn_episodes;
                for (const auto& ev : s.timeline) {
                    if (ev.kind != sc::ScenarioEvent::Kind::kRecoverMember) continue;
                    const bool crashed_before = std::any_of(
                        s.timeline.begin(), s.timeline.end(), [&ev](const auto& other) {
                            return other.kind == sc::ScenarioEvent::Kind::kCrashMember &&
                                   other.member == ev.member && other.at < ev.at;
                        });
                    EXPECT_TRUE(crashed_before)
                        << "recover of member " << ev.member << " without a prior crash";
                    EXPECT_LE(ev.at + 5 * kSecond, s.deadline + 5 * kSecond)
                        << "rejoin scheduled past the episode deadline";
                }
            }
        }
    }
    EXPECT_GT(churn_episodes, 0)
        << "the pinned campaign seed never draws a churn arc — the CI gate is vacuous";
}

// ---------------------------------------------------------------------------
// Reproducer specs: the recover event and checkpoint_interval round-trip

TEST(ReproSpec, RecoverEventAndCheckpointIntervalRoundTrip) {
    sc::Scenario s = recovery_scenario(sc::SystemKind::kFsNewTop);
    s.checkpoint_interval = 7;

    const std::string text = explore::to_spec(s);
    EXPECT_NE(text.find("recover"), std::string::npos);
    EXPECT_NE(text.find("checkpoint_interval = 7"), std::string::npos);

    const auto parsed = explore::parse_spec(text);
    ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
    EXPECT_TRUE(parsed.value().scenario.has_recovery());
    EXPECT_EQ(parsed.value().scenario.checkpoint_interval, 7u);
    // Canonical specs round-trip byte-identically.
    EXPECT_EQ(explore::to_spec(parsed.value().scenario), text);
}

TEST(ReproSpec, PreRecoverySpecsOmitTheCheckpointKey) {
    // Specs written before this PR never carried checkpoint_interval; a
    // scenario with the default 0 must render without the key so old spec
    // fixtures and new renderings stay byte-identical.
    sc::Scenario s;
    s.system = sc::SystemKind::kNewTop;
    const std::string text = explore::to_spec(s);
    EXPECT_EQ(text.find("checkpoint_interval"), std::string::npos);
    const auto parsed = explore::parse_spec(text);
    ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
    EXPECT_EQ(parsed.value().scenario.checkpoint_interval, 0u);
}

}  // namespace
}  // namespace failsig
