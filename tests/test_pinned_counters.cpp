// Pinned simulator counters: the deterministic numbers behind the paper's
// cost comparison — real verifies against memo hits, body encodes per
// fan-out, network messages and bytes per stack, batching amortization,
// checkpoint and rejoin counts, span-stage counts — asserted here so that
// any change in simulator behaviour fails ctest on every build.
//
// Each cell is seeded with scenario::derive_cell_seed(42, system, n).
// Counts and verdicts are exact. Simulated-time floats (mean latency,
// throughput) follow from the same counts and are held within 1e-6
// relative of their full-precision values; ratios and per-message
// quotients follow from the pinned counts and are not restated. A change
// that alters simulator behaviour on purpose refreshes these constants and
// says why in CHANGES.md, as for ScenarioEngine.CanonicalTraceHashesArePinned.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "crypto/envelope.hpp"
#include "crypto/keys.hpp"
#include "net/network.hpp"
#include "orb/orb.hpp"
#include "scenario/runner.hpp"
#include "sim/simulation.hpp"

namespace failsig {
namespace {

using scenario::Scenario;
using scenario::ScenarioEvent;
using scenario::SystemKind;

constexpr std::uint64_t kSeed = 42;

/// The cell `<prefix>/<system>/n<n>` with its derived seed.
Scenario cell(const std::string& prefix, SystemKind system, int n) {
    Scenario s;
    s.name = prefix + "/" + scenario::name_of(system) + "/n" + std::to_string(n);
    s.system = system;
    s.group_size = n;
    s.seed = scenario::derive_cell_seed(kSeed, system, n);
    return s;
}

void expect_close(double got, double want, const std::string& what) {
    EXPECT_NEAR(got, want, 1e-6 * std::abs(want)) << what;
}

TEST(PinnedCounters, EnvelopeVerifiesEachSignatureOnceThenHitsTheMemo) {
    // A two-signature RSA-512 envelope verified 51 times through a cold
    // KeyService: one real verify per signature, then 100 memo hits.
    crypto::KeyService keys(crypto::KeyService::Backend::kRsa, 512, kSeed);
    keys.register_principal("A");
    keys.register_principal("B");
    crypto::SignedEnvelope env{
        bytes_of("perf-regression crypto probe payload (64ish bytes) ........")};
    env.add_signature(keys.signer("A"));
    env.add_signature(keys.signer("B"));

    // Same seed, same registration order: the same keys.
    crypto::KeyService cold(crypto::KeyService::Backend::kRsa, 512, kSeed);
    cold.register_principal("A");
    cold.register_principal("B");
    for (int i = 0; i < 51; ++i) EXPECT_TRUE(env.verify_chain(cold)) << "verify " << i;
    EXPECT_EQ(cold.verify_ops(), 2u);
    EXPECT_EQ(cold.verify_cache_hits(), 100u);
}

class CountingServant final : public orb::Servant {
public:
    void dispatch(const orb::Request&) override { ++count; }
    std::uint64_t count{0};
};

TEST(PinnedCounters, MessagePlaneEncodesOneBodyPerFanout) {
    // 200 fan-outs of a 1 KiB body to 8 receivers.
    sim::Simulation sim;
    net::SimNetwork net(sim, Rng(kSeed));
    orb::OrbDomain domain(sim, net, sim::CostModel{});
    orb::Orb& sender = domain.create_orb(NodeId{0});
    std::vector<CountingServant> servants(8);
    std::vector<orb::ObjectRef> targets;
    for (std::uint32_t i = 0; i < servants.size(); ++i) {
        targets.push_back(domain.create_orb(NodeId{i + 1}).activate("sink", &servants[i]));
    }
    for (int m = 0; m < 200; ++m) sender.invoke_fanout(targets, "bench", Bytes(1024, 0x42));
    sim.run();

    std::uint64_t deliveries = 0;
    for (const auto& s : servants) deliveries += s.count;
    EXPECT_EQ(deliveries, 1600u);
    EXPECT_EQ(net.bytes_sent(), 1718400u);
    EXPECT_EQ(net.payload_bytes_copied(), 226000u);
    EXPECT_EQ(net.payload_bodies_encoded(), 200u);
}

TEST(PinnedCounters, PaperWorkloadCells) {
    // 10 messages of 64 bytes per member, fault-free. PBFT's n=3 cell is
    // below its group-size floor (DeploymentConformance covers that).
    const struct {
        SystemKind system;
        int n;
        double throughput_msg_s;
        double mean_latency_ms;
        std::uint64_t deliveries;
        std::uint64_t network_messages;
        std::uint64_t network_bytes;
        std::uint64_t payload_bytes_copied;
        std::uint64_t payload_bodies_encoded;
    } pins[] = {
        {SystemKind::kNewTop, 3, 38.35390167849458, 6.6307444444444448, 90, 330, 43290, 29250,
         210},
        {SystemKind::kNewTop, 4, 50.781011964006424, 7.3322187500000009, 160, 760, 96360, 50840,
         360},
        {SystemKind::kFsNewTop, 3, 38.082423057637747, 13.826511111111115, 90, 2141, 559600,
         336727, 1391},
        {SystemKind::kFsNewTop, 4, 50.286001634295054, 14.86749375, 160, 4730, 1303124, 656280,
         2690},
        {SystemKind::kPbft, 4, 50.588726302343524, 10.385399999999997, 160, 1210, 150380, 70980,
         510},
    };
    for (const auto& pin : pins) {
        Scenario s = cell("perf", pin.system, pin.n);
        s.workload.msgs_per_member = 10;
        s.workload.payload_size = 64;
        const auto report = scenario::run_scenario(s);
        const auto& m = report.metrics;
        SCOPED_TRACE(s.name);
        expect_close(m.throughput_msg_s, pin.throughput_msg_s, "throughput_msg_s");
        expect_close(m.mean_latency_ms, pin.mean_latency_ms, "mean_latency_ms");
        EXPECT_EQ(m.observed_deliveries, pin.deliveries);
        EXPECT_EQ(m.expected_deliveries, pin.deliveries);
        EXPECT_EQ(m.network_messages, pin.network_messages);
        EXPECT_EQ(m.network_bytes, pin.network_bytes);
        EXPECT_EQ(m.payload_bytes_copied, pin.payload_bytes_copied);
        EXPECT_EQ(m.payload_bodies_encoded, pin.payload_bodies_encoded);
        EXPECT_TRUE(report.all_invariants_passed());
    }
}

TEST(PinnedCounters, TcpCellsDeliverEveryOfferedRequest) {
    // n=4 on localhost sockets under a 200/s load for 250 ms from 10 ms.
    // The Poisson arrivals are a pure function of the seed, so the offered
    // count is fixed, and a fault-free run delivers all of it.
    const struct {
        SystemKind system;
        std::uint64_t offered;
        std::uint64_t deliveries;
    } pins[] = {
        {SystemKind::kNewTop, 52, 208},
        {SystemKind::kFsNewTop, 35, 140},
        {SystemKind::kPbft, 54, 216},
    };
    for (const auto& pin : pins) {
        Scenario s = cell("tcp", pin.system, 4);
        s.backend = deploy::Backend::kTcp;
        s.workload.msgs_per_member = 0;
        scenario::LoadSpec load;
        load.rate = 200.0;
        load.duration = 250 * kMillisecond;
        s.timeline.push_back(ScenarioEvent::load(10 * kMillisecond, load));
        const auto report = scenario::run_scenario(s);
        SCOPED_TRACE(s.name);
        EXPECT_EQ(report.metrics.messages_sent, pin.offered);
        EXPECT_EQ(report.metrics.observed_deliveries, pin.deliveries);
        EXPECT_EQ(report.metrics.expected_deliveries, pin.deliveries);
        EXPECT_TRUE(report.all_invariants_passed());
    }
}

TEST(PinnedCounters, BatchingAmortizesFsNewTopVerifies) {
    // FS-NewTOP n=4 under dense load (16 messages per member, 1 ms apart),
    // unbatched and in batches of up to 8. Both runs share one seed, so
    // they face the same network schedule.
    const struct {
        std::size_t batch;
        double throughput_msg_s;
        double mean_latency_ms;
        std::uint64_t verify_ops;
        std::uint64_t verify_cache_hits;
        std::uint64_t requests_batched;
        std::uint64_t batches_formed;
        std::uint64_t network_messages;
        std::uint64_t network_bytes;
    } pins[] = {
        {1, 196.10006005564341, 230.5961289062499, 4076, 7552, 0, 0, 7404, 2052394},
        {8, 1155.0887072030609, 33.696218750000007, 523, 944, 64, 8, 939, 411767},
    };
    std::uint64_t verify_ops[2] = {};
    double delivered_per_round[2] = {};
    for (int i = 0; i < 2; ++i) {
        const auto& pin = pins[i];
        Scenario s = cell("batch", SystemKind::kFsNewTop, 4);
        s.name += "/b" + std::to_string(pin.batch);
        s.workload.msgs_per_member = 16;
        s.workload.payload_size = 64;
        s.workload.send_interval = 1 * kMillisecond;
        s.batch.max_requests = pin.batch;
        s.batch.max_bytes = 1 << 20;
        s.batch.flush_after = 20 * kMillisecond;
        const auto report = scenario::run_scenario(s);
        const auto& m = report.metrics;
        SCOPED_TRACE(s.name);
        expect_close(m.throughput_msg_s, pin.throughput_msg_s, "throughput_msg_s");
        expect_close(m.mean_latency_ms, pin.mean_latency_ms, "mean_latency_ms");
        EXPECT_EQ(m.verify_ops, pin.verify_ops);
        EXPECT_EQ(m.verify_cache_hits, pin.verify_cache_hits);
        EXPECT_EQ(m.requests_submitted, 64u);
        EXPECT_EQ(m.requests_batched, pin.requests_batched);
        EXPECT_EQ(m.batches_formed, pin.batches_formed);
        EXPECT_EQ(m.flushes_on_deadline, 0u);
        EXPECT_EQ(m.observed_deliveries, 256u);
        EXPECT_EQ(m.expected_deliveries, 256u);
        EXPECT_EQ(m.network_messages, pin.network_messages);
        EXPECT_EQ(m.network_bytes, pin.network_bytes);
        EXPECT_TRUE(report.all_invariants_passed());

        // One protocol round orders a batch frame when batching is on and a
        // bare request when it is off.
        const std::uint64_t rounds = m.batches_formed > 0 ? m.batches_formed : m.messages_sent;
        verify_ops[i] = m.verify_ops;
        delivered_per_round[i] =
            static_cast<double>(m.observed_deliveries) / static_cast<double>(rounds);
    }
    // Batches of 8 must cut signature verifies at least 4x and at least
    // double the requests delivered per round.
    EXPECT_GE(verify_ops[0], 4 * verify_ops[1]);
    EXPECT_GE(delivered_per_round[1], 2 * delivered_per_round[0]);
}

TEST(PinnedCounters, RecoveryCells) {
    // Per stack: crash the last member at 0.6 s, a burst it misses, recover
    // it at 4 s, then a burst after the rejoin; checkpoints every 3
    // requests. No cell may evict a flush-log entry a merge later needs.
    const struct {
        SystemKind system;
        int n;
        std::uint64_t checkpoints_taken;
        std::uint64_t log_slots_truncated;
        std::uint64_t log_slots_retained;
        std::uint64_t state_transfers_served;
    } pins[] = {
        {SystemKind::kNewTop, 3, 15, 0, 0, 0},
        {SystemKind::kFsNewTop, 3, 15, 0, 0, 0},
        {SystemKind::kPbft, 4, 27, 80, 4, 3},
    };
    for (const auto& pin : pins) {
        Scenario s = cell("recovery", pin.system, pin.n);
        s.checkpoint_interval = 3;
        s.workload.msgs_per_member = 4;
        const int victim = pin.n - 1;
        s.timeline.push_back(ScenarioEvent::crash(600 * kMillisecond, victim));
        s.timeline.push_back(ScenarioEvent::burst(1500 * kMillisecond, 0, 3));
        s.timeline.push_back(ScenarioEvent::recover(4 * kSecond, victim));
        s.timeline.push_back(ScenarioEvent::burst(8 * kSecond, 0, 2));
        s.deadline = 11 * kSecond;
        if (pin.system == SystemKind::kNewTop) {
            s.start_suspectors = true;
            s.suspector.ping_interval = 50 * kMillisecond;
            s.suspector.suspect_timeout = 300 * kMillisecond;
        }
        if (pin.system == SystemKind::kFsNewTop) s.placement = fsnewtop::Placement::kFull;
        const auto report = scenario::run_scenario(s);
        const auto& r = report.recovery;
        SCOPED_TRACE(s.name);
        EXPECT_EQ(r.checkpoints_taken, pin.checkpoints_taken);
        EXPECT_EQ(r.log_slots_truncated, pin.log_slots_truncated);
        EXPECT_EQ(r.log_slots_retained, pin.log_slots_retained);
        EXPECT_EQ(r.state_transfers_served, pin.state_transfers_served);
        EXPECT_EQ(r.rejoins_completed, 1u);
        EXPECT_EQ(r.flush_log_evictions, 0u);
        EXPECT_EQ(r.flush_eviction_gaps, 0u);
        EXPECT_TRUE(report.all_invariants_passed());
    }
}

TEST(PinnedCounters, ObsLeavesTheTraceUnchangedAndCountsEveryStage) {
    // FS-NewTOP n=4, the stack that also feeds the crypto and holdback
    // instruments. Tracing only records, so the canonical trace is the same
    // with obs on and off.
    Scenario s = cell("obs", SystemKind::kFsNewTop, 4);
    s.workload.msgs_per_member = 10;
    s.workload.payload_size = 64;
    const auto off = scenario::run_scenario(s);
    s.obs.enabled = true;
    const auto on = scenario::run_scenario(s);
    EXPECT_TRUE(off.trace.canonical() == on.trace.canonical());
    EXPECT_TRUE(on.all_invariants_passed());

    std::vector<std::pair<std::string, std::uint64_t>> stages;
    for (const auto& counter : on.obs_counters) {
        if (counter.first.starts_with("span.stage.")) stages.push_back(counter);
    }
    const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
        {"span.stage.batched", 40},  {"span.stage.delivered", 160}, {"span.stage.encoded", 40},
        {"span.stage.net_send", 40}, {"span.stage.ordered", 160},   {"span.stage.receive", 120},
        {"span.stage.submit", 40},
    };
    EXPECT_EQ(stages, pinned);
}

}  // namespace
}  // namespace failsig
