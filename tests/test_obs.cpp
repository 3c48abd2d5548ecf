// Observability tests: histogram bucket geometry (zero/overflow/boundary),
// registry snapshot determinism, flight-recorder ring wraparound, span
// latency attribution through batch links, and the cross-stack contract —
// one obs-enabled run on each of the three systems stamps every lifecycle
// stage, and sweep exports are byte-identical at any worker count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace failsig::obs {
namespace {

using scenario::Scenario;
using scenario::SystemKind;

// --- histogram geometry --------------------------------------------------------

TEST(ObsHistogram, ZeroAndNegativeSamplesLandInTheZeroBucket) {
    Histogram h;
    h.add(0);
    h.add(-5);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.zero_count(), 2u);
    EXPECT_EQ(h.sum(), -5);
    EXPECT_EQ(h.min(), -5);
    EXPECT_EQ(h.max(), 0);
    EXPECT_TRUE(h.buckets().empty()) << "zero bucket is not a log-linear bucket";
}

TEST(ObsHistogram, SmallValuesAreExact) {
    // 1..3 get dedicated buckets (indices 1..3): sub-microsecond noise never
    // merges with real latencies.
    EXPECT_EQ(Histogram::index_of(1), 1u);
    EXPECT_EQ(Histogram::index_of(2), 2u);
    EXPECT_EQ(Histogram::index_of(3), 3u);
    EXPECT_EQ(Histogram::lower_bound_of(1), 1u);
    EXPECT_EQ(Histogram::lower_bound_of(3), 3u);
}

TEST(ObsHistogram, OctaveBoundariesSplitIntoFourSubBuckets) {
    // Octave [8,16) = indices 8..11 with width-2 sub-buckets; 16 opens the
    // next octave. The [14,16) bucket is the canonical boundary case.
    EXPECT_EQ(Histogram::index_of(8), 8u);
    EXPECT_EQ(Histogram::index_of(9), 8u);
    EXPECT_EQ(Histogram::index_of(10), 9u);
    EXPECT_EQ(Histogram::index_of(14), 11u);
    EXPECT_EQ(Histogram::index_of(15), 11u);
    EXPECT_EQ(Histogram::index_of(16), 12u);
    EXPECT_EQ(Histogram::lower_bound_of(11), 14u);
    EXPECT_EQ(Histogram::lower_bound_of(12), 16u);
}

TEST(ObsHistogram, EverySampleFallsInsideItsBucketBounds) {
    // The log-linear invariant: lower_bound(index(v)) <= v < lower_bound of
    // the next bucket, at every magnitude up to the overflow cut.
    for (std::uint64_t v : {1ull, 3ull, 4ull, 7ull, 8ull, 15ull, 16ull, 100ull, 1023ull,
                            1024ull, 123456789ull, (1ull << 39), (1ull << 40) - 1}) {
        const std::size_t idx = Histogram::index_of(v);
        EXPECT_LE(Histogram::lower_bound_of(idx), v) << "v=" << v;
        EXPECT_GT(Histogram::lower_bound_of(idx + 1), v) << "v=" << v;
    }
}

TEST(ObsHistogram, HugeSamplesOverflowInsteadOfIndexingOutOfRange) {
    Histogram h;
    h.add(std::int64_t{1} << 40);        // exactly the cut
    h.add((std::int64_t{1} << 40) + 7);  // beyond it
    h.add(5);                            // one ordinary sample
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.overflow_count(), 2u);
    ASSERT_EQ(h.buckets().size(), 1u);
    EXPECT_EQ(h.buckets()[0].first, 5u);  // octave [4,8) has exact width-1 sub-buckets
    EXPECT_EQ(h.buckets()[0].second, 1u);
    EXPECT_EQ(h.max(), (std::int64_t{1} << 40) + 7);
}

// --- registry determinism ------------------------------------------------------

TEST(ObsRegistry, SnapshotOrderIsIndependentOfRegistrationOrder) {
    MetricsRegistry a;
    a.counter("z.last").inc(3);
    a.counter("a.first").inc(1);
    a.gauge("m.middle").set(-7);
    a.histogram("h.lat").add(12);

    MetricsRegistry b;
    b.histogram("h.lat").add(12);
    b.gauge("m.middle").set(-7);
    b.counter("a.first").inc(1);
    b.counter("z.last").inc(3);

    EXPECT_EQ(a.to_json("run", 500), b.to_json("run", 500));

    const auto snap = a.counter_snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].first, "a.first");
    EXPECT_EQ(snap[1].first, "z.last");
}

TEST(ObsRegistry, JsonCarriesTheFormatTagAndSimTickTimestamp) {
    MetricsRegistry m;
    m.counter("c").inc(9);
    const std::string json = m.to_json("my/scenario", 1234);
    EXPECT_NE(json.find("\"format\":\"failsig-metrics-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"scenario\":\"my/scenario\""), std::string::npos);
    EXPECT_NE(json.find("\"finished_at_us\":1234"), std::string::npos);
    EXPECT_NE(json.find("\"c\":9"), std::string::npos);
}

// --- span tracker --------------------------------------------------------------

TEST(ObsSpan, StageLatencyIsMeasuredFromTheSubmitStamp) {
    MetricsRegistry m;
    SpanTracker t(m);
    t.stamp(Stage::kSubmit, 77, 0, 100);
    t.stamp(Stage::kNetSend, 77, 0, 130);
    t.stamp(Stage::kOrdered, 77, 1, 150);
    t.stamp(Stage::kDelivered, 77, 1, 160);
    EXPECT_EQ(m.histogram("span.send_latency_us").sum(), 30);
    EXPECT_EQ(m.histogram("span.order_latency_us").sum(), 50);
    EXPECT_EQ(m.histogram("span.e2e_latency_us").sum(), 60);
    EXPECT_EQ(t.stamps(Stage::kSubmit), 1u);
    EXPECT_EQ(t.stamps(Stage::kDelivered), 1u);
}

TEST(ObsSpan, BatchLinkAttributesTheUnitToTheEarliestSubmit) {
    MetricsRegistry m;
    SpanTracker t(m);
    t.stamp(Stage::kSubmit, 1, 0, 100);  // early request
    t.stamp(Stage::kSubmit, 2, 0, 300);  // late request, same batch
    t.link(42, 2, 0, 400);               // flush: unit 42 carries both
    t.link(42, 1, 0, 400);
    // Batch wait is per-request (100 + 300)...
    EXPECT_EQ(m.histogram("span.batch_wait_us").sum(), 400);
    EXPECT_EQ(m.histogram("span.batch_wait_us").count(), 2u);
    // ...and later stages measured on the unit key inherit the EARLIEST
    // submit, no matter the link order.
    t.stamp(Stage::kOrdered, 42, 1, 600);
    EXPECT_EQ(m.histogram("span.order_latency_us").sum(), 500);
}

TEST(ObsSpan, UntrackedKeysCountButAddNoLatencySample) {
    MetricsRegistry m;
    SpanTracker t(m);
    t.stamp(Stage::kOrdered, 999, 0, 50);  // never submitted: protocol-internal
    EXPECT_EQ(t.stamps(Stage::kOrdered), 1u);
    EXPECT_EQ(m.histogram("span.order_latency_us").count(), 0u);
}

// --- flight recorder -----------------------------------------------------------

TEST(ObsFlightRecorder, RingWrapsKeepingTheNewestEvents) {
    FlightRecorder r(4);
    for (int i = 0; i < 10; ++i) {
        r.record(0, i * 10, "event " + std::to_string(i));
    }
    EXPECT_EQ(r.recorded(), 10u);
    const auto events = r.events(0);
    ASSERT_EQ(events.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].what, "event " + std::to_string(6 + i)) << "oldest-first";
        EXPECT_EQ(events[i].at, (6 + i) * 10);
    }
    const std::string dump = r.dump();
    EXPECT_NE(dump.find("capacity 4"), std::string::npos);
    EXPECT_NE(dump.find("4 retained of 10 seen"), std::string::npos);
    EXPECT_NE(dump.find("event 9"), std::string::npos);
    EXPECT_EQ(dump.find("event 5"), std::string::npos) << "overwritten events are gone";
}

TEST(ObsFlightRecorder, GlobalAndPerNodeRingsAreSeparate) {
    FlightRecorder r(8);
    r.record(-1, 5, "scenario event: crash");
    r.record(2, 7, "delivered span=1");
    EXPECT_EQ(r.events(-1).size(), 1u);
    EXPECT_EQ(r.events(2).size(), 1u);
    EXPECT_TRUE(r.events(0).empty());
    const std::string dump = r.dump();
    EXPECT_NE(dump.find("node * (run-global)"), std::string::npos);
    EXPECT_NE(dump.find("node 2"), std::string::npos);
}

// --- the cross-stack lifecycle contract ----------------------------------------

Scenario obs_scenario(SystemKind system, int n) {
    Scenario s;
    s.name = "obs/conformance";
    s.system = system;
    s.group_size = n;
    s.seed = 7;
    s.workload.msgs_per_member = 4;
    s.obs.enabled = true;
    return s;
}

std::uint64_t counter_value(const scenario::ScenarioReport& report, const std::string& name) {
    for (const auto& [n, v] : report.obs_counters) {
        if (n == name) return v;
    }
    return 0;
}

TEST(ObsConformance, EveryStackStampsAllSevenLifecycleStages) {
    // The span contract that makes cross-stack latency attribution
    // comparable: submit/batched/encoded/net_send/receive/ordered/delivered
    // all fire on NewTOP, FS-NewTOP and PBFT alike.
    const struct {
        SystemKind system;
        int n;
    } cells[] = {{SystemKind::kNewTop, 3}, {SystemKind::kFsNewTop, 3},
                 {SystemKind::kPbft, 4}};
    for (const auto& cell : cells) {
        const auto report = scenario::run_scenario(obs_scenario(cell.system, cell.n));
        ASSERT_TRUE(report.all_invariants_passed()) << scenario::name_of(cell.system);
        for (int stage = 0; stage < kStageCount; ++stage) {
            const std::string name =
                std::string("span.stage.") + stage_name(static_cast<Stage>(stage));
            EXPECT_GT(counter_value(report, name), 0u)
                << scenario::name_of(cell.system) << " never stamped " << name;
        }
        // End-to-end latency must actually be attributed, not just counted:
        // the e2e histogram appears in the export with a nonzero count.
        EXPECT_NE(report.metrics_json.find("\"span.e2e_latency_us\""), std::string::npos);
        EXPECT_EQ(report.metrics_json.find("\"span.e2e_latency_us\":{\"count\":0"),
                  std::string::npos)
            << "no e2e samples on " << scenario::name_of(cell.system);
        EXPECT_FALSE(report.flight_dump.empty());
    }
}

TEST(ObsConformance, DisabledObsProducesNoArtifacts) {
    Scenario s = obs_scenario(SystemKind::kNewTop, 3);
    s.obs.enabled = false;
    const auto report = scenario::run_scenario(s);
    EXPECT_TRUE(report.metrics_json.empty());
    EXPECT_TRUE(report.flight_dump.empty());
    EXPECT_TRUE(report.obs_counters.empty());
}

TEST(ObsConformance, ObsNeverChangesTheTrace) {
    // Stamps are recording-only: the protocol state machines and the
    // schedule are untouched, so the canonical trace is byte-identical with
    // observability on and off.
    Scenario s = obs_scenario(SystemKind::kFsNewTop, 3);
    const auto with_obs = scenario::run_scenario(s);
    s.obs.enabled = false;
    const auto without = scenario::run_scenario(s);
    EXPECT_EQ(with_obs.trace.canonical(), without.trace.canonical());
}

TEST(ObsConformance, MetricsExportIsByteIdenticalAcrossJobCounts) {
    // The determinism guarantee --metrics-out relies on: snapshots are
    // sim-tick stamped and name-ordered, so a 4-worker sweep exports the
    // same bytes as a serial one.
    std::vector<Scenario> scenarios;
    scenarios.push_back(obs_scenario(SystemKind::kNewTop, 3));
    scenarios.push_back(obs_scenario(SystemKind::kFsNewTop, 3));
    scenarios.push_back(obs_scenario(SystemKind::kPbft, 4));
    scenarios.push_back(obs_scenario(SystemKind::kFsNewTop, 5));

    const auto serial = scenario::run_scenarios(scenarios, 1);
    const auto parallel = scenario::run_scenarios(scenarios, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].metrics_json.empty());
        EXPECT_EQ(serial[i].metrics_json, parallel[i].metrics_json) << scenarios[i].name;
        EXPECT_EQ(serial[i].flight_dump, parallel[i].flight_dump) << scenarios[i].name;
        EXPECT_EQ(serial[i].obs_counters, parallel[i].obs_counters) << scenarios[i].name;
    }
}

// --- the façade ----------------------------------------------------------------

TEST(ObsFacade, CryptoAndHoldbackFeedTheirHistograms) {
    Obs obs;
    obs.crypto_sign(120);
    obs.crypto_verify(80);
    obs.crypto_verify(90);
    obs.holdback_depth(3);
    EXPECT_EQ(obs.metrics().histogram("crypto.sign_us").count(), 1u);
    EXPECT_EQ(obs.metrics().histogram("crypto.sign_us").sum(), 120);
    EXPECT_EQ(obs.metrics().histogram("crypto.verify_us").count(), 2u);
    EXPECT_EQ(obs.metrics().histogram("gc.holdback_depth").sum(), 3);
}

TEST(ObsFacade, UnboundObsStampsAtTickZero) {
    Obs obs;
    EXPECT_EQ(obs.now(), 0);
    obs.note(1, "early event");
    const auto events = obs.flight().events(1);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].at, 0);
}

}  // namespace
}  // namespace failsig::obs
