// Schedule-space explorer tests: episode generation is pure and
// coordinate-derived, the explore report is byte-identical at any worker
// count, the delta-debugging shrinker produces 1-minimal reproducers whose
// emitted spec re-runs to the same violation, the spec codec round-trips,
// and the checked-in flush-gap fixture (the explorer's first real finding)
// still reproduces.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "explore/explore.hpp"
#include "explore/repro.hpp"
#include "explore/shrink.hpp"
#include "scenario/runner.hpp"

namespace failsig::explore {
namespace {

using scenario::Invariant;
using scenario::InvariantResult;
using scenario::ScenarioEvent;
using scenario::Trace;
using scenario::TraceEvent;

/// A deliberately weakened oracle: *any* fail-signal episode is declared a
/// violation. False by design on every scenario whose fault script contains
/// a working fault plan — a synthetic, deterministic violation source that
/// exercises the find → shrink → emit pipeline without depending on a real
/// protocol bug.
class NoFailSignalsInvariant final : public Invariant {
public:
    [[nodiscard]] std::string name() const override { return "synthetic-no-fail-signals"; }
    [[nodiscard]] bool applicable(const scenario::Scenario&) const override { return true; }
    [[nodiscard]] InvariantResult check(const scenario::Scenario&,
                                        const Trace& trace) const override {
        const auto signals = trace.count(TraceEvent::Kind::kFailSignal) +
                             trace.count(TraceEvent::Kind::kMiddlewareFailure);
        if (signals > 0) {
            return {name(), false, std::to_string(signals) + " fail-signal event(s)"};
        }
        return {name(), true, {}};
    }
};

/// Declares every scenario that recovers a member a violation, whatever the
/// run did: the shrinker may only keep the recover if it keeps its crash.
class NoRecoveryInvariant final : public Invariant {
public:
    [[nodiscard]] std::string name() const override { return "synthetic-no-recovery"; }
    [[nodiscard]] bool applicable(const scenario::Scenario&) const override { return true; }
    [[nodiscard]] InvariantResult check(const scenario::Scenario& s,
                                        const Trace&) const override {
        if (s.has_recovery()) return {name(), false, "timeline recovers a member"};
        return {name(), true, {}};
    }
};

ExploreConfig small_config() {
    ExploreConfig config;
    config.systems = {SystemKind::kNewTop, SystemKind::kFsNewTop};
    config.group_sizes = {3};
    config.batch_sizes = {1};
    config.episodes_per_cell = 4;
    config.seed = 5;
    config.workload.msgs_per_member = 4;
    config.shrink = false;
    return config;
}

// --- episode generation -------------------------------------------------------

TEST(ExploreGeneration, EpisodesArePureFunctionsOfTheirCoordinates) {
    const ExploreConfig config = small_config();
    const Scenario a = generate_episode(config, SystemKind::kFsNewTop, 3, 1, 2);
    const Scenario b = generate_episode(config, SystemKind::kFsNewTop, 3, 1, 2);
    EXPECT_EQ(to_spec(a), to_spec(b));
    // Different coordinates draw independent streams.
    EXPECT_NE(to_spec(a), to_spec(generate_episode(config, SystemKind::kFsNewTop, 3, 1, 3)));
    EXPECT_NE(derive_episode_seed(1, SystemKind::kNewTop, 3, 1, 0),
              derive_episode_seed(1, SystemKind::kNewTop, 3, 1, 1));
    EXPECT_NE(derive_episode_seed(1, SystemKind::kNewTop, 3, 1, 0),
              derive_episode_seed(1, SystemKind::kFsNewTop, 3, 1, 0));
    EXPECT_NE(derive_episode_seed(1, SystemKind::kNewTop, 3, 1, 0),
              derive_episode_seed(1, SystemKind::kNewTop, 3, 8, 0));
}

TEST(ExploreGeneration, EpisodesCarryASchedulePerturbationAndABoundedScript) {
    const ExploreConfig config = small_config();
    for (int e = 0; e < 8; ++e) {
        const Scenario s = generate_episode(config, SystemKind::kFsNewTop, 3, 1, e);
        EXPECT_NE(s.tie_break_seed, 0u) << "episodes must explore the schedule axis";
        EXPECT_LE(static_cast<int>(s.timeline.size()), config.grammar.max_fault_events);
        EXPECT_GT(s.deadline, 0) << "episodes must be time-bounded";
        EXPECT_EQ(s.placement, fsnewtop::Placement::kFull)
            << "FS episodes need host faults expressible";
        for (std::size_t i = 1; i < s.timeline.size(); ++i) {
            EXPECT_LE(s.timeline[i - 1].at, s.timeline[i].at) << "chronological timeline";
        }
    }
}

TEST(ExploreGeneration, DefaultGrammarDrawsMemberFaultsUnderDenseTraffic) {
    // Member faults under dense traffic are the flush protocol's hardest
    // axis; the default grammar must actually exercise them, or the
    // clean-smoke gate stops meaning anything for view-synchrony.
    ExploreConfig config = small_config();
    config.grammar.max_fault_events = 5;
    bool overlapped = false;
    for (int e = 0; e < 80 && !overlapped; ++e) {
        const Scenario s = generate_episode(config, SystemKind::kFsNewTop, 3, 1, e);
        bool member_fault = false;
        bool dense = false;
        for (const auto& event : s.timeline) {
            member_fault = member_fault || event.is_member_fault();
            dense = dense || event.kind == ScenarioEvent::Kind::kLoad ||
                    event.kind == ScenarioEvent::Kind::kBurst;
        }
        overlapped = member_fault && dense;
    }
    EXPECT_TRUE(overlapped) << "80 episodes never mixed member faults with dense traffic";
}

// --- determinism across job counts --------------------------------------------

TEST(ExploreEngine, ReportIsByteIdenticalForAnyJobCount) {
    ExploreConfig config = small_config();
    config.jobs = 1;
    const auto serial = explore(config);
    config.jobs = 4;
    const auto parallel = explore(config);
    ASSERT_GT(serial.episodes.size(), 0u);
    EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST(ExploreEngine, HeartbeatChunkingKeepsTheReportByteIdentical) {
    // --progress chunks the fan-out to fire the callback on cadence; the
    // episodes are independent pure functions, so the report must not move
    // by a byte — and the heartbeat must count monotonically to the total.
    ExploreConfig config = small_config();
    const auto plain = explore(config);

    std::vector<std::size_t> done_marks;
    config.progress_every = 3;
    config.progress = [&done_marks](std::size_t done, std::size_t total,
                                    std::size_t violated) {
        (void)violated;
        EXPECT_LE(done, total);
        done_marks.push_back(done);
    };
    const auto chunked = explore(config);

    EXPECT_EQ(plain.to_json(), chunked.to_json());
    ASSERT_FALSE(done_marks.empty());
    EXPECT_EQ(done_marks.back(), plain.episodes.size()) << "final beat covers every episode";
    for (std::size_t i = 1; i < done_marks.size(); ++i) {
        EXPECT_LT(done_marks[i - 1], done_marks[i]) << "heartbeat must be monotone";
    }
}

TEST(ExploreEngine, SoundDefaultGrammarFindsNoViolationsOnASmallBudget) {
    ExploreConfig config = small_config();
    config.systems = {SystemKind::kNewTop, SystemKind::kFsNewTop, SystemKind::kPbft};
    config.group_sizes = {4};
    config.episodes_per_cell = 3;
    const auto report = explore(config);
    ASSERT_EQ(report.episodes.size(), 9u);
    EXPECT_TRUE(report.clean()) << report.to_json();
}

// --- shrinker ------------------------------------------------------------------

/// A scenario that fails the synthetic oracle (the corrupt fault plan makes
/// the pair fail-signal) padded with incidental events the shrinker must
/// strip away.
Scenario noisy_failing_scenario() {
    Scenario s;
    s.name = "test/shrink";
    s.system = SystemKind::kFsNewTop;
    s.group_size = 3;
    s.seed = 21;
    s.tie_break_seed = 99;  // incidental: fails under FIFO too
    s.workload.msgs_per_member = 6;
    s.timeline.push_back(
        ScenarioEvent::delay_surge(100 * kMillisecond, 20 * kMillisecond, 1 * kSecond));
    s.timeline.push_back(ScenarioEvent::burst(200 * kMillisecond, 1, 4));
    fs::FaultPlan corrupt;
    corrupt.corrupt_outputs = true;
    corrupt.drop_outputs = true;  // a redundant second mode the shrinker can clear
    s.timeline.push_back(
        ScenarioEvent::fault(300 * kMillisecond, 2, scenario::PairNode::kFollower, corrupt));
    s.timeline.push_back(
        ScenarioEvent::delay_surge(700 * kMillisecond, 10 * kMillisecond, 2 * kSecond));
    s.deadline = 45 * kSecond;
    return s;
}

TEST(ExploreShrink, ProducesAOneMinimalReproducer) {
    const NoFailSignalsInvariant oracle;
    const std::vector<const Invariant*> checkers{&oracle};
    const Scenario failing = noisy_failing_scenario();
    ASSERT_TRUE(still_fails(failing, oracle.name(), checkers));

    const auto result = shrink(failing, oracle.name(), checkers);
    // Only the fault plan can produce a fail signal: everything else is gone.
    ASSERT_EQ(result.minimal.timeline.size(), 1u);
    EXPECT_EQ(result.minimal.timeline[0].kind, ScenarioEvent::Kind::kFaultPlan);
    EXPECT_EQ(result.minimal.tie_break_seed, 0u)
        << "the failure survives FIFO, so the perturbation must be dropped";
    // Exactly one of the two redundant fault modes survives simplification
    // (either alone keeps the pair fail-signalling; which one depends on
    // clearing order).
    EXPECT_NE(result.minimal.timeline[0].fault_plan.corrupt_outputs,
              result.minimal.timeline[0].fault_plan.drop_outputs)
        << "the redundant second fault mode must be cleared";
    EXPECT_GT(result.oracle_runs, 0);

    // 1-minimality: removing ANY remaining event makes the violation vanish.
    for (std::size_t i = 0; i < result.minimal.timeline.size(); ++i) {
        Scenario candidate = result.minimal;
        candidate.timeline.erase(candidate.timeline.begin() + static_cast<std::ptrdiff_t>(i));
        EXPECT_FALSE(still_fails(candidate, oracle.name(), checkers))
            << "event " << i << " is removable — not minimal";
    }
    // And the minimal scenario still fails, deterministically.
    EXPECT_TRUE(still_fails(result.minimal, oracle.name(), checkers));
}

TEST(ExploreShrink, EmittedReproducerRerunsToTheSameViolation) {
    const NoFailSignalsInvariant oracle;
    const std::vector<const Invariant*> checkers{&oracle};
    const auto result = shrink(noisy_failing_scenario(), oracle.name(), checkers);

    const std::string spec_text = to_spec(result.minimal, oracle.name());
    const auto parsed = parse_spec(spec_text);
    ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
    EXPECT_EQ(parsed.value().expect_violation, oracle.name());

    // The parsed scenario is the same pure function: identical trace,
    // identical verdict.
    std::string replay_trace;
    const auto replay =
        run_and_evaluate(parsed.value().scenario, checkers, &replay_trace);
    const auto* verdict = scenario::find_result(replay, oracle.name());
    ASSERT_NE(verdict, nullptr);
    EXPECT_FALSE(verdict->passed);
    EXPECT_EQ(replay_trace, result.trace);
}

TEST(ExploreShrink, NeverSplitsACrashFromItsRecover) {
    const NoRecoveryInvariant oracle;
    const std::vector<const Invariant*> checkers{&oracle};
    Scenario s;
    s.name = "test/shrink-churn";
    s.system = SystemKind::kPbft;
    s.group_size = 4;
    s.workload.msgs_per_member = 2;
    s.timeline.push_back(ScenarioEvent::crash(100 * kMillisecond, 2));
    s.timeline.push_back(ScenarioEvent::recover(1100 * kMillisecond, 2));
    ASSERT_TRUE(still_fails(s, oracle.name(), checkers));

    // Dropping the crash alone would leave a recover of a live member; the
    // crash and its recover go together or not at all.
    const auto result = shrink(s, oracle.name(), checkers);
    ASSERT_EQ(result.minimal.timeline.size(), 2u);
    EXPECT_EQ(result.minimal.timeline[0].kind, ScenarioEvent::Kind::kCrashMember);
    EXPECT_EQ(result.minimal.timeline[1].kind, ScenarioEvent::Kind::kRecoverMember);
}

// --- end-to-end pipeline -------------------------------------------------------

TEST(ExploreEngine, PipelineFindsShrinksAndEmitsUnderAWeakenedOracle) {
    // With the weakened oracle injected, ordinary sound episodes become
    // violations as soon as a fault plan fires — the full pipeline runs:
    // find on the worker pool, shrink serially, emit reproducer specs.
    const NoFailSignalsInvariant oracle;
    ExploreConfig config;
    config.systems = {SystemKind::kFsNewTop};
    config.group_sizes = {3};
    config.episodes_per_cell = 8;
    config.seed = 11;
    config.workload.msgs_per_member = 4;
    config.checkers = {&oracle};
    const auto report = explore(config);

    ASSERT_FALSE(report.violations.empty())
        << "seed 11 must draw at least one fault plan in 8 episodes";
    for (const auto& v : report.violations) {
        EXPECT_EQ(v.invariant, oracle.name());
        EXPECT_LE(v.minimal_events, v.original_events);
        const auto parsed = parse_spec(v.spec);
        ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
        EXPECT_EQ(parsed.value().expect_violation, oracle.name());
        EXPECT_TRUE(still_fails(parsed.value().scenario, oracle.name(), config.checkers));
    }
    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"format\":\"failsig-explore-report-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
}

TEST(ExploreEngine, ViolationsCarryAFlightRecorderDump) {
    // Force violations through the weakened oracle and check the forensic
    // contract: every violation record carries a flight-recorder dump from
    // an obs-enabled re-run of its minimal scenario (explore_cli writes it
    // to `<repro>.flight`), while the JSON report stays dump-free.
    const NoFailSignalsInvariant oracle;
    ExploreConfig config;
    config.systems = {SystemKind::kFsNewTop};
    config.group_sizes = {3};
    config.episodes_per_cell = 8;
    config.seed = 11;
    config.workload.msgs_per_member = 4;
    config.shrink = false;  // the dump comes from the re-run, not the shrinker
    config.checkers = {&oracle};
    const auto report = explore(config);

    ASSERT_FALSE(report.violations.empty())
        << "seed 11 must draw at least one fault plan in 8 episodes";
    for (const auto& v : report.violations) {
        ASSERT_FALSE(v.flight_dump.empty());
        EXPECT_NE(v.flight_dump.find("flight-recorder dump"), std::string::npos);
        EXPECT_NE(v.flight_dump.find("node "), std::string::npos)
            << "dump must contain per-node timelines";
    }
    EXPECT_EQ(report.to_json().find("flight-recorder"), std::string::npos)
        << "dumps are artifacts beside the report, never inside it";
}

// --- spec codec ----------------------------------------------------------------

/// The `key = value` header lines of a spec (everything but its events).
std::map<std::string, std::string> spec_header(const std::string& text) {
    std::map<std::string, std::string> header;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        const std::size_t eq = line.find(" = ");
        if (eq == std::string::npos || line.starts_with("event")) continue;
        header[line.substr(0, eq)] = line.substr(eq + 3);
    }
    return header;
}

TEST(ExploreSpec, RoundTripsEveryEventKind) {
    // Every header key and every event field away from its default, so the
    // round trip exercises each one's parse.
    Scenario s;
    s.name = "test/roundtrip";
    s.system = SystemKind::kPbft;
    s.group_size = 4;
    s.seed = 1234567890123456789ULL;
    s.tie_break_seed = 42;
    s.threads_per_node = 5;
    s.deadline = 9 * kSecond;
    s.settle = 7 * kSecond;
    s.workload.msgs_per_member = 17;
    s.workload.payload_size = 64;
    s.workload.send_interval = 3 * kMillisecond;
    s.workload.service = newtop::ServiceType::kCausalOrder;
    s.batch.max_requests = 8;
    s.batch.max_bytes = 4096;
    s.batch.flush_after = 5 * kMillisecond;
    s.start_suspectors = true;
    s.suspector.ping_interval = 100 * kMillisecond;
    s.suspector.suspect_timeout = 600 * kMillisecond;
    s.placement = fsnewtop::Placement::kFull;
    s.fs_config.delta = 700 * kMicrosecond;
    s.fs_config.kappa = 1.5;
    s.fs_config.sigma = 3.25;
    s.fs_config.t1 = 2 * kMillisecond;
    s.fs_config.t2 = 4 * kMillisecond;
    s.fs_config.compare_slack = 20 * kMillisecond;
    s.fs_config.order_link_mac = true;
    s.checkpoint_interval = 25;
    fs::FaultPlan plan;
    plan.corrupt_outputs = true;
    plan.drop_outputs = true;
    plan.misorder_inputs = true;
    plan.spontaneous_fail_signals = true;
    plan.spontaneous_interval = 30 * kMillisecond;
    plan.probability = 0.5;
    plan.extra_processing_delay = 7 * kMillisecond;
    plan.active_from = 150;
    s.timeline = {
        ScenarioEvent::crash(100, 1),
        ScenarioEvent::fault(200, 2, scenario::PairNode::kFollower, plan),
        ScenarioEvent::delay_surge(300, 50, 400),
        ScenarioEvent::partition(500, {{0, 1}, {2, 3}}),
        ScenarioEvent::heal_partition(600),
        ScenarioEvent::drop(700, 0.25),
        ScenarioEvent::burst(800, 3, 5),
        ScenarioEvent::fire_timeouts(900),
        ScenarioEvent::load(1000, scenario::LoadSpec{150.0, 250 * kMillisecond, 16}),
        ScenarioEvent::recover(1100, 1),
    };
    std::set<ScenarioEvent::Kind> kinds;
    for (const auto& e : s.timeline) kinds.insert(e.kind);
    // Kinds are numbered from 1 to the last one, kRecoverMember.
    EXPECT_EQ(kinds.size(), static_cast<std::size_t>(ScenarioEvent::Kind::kRecoverMember));

    const std::string text = to_spec(s, "agreement");
    const auto header = spec_header(text);
    const auto defaults = spec_header(to_spec(Scenario{}));
    // Two keys are written only when set: checkpoint_interval and
    // expect_violation.
    EXPECT_EQ(header.size(), defaults.size() + 2);
    for (const auto& [key, value] : header) {
        if (key == "format") continue;
        const auto it = defaults.find(key);
        EXPECT_TRUE(it == defaults.end() || it->second != value) << key << " is at its default";
    }

    const auto parsed = parse_spec(text);
    ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
    EXPECT_EQ(parsed.value().expect_violation, "agreement");
    // Canonical form is the equality oracle: serialize the parse again.
    EXPECT_EQ(to_spec(parsed.value().scenario, parsed.value().expect_violation), text);
}

TEST(ExploreSpec, DegeneratePartitionsStillRoundTrip) {
    Scenario s;
    s.system = SystemKind::kNewTop;
    s.timeline = {ScenarioEvent::partition(10, {{0, 1}, {}}),
                  ScenarioEvent::partition(20, {})};
    const std::string text = to_spec(s);
    const auto parsed = parse_spec(text);
    ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
    EXPECT_EQ(to_spec(parsed.value().scenario), text);
}

TEST(ExploreSpec, OutOfRangeIntegersAreRejectedNotTruncated) {
    const std::string good = "format = failsig-scenario-spec-v1\n";
    EXPECT_FALSE(parse_spec(good + "event = crash at=0 member=4294967296\n").has_value());
    EXPECT_FALSE(parse_spec(good + "group_size = 4294967296\n").has_value());
    EXPECT_FALSE(parse_spec(good + "msgs_per_member = 9999999999\n").has_value());
}

TEST(ExploreSpec, RejectsMalformedSpecsLoudly) {
    EXPECT_FALSE(parse_spec("").has_value()) << "missing format line";
    EXPECT_FALSE(parse_spec("format = bogus-v9\n").has_value());
    const std::string good = "format = failsig-scenario-spec-v1\n";
    EXPECT_TRUE(parse_spec(good).has_value());
    EXPECT_FALSE(parse_spec(good + "unknown_knob = 3\n").has_value());
    EXPECT_FALSE(parse_spec(good + "group_size = zero\n").has_value());
    EXPECT_FALSE(parse_spec(good + "event = warp at=5\n").has_value());
    EXPECT_FALSE(parse_spec(good + "event = crash at=5\n").has_value())
        << "crash needs a member";
    EXPECT_FALSE(parse_spec(good + "event = burst at=x member=0 messages=1\n").has_value());
    EXPECT_FALSE(parse_spec(good + "group_size = 3\ngroup_size = 4\n").has_value())
        << "a repeated header key";
    EXPECT_FALSE(parse_spec(good + "event = crash at=5 member=1 bogus=3\n").has_value())
        << "a token the event kind does not have";
    EXPECT_FALSE(parse_spec(good + "event = crash at=5 member=1 member=2\n").has_value())
        << "a repeated event token";
}

// --- the checked-in fixture ----------------------------------------------------

TEST(ExploreFixture, FlushGapScenarioNowPassesAgreement) {
    // The explorer's first real finding, minimized by the shrinker: before
    // the view-synchronous flush landed, excluding a member while its
    // multicasts were in flight violated prefix agreement between survivors
    // (the GC installed views without a flush round). The fixture is kept as
    // a permanent regression: the exact schedule that used to split the
    // delivered prefixes must now sail through every invariant. Its
    // expect_violation line is gone, so `explore_cli --replay` holds it to
    // the all-invariants-pass bar too.
    const std::string path =
        std::string(FAILSIG_SOURCE_DIR) + "/tests/fixtures/flush_gap_agreement.scenario";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot read " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();

    const auto parsed = parse_spec(buffer.str());
    ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
    EXPECT_TRUE(parsed.value().expect_violation.empty())
        << "fixture should be a passing regression now, not an expected violation";
    EXPECT_EQ(parsed.value().scenario.system, SystemKind::kFsNewTop);

    const auto results = run_and_evaluate(parsed.value().scenario, {});
    const auto* verdict = scenario::find_result(results, "agreement");
    ASSERT_NE(verdict, nullptr);
    EXPECT_TRUE(verdict->passed) << verdict->detail
                                 << " — the view-change flush regressed: the checked-in "
                                    "schedule splits survivor prefixes again";
    for (const auto& r : results) {
        EXPECT_TRUE(r.passed) << r.name << ": " << r.detail;
    }
}

}  // namespace
}  // namespace failsig::explore
