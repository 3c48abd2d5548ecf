// Scenario engine tests: determinism (a run is a pure function of its
// Scenario — byte-identical traces), fault-free invariant passes on all
// three stacks, the paper's central contrast (a delay surge trips the
// no-false-exclusion invariant on crash-tolerant NewTOP but not on
// FS-NewTOP), pinned canonical trace hashes, sweep fan-out, and the JSON
// report rendering.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "scenario/cli.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"

namespace failsig::scenario {
namespace {

Scenario fault_free(SystemKind system, int n, std::uint64_t seed = 3) {
    Scenario s;
    s.name = "test/fault-free";
    s.system = system;
    s.group_size = n;
    s.seed = seed;
    s.workload.msgs_per_member = 6;
    return s;
}

Scenario surge_scenario(SystemKind system) {
    Scenario s;
    s.name = "test/surge";
    s.system = system;
    s.group_size = 3;
    s.seed = 11;
    s.workload.msgs_per_member = 6;
    if (system == SystemKind::kNewTop) {
        s.start_suspectors = true;
        s.suspector.ping_interval = 50 * kMillisecond;
        s.suspector.suspect_timeout = 200 * kMillisecond;
        s.deadline = 8 * kSecond;
    }
    s.timeline.push_back(
        ScenarioEvent::delay_surge(500 * kMillisecond, 1 * kSecond, 3 * kSecond));
    return s;
}

// --- determinism -----------------------------------------------------------

TEST(ScenarioEngine, SameSeedSameByteIdenticalTrace) {
    for (const SystemKind system :
         {SystemKind::kNewTop, SystemKind::kFsNewTop, SystemKind::kPbft}) {
        const int n = system == SystemKind::kPbft ? 4 : 3;
        const auto a = run_scenario(fault_free(system, n, 42));
        const auto b = run_scenario(fault_free(system, n, 42));
        ASSERT_GT(a.trace.size(), 0u);
        EXPECT_EQ(a.trace.canonical(), b.trace.canonical())
            << name_of(system) << ": a run must be a pure function of its Scenario";
    }
}

TEST(ScenarioEngine, DifferentSeedDifferentTrace) {
    // Seeds drive network jitter, so timestamps (and usually interleavings)
    // must differ — a guard against the seed being silently ignored.
    const auto a = run_scenario(fault_free(SystemKind::kFsNewTop, 3, 1));
    const auto b = run_scenario(fault_free(SystemKind::kFsNewTop, 3, 2));
    EXPECT_NE(a.trace.canonical(), b.trace.canonical());
}

TEST(ScenarioEngine, FaultCampaignTraceIsDeterministicToo) {
    Scenario s = fault_free(SystemKind::kFsNewTop, 3, 9);
    fs::FaultPlan corrupt;
    corrupt.corrupt_outputs = true;
    s.timeline.push_back(
        ScenarioEvent::fault(150 * kMillisecond, 2, PairNode::kFollower, corrupt));
    s.deadline = 45 * kSecond;
    const auto a = run_scenario(s);
    const auto b = run_scenario(s);
    EXPECT_EQ(a.trace.canonical(), b.trace.canonical());
}

// --- pinned canonical traces -------------------------------------------------

Scenario pinned_batched(SystemKind system) {
    Scenario s = fault_free(system, system == SystemKind::kPbft ? 4 : 3, 17);
    s.name = "pin/batched";
    s.workload.msgs_per_member = 8;
    s.workload.send_interval = 1 * kMillisecond;  // dense enough to fill batches
    s.batch.max_requests = 4;
    return s;
}

/// crash -> recover with checkpoints (the recovery arc of test_recovery).
Scenario pinned_recovery(SystemKind system) {
    Scenario s = fault_free(system, system == SystemKind::kPbft ? 4 : 3, 21);
    s.name = "pin/recovery";
    s.checkpoint_interval = 3;
    s.workload.msgs_per_member = 4;
    const int victim = s.group_size - 1;
    s.timeline.push_back(ScenarioEvent::crash(600 * kMillisecond, victim));
    s.timeline.push_back(ScenarioEvent::burst(1500 * kMillisecond, 0, 3));
    s.timeline.push_back(ScenarioEvent::recover(4 * kSecond, victim));
    s.timeline.push_back(ScenarioEvent::burst(8 * kSecond, 0, 2));
    s.deadline = 11 * kSecond;
    if (system == SystemKind::kNewTop) {
        s.start_suspectors = true;
        s.suspector.ping_interval = 50 * kMillisecond;
        s.suspector.suspect_timeout = 300 * kMillisecond;
    }
    if (system == SystemKind::kFsNewTop) s.placement = fsnewtop::Placement::kFull;
    return s;
}

TEST(ScenarioEngine, CanonicalTraceHashesArePinned) {
    // A refactor proves "no behaviour change" here: any drift in event
    // order, timing or content changes a hash.
    Scenario corrupt = fault_free(SystemKind::kFsNewTop, 3, 9);
    corrupt.name = "pin/fs-corrupt";
    fs::FaultPlan plan;
    plan.corrupt_outputs = true;
    corrupt.timeline.push_back(
        ScenarioEvent::fault(150 * kMillisecond, 2, PairNode::kFollower, plan));
    corrupt.deadline = 45 * kSecond;

    Scenario timeouts = fault_free(SystemKind::kPbft, 4, 5);
    timeouts.name = "pin/pbft-timeouts";
    timeouts.timeline.push_back(ScenarioEvent::crash(250 * kMillisecond, 0));
    timeouts.timeline.push_back(ScenarioEvent::fire_timeouts(2 * kSecond));

    const struct {
        Scenario scenario;
        std::uint64_t hash;
    } pins[] = {
        {pinned_batched(SystemKind::kNewTop), 0x866ceae10e065f92ull},
        {pinned_batched(SystemKind::kFsNewTop), 0xeb2fbf258f3dcffcull},
        {pinned_batched(SystemKind::kPbft), 0xbb31a6078e8e6660ull},
        {pinned_recovery(SystemKind::kNewTop), 0x72e88227a85fb881ull},
        {pinned_recovery(SystemKind::kFsNewTop), 0x856ea4174639e123ull},
        {pinned_recovery(SystemKind::kPbft), 0x8ff3f32a40cb499dull},
        {corrupt, 0x9aa8ea446e98ec3bull},
        {timeouts, 0xd2cb41c321898ea0ull},
    };
    for (const auto& pin : pins) {
        const std::uint64_t got = fnv1a(bytes_of(run_scenario(pin.scenario).trace.canonical()));
        EXPECT_EQ(got, pin.hash)
            << pin.scenario.name << " on " << name_of(pin.scenario.system)
            << ": the canonical trace now hashes to 0x" << std::hex << got
            << ". The simulator's behaviour changed; refreshing this constant "
               "needs a stated reason in CHANGES.md.";
    }
}

// --- fault-free runs ---------------------------------------------------------

TEST(ScenarioEngine, FaultFreeRunsPassEveryInvariantOnAllThreeStacks) {
    for (const SystemKind system :
         {SystemKind::kNewTop, SystemKind::kFsNewTop, SystemKind::kPbft}) {
        const int n = system == SystemKind::kPbft ? 4 : 3;
        const auto report = run_scenario(fault_free(system, n));
        EXPECT_FALSE(report.invariants.empty());
        for (const auto& inv : report.invariants) {
            EXPECT_TRUE(inv.passed) << name_of(system) << " failed " << inv.name << ": "
                                    << inv.detail;
        }
        EXPECT_EQ(report.metrics.observed_deliveries, report.metrics.expected_deliveries)
            << name_of(system);
        EXPECT_FALSE(report.metrics.fail_signals) << name_of(system);
    }
}

// --- the paper's central contrast --------------------------------------------

TEST(ScenarioEngine, DelaySurgeTripsNoFalseExclusionOnNewTopOnly) {
    // Identical surge, no process fails. NewTOP's timeout suspector splits
    // the group (a false suspicion — the invariant catches it); FS-NewTOP
    // has no timeout to mis-fire and keeps every invariant intact.
    const auto newtop = run_scenario(surge_scenario(SystemKind::kNewTop));
    const auto* verdict = find_result(newtop.invariants, "no-false-exclusion");
    ASSERT_NE(verdict, nullptr);
    EXPECT_FALSE(verdict->passed)
        << "the surge must provoke a false suspicion on crash-tolerant NewTOP";

    const auto fsnewtop = run_scenario(surge_scenario(SystemKind::kFsNewTop));
    for (const auto& inv : fsnewtop.invariants) {
        EXPECT_TRUE(inv.passed) << "FS-NewTOP failed " << inv.name << ": " << inv.detail;
    }
    EXPECT_FALSE(fsnewtop.metrics.fail_signals);
}

TEST(ScenarioEngine, CrashIsDetectedWithoutFalseExclusions) {
    Scenario s;
    s.system = SystemKind::kNewTop;
    s.group_size = 3;
    s.seed = 5;
    s.workload.msgs_per_member = 4;
    s.start_suspectors = true;
    s.suspector.ping_interval = 50 * kMillisecond;
    s.suspector.suspect_timeout = 300 * kMillisecond;
    s.timeline.push_back(ScenarioEvent::crash(400 * kMillisecond, 2));
    s.deadline = 8 * kSecond;
    const auto report = run_scenario(s);

    // Survivors converge on {0, 1}; the exclusion is genuine, so every
    // invariant holds.
    for (const auto& inv : report.invariants) {
        EXPECT_TRUE(inv.passed) << inv.name << ": " << inv.detail;
    }
    const auto views = report.trace.views_by_member(3);
    ASSERT_FALSE(views[0].empty());
    EXPECT_EQ(views[0].back(), (std::vector<std::uint32_t>{0, 1}));
}

TEST(ScenarioEngine, ByzantinePairIsExcludedAndInvariantsHold) {
    Scenario s;
    s.system = SystemKind::kFsNewTop;
    s.group_size = 3;
    s.seed = 13;
    s.workload.msgs_per_member = 6;
    fs::FaultPlan corrupt;
    corrupt.corrupt_outputs = true;
    s.timeline.push_back(
        ScenarioEvent::fault(150 * kMillisecond, 2, PairNode::kFollower, corrupt));
    s.deadline = 45 * kSecond;
    const auto report = run_scenario(s);

    EXPECT_TRUE(report.metrics.fail_signals) << "the faulty pair must announce itself";
    for (const auto& inv : report.invariants) {
        EXPECT_TRUE(inv.passed) << inv.name << ": " << inv.detail;
    }
    const auto views = report.trace.views_by_member(3);
    ASSERT_FALSE(views[0].empty());
    EXPECT_EQ(views[0].back(), (std::vector<std::uint32_t>{0, 1}));
    ASSERT_FALSE(views[1].empty());
    EXPECT_EQ(views[1].back(), (std::vector<std::uint32_t>{0, 1}));
}

TEST(ScenarioEngine, FsNewTopCrashNeedsFullPlacement) {
    // Collocated hosts are shared between pairs, so a host-level crash
    // cannot express "crash member m" there — the runner must refuse it
    // instead of silently severing healthy pairs.
    Scenario s = fault_free(SystemKind::kFsNewTop, 3);
    s.timeline.push_back(ScenarioEvent::crash(300 * kMillisecond, 1));
    s.deadline = 60 * kSecond;
    EXPECT_THROW(run_scenario(s), std::logic_error);

    s.placement = fsnewtop::Placement::kFull;
    const auto report = run_scenario(s);
    EXPECT_GT(report.metrics.fail_signal_events, 0u)
        << "the crashed pair must announce itself instead of going silent";
    for (const auto& inv : report.invariants) {
        EXPECT_TRUE(inv.passed) << inv.name << ": " << inv.detail;
    }
    const auto views = report.trace.views_by_member(3);
    ASSERT_FALSE(views[0].empty());
    EXPECT_EQ(views[0].back(), (std::vector<std::uint32_t>{0, 2}));
}

TEST(ScenarioEngine, PbftSurvivesBackupCrash) {
    Scenario s;
    s.system = SystemKind::kPbft;
    s.group_size = 4;
    s.seed = 17;
    s.workload.msgs_per_member = 5;
    s.timeline.push_back(ScenarioEvent::crash(250 * kMillisecond, 3));
    const auto report = run_scenario(s);
    for (const auto& inv : report.invariants) {
        EXPECT_TRUE(inv.passed) << inv.name << ": " << inv.detail;
    }
    // The three live replicas (quorum 2f+1 = 3) keep committing: everything
    // they submitted (15 of the 20 workload messages) still gets ordered;
    // only requests submitted AT the crashed replica after its crash can be
    // lost with it.
    const auto deliveries = report.trace.deliveries_by_member(4);
    EXPECT_GE(deliveries[0].size(), 15u);
    EXPECT_LE(deliveries[0].size(), report.metrics.messages_sent);
}

// --- workload events ----------------------------------------------------------

TEST(ScenarioEngine, BurstInjectsExtraTaggedMessages) {
    Scenario s = fault_free(SystemKind::kNewTop, 3);
    s.timeline.push_back(ScenarioEvent::burst(100 * kMillisecond, 1, 5));
    const auto report = run_scenario(s);
    EXPECT_EQ(report.metrics.messages_sent,
              static_cast<std::uint64_t>(3 * s.workload.msgs_per_member + 5));
    for (const auto& inv : report.invariants) {
        EXPECT_TRUE(inv.passed) << inv.name << ": " << inv.detail;
    }
}

TEST(ScenarioEngine, OutOfRangeScenarioIsRejectedBeforeItRuns) {
    // A burst from a member outside the group would write past the runner's
    // per-member sequence counters.
    Scenario s = fault_free(SystemKind::kNewTop, 4);
    s.timeline.push_back(ScenarioEvent::burst(0, 9, 1));
    EXPECT_EQ(s.invalid(), "event 0 (burst): member must be in [0, 4)");
    EXPECT_THROW(run_scenario(s), std::invalid_argument);
    s.timeline.clear();
    s.workload.payload_size = 3;
    EXPECT_THROW(run_scenario(s), std::invalid_argument);
}

// --- sweeps and reports --------------------------------------------------------

TEST(ScenarioEngine, SweepCrossesAxesAndRecordsUndersizedPbftAsSkipped) {
    SweepSpec spec;
    spec.base = fault_free(SystemKind::kNewTop, 3);
    spec.base.name = "sweep";
    spec.base.workload.msgs_per_member = 3;
    spec.systems = {SystemKind::kNewTop, SystemKind::kFsNewTop, SystemKind::kPbft};
    spec.group_sizes = {2, 4};
    spec.seeds = {1, 2};
    const auto reports = run_sweep(spec);
    // The full 3 systems x 2 sizes x 2 seeds cross product is reported;
    // PBFT at n=2 (below the 3f+1 floor) appears as explicit skipped rows,
    // not holes.
    ASSERT_EQ(reports.size(), 12u);
    EXPECT_EQ(reports.front().scenario.name, "sweep/NewTOP/n2/s1");
    std::size_t skipped = 0;
    for (const auto& report : reports) {
        if (report.skipped) {
            ++skipped;
            EXPECT_EQ(report.scenario.system, SystemKind::kPbft);
            EXPECT_LT(report.scenario.group_size, 4);
            EXPECT_FALSE(report.skip_reason.empty());
            EXPECT_EQ(report.trace.size(), 0u);
            EXPECT_EQ(report.metrics.messages_sent, 0u);
        } else {
            EXPECT_GT(report.trace.size(), 0u) << report.scenario.name;
            EXPECT_TRUE(report.all_invariants_passed()) << report.scenario.name;
        }
    }
    EXPECT_EQ(skipped, 2u);

    // Every cell records its sweep coordinates: the seeds-axis value (the
    // RNG seed itself is the per-cell derived hash) and the axis index.
    for (const auto& report : reports) {
        EXPECT_TRUE(report.from_sweep);
        EXPECT_TRUE(report.seed_axis == 1 || report.seed_axis == 2) << report.scenario.name;
        EXPECT_EQ(report.scenario.seed,
                  derive_cell_seed(report.seed_axis, report.scenario.system,
                                   report.scenario.group_size))
            << report.scenario.name;
    }

    // Skipped rows carry their reason into the report, and the sweep
    // coordinates appear as structured fields.
    const std::string json = to_json(reports);
    EXPECT_NE(json.find("\"status\":\"skipped\""), std::string::npos);
    EXPECT_NE(json.find("\"skip_reason\":"), std::string::npos);
    EXPECT_NE(json.find("\"seed_axis\":1"), std::string::npos);
    EXPECT_NE(json.find("\"seed_index\":1"), std::string::npos);
    // Cells whose checkers never ran must not claim a pass verdict.
    EXPECT_EQ(json.find("\"all_invariants_passed\":true,\"trace_events\":0"),
              std::string::npos);
}

TEST(ScenarioEngine, SweepRecordsCapabilityRejectedCellsAsSkipped) {
    // A host-level crash cannot be expressed on FS-NewTOP's collocated
    // placement; in a sweep that cell becomes a skipped row carrying the
    // rejection message rather than an exception that discards every other
    // cell's result.
    SweepSpec spec;
    spec.base = fault_free(SystemKind::kNewTop, 3);
    spec.base.name = "cap";
    spec.base.workload.msgs_per_member = 2;
    spec.base.start_suspectors = true;
    spec.base.suspector.ping_interval = 50 * kMillisecond;
    spec.base.suspector.suspect_timeout = 300 * kMillisecond;
    spec.base.timeline.push_back(ScenarioEvent::crash(300 * kMillisecond, 1));
    spec.base.deadline = 4 * kSecond;
    spec.systems = {SystemKind::kNewTop, SystemKind::kFsNewTop};
    const auto reports = run_sweep(spec);
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_FALSE(reports[0].skipped) << "NewTOP can express host crashes";
    EXPECT_TRUE(reports[1].skipped);
    EXPECT_NE(reports[1].skip_reason.find("Placement::kFull"), std::string::npos)
        << reports[1].skip_reason;
}

TEST(ScenarioEngine, SweepReportIsByteIdenticalForAnyJobCount) {
    SweepSpec spec;
    spec.base = fault_free(SystemKind::kNewTop, 3);
    spec.base.name = "par";
    spec.base.workload.msgs_per_member = 3;
    spec.systems = {SystemKind::kNewTop, SystemKind::kFsNewTop, SystemKind::kPbft};
    spec.group_sizes = {2, 3, 4};
    spec.seeds = {1, 2, 3};

    spec.jobs = 1;
    const auto serial = run_sweep(spec);
    spec.jobs = 4;
    const auto parallel = run_sweep(spec);

    ASSERT_EQ(serial.size(), 27u);
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(to_json(serial), to_json(parallel));
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].trace.canonical(), parallel[i].trace.canonical())
            << serial[i].scenario.name;
    }
}

TEST(ScenarioEngine, CellSeedsAreDerivedPerCoordinate) {
    // No two sweep cells share an RNG stream: the cell seed mixes the seed
    // axis value with (system, group size). The position of the seed in the
    // seeds list is deliberately NOT mixed in, so narrowing a sweep to one
    // seed reproduces that cell exactly.
    const auto a = derive_cell_seed(1, SystemKind::kNewTop, 3);
    EXPECT_NE(a, derive_cell_seed(1, SystemKind::kFsNewTop, 3));
    EXPECT_NE(a, derive_cell_seed(1, SystemKind::kNewTop, 4));
    EXPECT_NE(a, derive_cell_seed(2, SystemKind::kNewTop, 3));
    EXPECT_EQ(a, derive_cell_seed(1, SystemKind::kNewTop, 3));
}

TEST(ScenarioEngine, NarrowingASweepToOneSeedReproducesTheCell) {
    SweepSpec full;
    full.base = fault_free(SystemKind::kFsNewTop, 3);
    full.base.name = "narrow";
    full.base.workload.msgs_per_member = 3;
    full.seeds = {5, 6, 7};
    const auto all = run_sweep(full);
    ASSERT_EQ(all.size(), 3u);

    SweepSpec narrowed = full;
    narrowed.seeds = {7};
    const auto one = run_sweep(narrowed);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].trace.canonical(), all[2].trace.canonical())
        << "a cell must not depend on its seed's position in the sweep";
}

TEST(ScenarioEngine, RunScenariosPreservesInputOrderAcrossJobCounts) {
    std::vector<Scenario> scenarios;
    for (int i = 0; i < 6; ++i) {
        Scenario s = fault_free(SystemKind::kFsNewTop, 3, 100 + static_cast<std::uint64_t>(i));
        s.name = "batch/" + std::to_string(i);
        s.workload.msgs_per_member = 2 + i;
        scenarios.push_back(s);
    }
    const auto serial = run_scenarios(scenarios, 1);
    const auto parallel = run_scenarios(scenarios, 4);
    ASSERT_EQ(serial.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        EXPECT_EQ(serial[i].scenario.name, scenarios[i].name);
        EXPECT_EQ(serial[i].trace.canonical(), parallel[i].trace.canonical());
    }
}

TEST(ScenarioEngine, JsonRendering) {
    const auto report = run_scenario(fault_free(SystemKind::kNewTop, 2));
    const std::string json = to_json({report});
    EXPECT_NE(json.find("\"format\":\"failsig-scenario-report-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"system\":\"NewTOP\""), std::string::npos);
    EXPECT_NE(json.find("\"all_invariants_passed\":true"), std::string::npos);
}

TEST(ScenarioEngine, JsonEscapingHandlesControlCharacters) {
    EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// --- CLI ---------------------------------------------------------------------

/// Parses `args` with every flag the shared parser knows accepted.
CliOptions parse_all(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return parse_cli(static_cast<int>(args.size()), const_cast<char**>(args.data()),
                     {"--groups", "--messages", "--payload", "--batch", "--seed", "--jobs",
                      "--out", "--metrics-out", "--backend", "--only"});
}

TEST(ScenarioCli, ParsesAllKnobs) {
    const auto cli = parse_all({"--groups", "2,4,8", "--messages", "30", "--payload", "128",
                                "--seed", "99", "--jobs", "4", "--out", "r.json"});
    EXPECT_FALSE(cli.help);
    EXPECT_FALSE(cli.error);
    EXPECT_EQ(cli.group_sizes, (std::vector<int>{2, 4, 8}));
    EXPECT_EQ(cli.msgs_per_member, 30);
    EXPECT_EQ(cli.payload_size, 128u);
    EXPECT_TRUE(cli.seed_set);
    EXPECT_EQ(cli.seed, 99u);
    EXPECT_EQ(cli.jobs, 4);
    EXPECT_EQ(cli.out_path, "r.json");
}

TEST(ScenarioCli, RejectsBadValues) {
    EXPECT_TRUE(parse_all({"--groups", "2,x"}).error);
    EXPECT_TRUE(parse_all({"--bogus"}).error);
    EXPECT_TRUE(parse_all({"--out"}).error) << "a flag without its value";
    // Trailing garbage must error, not silently truncate ("4x8" -> 4).
    EXPECT_TRUE(parse_all({"--groups", "4x8"}).error);
    EXPECT_TRUE(parse_all({"--messages", "30q"}).error);
    EXPECT_TRUE(parse_all({"--jobs", "0"}).error);
    // Negative values must not wrap through strtoull into huge sizes.
    EXPECT_TRUE(parse_all({"--payload", "-1"}).error);
    EXPECT_TRUE(parse_all({"--seed", "-1"}).error);
    // Absurd payloads are an out-of-memory, not a sweep; reject past 16 MiB.
    EXPECT_TRUE(parse_all({"--payload", "999999999999999"}).error);
    // A sign or a leading space is not part of a number.
    EXPECT_TRUE(parse_all({"--groups", "+3"}).error);
    EXPECT_TRUE(parse_all({"--groups", " 3"}).error);
    EXPECT_TRUE(parse_all({"--messages", " 2"}).error);
    EXPECT_TRUE(parse_all({"--backend", "udp"}).error);
}

TEST(ScenarioCli, RejectsFlagsTheCallerDoesNotRead) {
    // A binary that reads only --seed and --out must not swallow a sweep
    // flag it would ignore.
    const char* argv[] = {"prog", "--seed", "3", "--groups", "4"};
    EXPECT_TRUE(parse_cli(5, const_cast<char**>(argv), {"--seed", "--out"}).error);
    EXPECT_FALSE(parse_cli(3, const_cast<char**>(argv), {"--seed", "--out"}).error);
    const char* help[] = {"prog", "--help"};
    EXPECT_TRUE(parse_cli(2, const_cast<char**>(help), {"--seed"}).help);
}

}  // namespace
}  // namespace failsig::scenario
