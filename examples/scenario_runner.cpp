// Scenario runner: the paper's comparative argument as declarative data.
//
// Eleven fault campaigns across the three stacks (crash-tolerant NewTOP,
// FS-NewTOP, PBFT baseline) — fault-free baselines, crashes, Byzantine
// corruption, the delay surge that splits plain NewTOP but leaves
// FS-NewTOP untouched, and open-loop Poisson load through the batched
// ordering pipeline. Each Scenario below is pure data; the engine
// (src/scenario/runner.hpp) builds the deployment, injects the faults,
// records the trace, and judges it against the built-in invariant checkers.
// The run writes one JSON report consumable by CI gates and notebooks.
//
// Run: ./scenario_runner [--seed N] [--out report.json]
#include <cstdio>

#include "scenario/cli.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"

using namespace failsig;
using scenario::Scenario;
using scenario::ScenarioEvent;
using scenario::SystemKind;

namespace {

struct Entry {
    Scenario scenario;
    /// Whether every applicable invariant is expected to hold. The NewTOP
    /// delay-surge campaign is *expected* to fail no-false-exclusion —
    /// that false suspicion is the pathology motivating the paper.
    bool expect_all_pass{true};
};

std::vector<Entry> build_campaigns(std::uint64_t seed) {
    std::vector<Entry> entries;

    // --- crash-tolerant NewTOP ---------------------------------------------
    {
        Scenario s;
        s.name = "newtop/fault-free";
        s.system = SystemKind::kNewTop;
        s.group_size = 3;
        s.seed = seed;
        s.workload.msgs_per_member = 12;
        entries.push_back({s, true});
    }
    {
        Scenario s;
        s.name = "newtop/crash";
        s.system = SystemKind::kNewTop;
        s.group_size = 3;
        s.seed = seed;
        s.workload.msgs_per_member = 8;
        s.start_suspectors = true;
        s.suspector.ping_interval = 50 * kMillisecond;
        s.suspector.suspect_timeout = 300 * kMillisecond;
        s.timeline.push_back(ScenarioEvent::crash(400 * kMillisecond, 2));
        s.deadline = 8 * kSecond;
        entries.push_back({s, true});
    }
    {
        Scenario s;
        s.name = "newtop/delay-surge";
        s.system = SystemKind::kNewTop;
        s.group_size = 3;
        s.seed = seed;
        s.workload.msgs_per_member = 8;
        s.start_suspectors = true;
        s.suspector.ping_interval = 50 * kMillisecond;
        s.suspector.suspect_timeout = 200 * kMillisecond;
        // 1 s of extra delay, no process fails — yet the group will split.
        s.timeline.push_back(
            ScenarioEvent::delay_surge(500 * kMillisecond, 1 * kSecond, 3 * kSecond));
        s.deadline = 8 * kSecond;
        entries.push_back({s, false});  // expected: no-false-exclusion trips
    }

    // --- FS-NewTOP ----------------------------------------------------------
    {
        Scenario s;
        s.name = "fsnewtop/fault-free";
        s.system = SystemKind::kFsNewTop;
        s.group_size = 3;
        s.seed = seed;
        s.workload.msgs_per_member = 12;
        entries.push_back({s, true});
    }
    {
        Scenario s;
        s.name = "fsnewtop/byzantine-corrupt";
        s.system = SystemKind::kFsNewTop;
        s.group_size = 3;
        s.seed = seed;
        s.workload.msgs_per_member = 8;
        fs::FaultPlan corrupt;
        corrupt.corrupt_outputs = true;
        s.timeline.push_back(ScenarioEvent::fault(200 * kMillisecond, 2,
                                                  scenario::PairNode::kFollower, corrupt));
        s.deadline = 60 * kSecond;
        entries.push_back({s, true});
    }
    {
        Scenario s;
        s.name = "fsnewtop/delay-surge";
        s.system = SystemKind::kFsNewTop;
        s.group_size = 3;
        s.seed = seed;
        s.workload.msgs_per_member = 8;
        // The exact surge that splits plain NewTOP: harmless here, because
        // fail-signal suspicions cannot be false (§3.1).
        s.timeline.push_back(
            ScenarioEvent::delay_surge(500 * kMillisecond, 1 * kSecond, 3 * kSecond));
        entries.push_back({s, true});
    }

    // --- batched ordering pipeline under open-loop load ---------------------
    {
        // 200 req/s of Poisson arrivals coalesced into batches of up to 8:
        // one signed FS protocol round orders many requests, and every
        // invariant (agreement, validity, ...) must hold exactly as if the
        // requests had been submitted one by one.
        Scenario s;
        s.name = "fsnewtop/batched-load";
        s.system = SystemKind::kFsNewTop;
        s.group_size = 3;
        s.seed = seed;
        s.workload.msgs_per_member = 0;  // all traffic from the load phase
        s.batch.max_requests = 8;
        s.batch.flush_after = 5 * kMillisecond;
        scenario::LoadSpec load;
        load.rate = 200.0;
        load.duration = 400 * kMillisecond;
        load.payload = 16;
        s.timeline.push_back(ScenarioEvent::load(0, load));
        entries.push_back({s, true});
    }
    {
        Scenario s;
        s.name = "newtop/batched-load-crash";
        s.system = SystemKind::kNewTop;
        s.group_size = 4;
        s.seed = seed;
        s.workload.msgs_per_member = 0;
        s.batch.max_requests = 8;
        s.batch.flush_after = 5 * kMillisecond;
        scenario::LoadSpec load;
        load.rate = 200.0;
        load.duration = 400 * kMillisecond;
        load.payload = 16;
        s.timeline.push_back(ScenarioEvent::load(0, load));
        s.timeline.push_back(ScenarioEvent::crash(200 * kMillisecond, 3));
        entries.push_back({s, true});
    }

    // --- PBFT baseline -------------------------------------------------------
    {
        Scenario s;
        s.name = "pbft/fault-free";
        s.system = SystemKind::kPbft;
        s.group_size = 4;
        s.seed = seed;
        s.workload.msgs_per_member = 12;
        entries.push_back({s, true});
    }
    {
        Scenario s;
        s.name = "pbft/backup-crash";
        s.system = SystemKind::kPbft;
        s.group_size = 4;
        s.seed = seed;
        s.workload.msgs_per_member = 8;
        s.timeline.push_back(ScenarioEvent::crash(300 * kMillisecond, 3));
        entries.push_back({s, true});
    }
    {
        Scenario s;
        s.name = "pbft/primary-crash";
        s.system = SystemKind::kPbft;
        s.group_size = 4;
        s.seed = seed;
        s.workload.msgs_per_member = 6;
        s.timeline.push_back(ScenarioEvent::crash(250 * kMillisecond, 0));
        // PBFT's liveness escape hatch: progress needs the timeout-triggered
        // view change — the speculative dependence FS-NewTOP removes.
        s.timeline.push_back(ScenarioEvent::fire_timeouts(2 * kSecond));
        entries.push_back({s, true});
    }

    return entries;
}

}  // namespace

int main(int argc, char** argv) {
    const auto cli = scenario::parse_cli(
        argc, argv, {"--seed", "--jobs", "--out", "--metrics-out", "--backend", "--only"});
    if (cli.help) return 0;
    if (cli.error) return 1;
    const std::uint64_t seed = cli.seed_set ? cli.seed : 7;

    auto campaigns = build_campaigns(seed);
    // --only narrows the campaign list; --backend tcp reruns the surviving
    // campaigns on real sockets (CI runs every campaign there).
    if (!cli.only.empty()) {
        std::erase_if(campaigns, [&](const Entry& e) {
            return e.scenario.name.find(cli.only) == std::string::npos;
        });
        if (campaigns.empty()) {
            std::fprintf(stderr, "no campaign name contains '%s'\n", cli.only.c_str());
            return 1;
        }
    }
    if (cli.backend == "tcp") {
        for (auto& entry : campaigns) {
            entry.scenario.backend = deploy::Backend::kTcp;
        }
    }
    std::printf("failsig scenario runner — %zu campaigns, seed %llu%s\n\n", campaigns.size(),
                static_cast<unsigned long long>(seed),
                cli.backend == "tcp" ? ", backend tcp" : "");

    // --metrics-out turns observability on for every campaign. The report
    // bytes are unaffected (obs artifacts live outside to_json).
    const bool obs_enabled = !cli.metrics_out_path.empty();
    if (obs_enabled) {
        for (auto& entry : campaigns) entry.scenario.obs.enabled = true;
    }

    // Campaigns own independent simulations, so they run on a worker pool
    // (--jobs, default hardware concurrency); reports keep campaign order.
    std::vector<scenario::Scenario> scenarios;
    for (const auto& entry : campaigns) scenarios.push_back(entry.scenario);
    const auto reports = scenario::run_scenarios(scenarios, cli.jobs);

    int mismatches = 0;
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
        const auto& entry = campaigns[i];
        const auto& report = reports[i];
        const bool passed = report.all_invariants_passed();
        if (passed != entry.expect_all_pass) {
            ++mismatches;
            std::printf("UNEXPECTED OUTCOME for %s:\n", entry.scenario.name.c_str());
            for (const auto& inv : report.invariants) {
                if (!inv.passed) {
                    std::printf("  FAIL %s: %s\n", inv.name.c_str(), inv.detail.c_str());
                }
            }
            // Forensics for the unexpected outcome: deterministically re-run
            // that one campaign with the flight recorder on and dump each
            // node's recent timeline next to the report. Expected failures
            // (newtop/delay-surge) are documentation, not incidents — they
            // get no dump, so CI artifacts stay quiet on green runs.
            Scenario forensic = entry.scenario;
            forensic.obs.enabled = true;
            const auto rerun = scenario::run_scenario(forensic);
            std::string dump_path = entry.scenario.name + ".flight";
            for (auto& c : dump_path) {
                if (c == '/') c = '_';
            }
            if (scenario::write_file(dump_path, rerun.flight_dump)) {
                std::printf("  flight-recorder dump written to %s\n", dump_path.c_str());
            }
        }
    }

    scenario::print_table(reports);
    std::printf(
        "\nReading: newtop/delay-surge is SUPPOSED to fail no-false-exclusion — a\n"
        "timeout suspector mistakes delay for death and splits a healthy group;\n"
        "fsnewtop/delay-surge survives the identical surge with every invariant\n"
        "intact, because fail-signal suspicions cannot be false.\n");

    const std::string out = cli.out_path.empty() ? "scenario_report.json" : cli.out_path;
    if (!scenario::write_file(out, scenario::to_json(reports))) return 1;
    std::printf("\nreport written to %s\n", out.c_str());

    if (obs_enabled) {
        if (!scenario::write_file(cli.metrics_out_path, scenario::metrics_document(reports))) {
            return 1;
        }
        std::printf("metrics written to %s\n", cli.metrics_out_path.c_str());
    }

    if (mismatches > 0) {
        std::printf("%d campaign(s) deviated from their expected invariant outcome\n",
                    mismatches);
        return 1;
    }
    return 0;
}
