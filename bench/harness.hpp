// Shared experiment harness for the figure/ablation benches.
//
// Reproduces the paper's §4 methodology: every member multicasts M messages
// at a fixed interval (identical for NewTOP and FS-NewTOP); we record
//   * ordering latency  — multicast() call to delivery, averaged over every
//     (message, member) pair, and
//   * throughput        — total multicasts ordered divided by the makespan
//     (first send to last delivery), i.e. "time needed to order M messages
//     sent by each A_i".
// Absolute values are simulator-calibrated, not testbed-measured; the shapes
// are the reproduction target (see EXPERIMENTS.md).
//
// The measurement loop itself lives in the scenario engine
// (src/scenario/runner.hpp): a bench cell is just a fault-free Scenario, so
// benches, tests and declarative fault campaigns all run through one code
// path, and the benches read each cell's ScenarioReport (metrics and
// invariant verdicts) directly.
#pragma once

#include <cstdio>

#include "scenario/cli.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"

namespace failsig::bench {

using scenario::SystemKind;

/// The paper's §4 measurement run for `system` at group size `n`: every
/// member multicasts 50 small messages 80 ms apart, seed 42. The paper sent
/// 3 bytes; a message here carries the 8-byte (sender, seq) latency tag.
inline scenario::Scenario paper_scenario(SystemKind system, int n) {
    scenario::Scenario s;
    s.system = system;
    s.group_size = n;
    s.seed = 42;
    s.workload.msgs_per_member = 50;
    s.workload.payload_size = scenario::kMinPayload;
    return s;
}

/// Names each cell "<system>/n<size>", plus "/b<batch>" when batching is on,
/// and runs the cells on `jobs` worker threads (0 = hardware concurrency).
/// Each cell owns an independent Simulation, so the reports come back in
/// input order regardless of job count.
inline std::vector<scenario::ScenarioReport> run_cells(std::vector<scenario::Scenario> cells,
                                                       int jobs) {
    for (auto& s : cells) {
        s.name = std::string(scenario::name_of(s.system)) + "/n" + std::to_string(s.group_size);
        if (s.batch.enabled()) s.name += "/b" + std::to_string(s.batch.max_requests);
    }
    return scenario::run_scenarios(cells, jobs);
}

/// Prints the standard header used by the figure benches.
inline void print_header(const char* title, const char* expectation) {
    std::printf("================================================================\n");
    std::printf("%s\n", title);
    std::printf("Paper-expected shape: %s\n", expectation);
    std::printf("================================================================\n");
}

/// Writes the reports when --out was given and names every cell that failed
/// an invariant. Returns the bench's exit status: 0 when the report was
/// written (or not requested) and every cell passed its invariants.
inline int finish(const scenario::CliOptions& cli,
                  const std::vector<scenario::ScenarioReport>& reports) {
    bool ok = true;
    if (!cli.out_path.empty()) {
        ok = scenario::write_file(cli.out_path, scenario::to_json(reports));
        if (ok) std::printf("report written to %s\n", cli.out_path.c_str());
    }
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (reports[i].all_invariants_passed()) continue;
        std::fprintf(stderr, "cell %zu (%s) failed:", i, reports[i].scenario.name.c_str());
        for (const auto& verdict : reports[i].invariants) {
            if (!verdict.passed) std::fprintf(stderr, " %s", verdict.name.c_str());
        }
        std::fprintf(stderr, "\n");
        ok = false;
    }
    return ok ? 0 : 1;
}

}  // namespace failsig::bench
