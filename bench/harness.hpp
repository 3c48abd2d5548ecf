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
// (src/scenario/runner.hpp): an ExperimentConfig is just a fault-free
// Scenario, so benches, tests and declarative fault campaigns all run
// through one code path. `run_experiment_report` exposes the full
// ScenarioReport (invariant verdicts included) for benches that write JSON
// reports via --out.
#pragma once

#include <cstdio>

#include "scenario/cli.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"

namespace failsig::bench {

using scenario::SystemKind;

struct ExperimentConfig {
    SystemKind system{SystemKind::kNewTop};
    int group_size{3};
    int msgs_per_member{50};
    std::size_t payload_size{3};  // paper: 3-byte messages
    Duration send_interval{80 * kMillisecond};
    int thread_pool{2};
    std::uint64_t seed{42};
    newtop::ServiceType service{newtop::ServiceType::kSymmetricTotalOrder};
    /// Request batching on the submit path (see common/batch.hpp); off by
    /// default so the paper-shape figures stay unbatched.
    BatchConfig batch{};
};

struct ExperimentResult {
    double mean_latency_ms{0};
    double p95_latency_ms{0};
    double throughput_msg_s{0};
    std::uint64_t network_messages{0};
    std::uint64_t network_bytes{0};
    bool fail_signals{false};
    std::uint64_t expected_deliveries{0};
    std::uint64_t observed_deliveries{0};
};

/// The declarative form of a §4 measurement run.
inline scenario::Scenario make_scenario(const ExperimentConfig& cfg) {
    scenario::Scenario s;
    s.name = std::string(scenario::name_of(cfg.system)) + "/n" + std::to_string(cfg.group_size);
    s.system = cfg.system;
    s.group_size = cfg.group_size;
    s.seed = cfg.seed;
    s.threads_per_node = cfg.thread_pool;
    s.workload.msgs_per_member = cfg.msgs_per_member;
    s.workload.payload_size = cfg.payload_size;
    s.workload.send_interval = cfg.send_interval;
    s.workload.service = cfg.service;
    s.batch = cfg.batch;
    if (cfg.batch.enabled()) {
        s.name += "/b" + std::to_string(cfg.batch.max_requests);
    }
    return s;
}

inline ExperimentResult to_result(const scenario::ScenarioReport& report) {
    const auto& m = report.metrics;
    ExperimentResult out;
    out.mean_latency_ms = m.mean_latency_ms;
    out.p95_latency_ms = m.p95_latency_ms;
    out.throughput_msg_s = m.throughput_msg_s;
    out.network_messages = m.network_messages;
    out.network_bytes = m.network_bytes;
    out.fail_signals = m.fail_signals;
    out.expected_deliveries = m.expected_deliveries;
    out.observed_deliveries = m.observed_deliveries;
    return out;
}

inline scenario::ScenarioReport run_experiment_report(const ExperimentConfig& cfg) {
    return scenario::run_scenario(make_scenario(cfg));
}

inline ExperimentResult run_experiment(const ExperimentConfig& cfg) {
    return to_result(run_experiment_report(cfg));
}

/// Runs every configuration on `jobs` worker threads (0 = hardware
/// concurrency). Each config owns an independent Simulation, so results are
/// embarrassingly parallel and come back in input order regardless of job
/// count — the figure benches sweep group sizes through this.
inline std::vector<scenario::ScenarioReport> run_experiment_reports(
    const std::vector<ExperimentConfig>& configs, int jobs = 0) {
    std::vector<scenario::Scenario> scenarios;
    scenarios.reserve(configs.size());
    for (const auto& cfg : configs) scenarios.push_back(make_scenario(cfg));
    return scenario::run_scenarios(scenarios, jobs);
}

/// Prints the standard header used by the figure benches.
inline void print_header(const char* title, const char* expectation) {
    std::printf("================================================================\n");
    std::printf("%s\n", title);
    std::printf("Paper-expected shape: %s\n", expectation);
    std::printf("================================================================\n");
}

/// Writes accumulated scenario reports when --out was given; returns true
/// on success (or when no path was requested).
inline bool maybe_write_report(const scenario::CliOptions& cli,
                               const std::vector<scenario::ScenarioReport>& reports) {
    if (cli.out_path.empty()) return true;
    const bool ok = scenario::write_file(cli.out_path, scenario::to_json(reports));
    if (ok) std::printf("report written to %s\n", cli.out_path.c_str());
    return ok;
}

}  // namespace failsig::bench
