// Scenario execution engine and parameter sweeps.
//
// `run_scenario` builds the deployment a Scenario names through
// deploy::make_deployment, attaches the trace recorder to the
// deployment's observer hooks, schedules the workload and the fault
// timeline on the deterministic simulator, runs to quiescence (or to the
// deadline when the scenario contains perpetual activity), and returns
// metrics + invariant verdicts + the full trace. The engine is one generic
// path: everything system-specific lives behind deploy::Deployment, so a
// fourth system needs a deployment class, not engine edits. `run_sweep`
// crosses systems x group sizes x seeds over a base scenario — the shape
// every figure bench and regression gate consumes (see scenario/report.hpp
// for the JSON output) — executing independent cells on a worker pool
// (`jobs`) while keeping the report byte-identical to a serial run.
#pragma once

#include <stdexcept>
#include <utility>

#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"

namespace failsig::scenario {

/// Workload measurements, harness-compatible (see bench/harness.hpp):
/// latency is multicast-to-delivery over every (message, member) pair;
/// throughput is total multicasts over the first-send-to-last-delivery
/// makespan.
struct ScenarioMetrics {
    double mean_latency_ms{0};
    double p95_latency_ms{0};
    double throughput_msg_s{0};
    std::uint64_t network_messages{0};
    std::uint64_t network_bytes{0};
    std::uint64_t messages_sent{0};        ///< workload messages injected
    std::uint64_t observed_deliveries{0};  ///< (message, member) delivery pairs
    std::uint64_t expected_deliveries{0};  ///< messages_sent * group_size
    std::uint64_t views_installed{0};
    std::uint64_t fail_signal_events{0};  ///< signalling *episodes* (not emission ticks)
    bool fail_signals{false};
    TimePoint finished_at{0};  ///< simulated time when the run stopped
    // Batching pipeline (see common/batch.hpp): requests entering the
    // submit path, requests that left inside batch frames, ordered units
    // formed, and deadline-triggered flushes. Serialized into the JSON
    // reports — sweeps plot delivered-requests-per-round against offered
    // load × batch size from these columns.
    std::uint64_t requests_submitted{0};
    std::uint64_t requests_batched{0};
    std::uint64_t batches_formed{0};
    std::uint64_t flushes_on_deadline{0};
    // Zero-copy plane accounting (see net::SimNetwork): bytes actually
    // materialized vs logical wire bytes, and distinct body encodes. These
    // are pinned by tests/test_pinned_counters.cpp; they are deliberately
    // NOT serialized into the JSON reports, whose byte layout is a
    // compatibility surface for diff-based regression gates.
    std::uint64_t payload_bytes_copied{0};
    std::uint64_t payload_bodies_encoded{0};
    // Authentication-layer accounting (FS-NewTOP's KeyService; zero for the
    // other stacks). Like the payload counters these feed the pinned
    // counters (the amortized-signature measurement), not the report files.
    std::uint64_t verify_ops{0};
    std::uint64_t verify_cache_hits{0};
};

struct ScenarioReport {
    Scenario scenario;
    ScenarioMetrics metrics;
    std::vector<InvariantResult> invariants;
    Trace trace;
    /// Deterministic checkpoint/recovery counters (deploy::RecoveryStats):
    /// checkpoints taken, PBFT log slots truncated/retained, state transfers
    /// served, rejoins completed, flush-log evictions/gaps. All zero on runs
    /// without a checkpoint interval or recovery events. Like the zero-copy
    /// counters, deliberately NOT serialized into JSON reports — the
    /// pinned-counter tests read them here.
    deploy::RecoveryStats recovery;
    /// Sweep cells below a system's group-size floor are recorded, not run:
    /// metrics/invariants/trace stay empty and `skip_reason` says why.
    bool skipped{false};
    std::string skip_reason;
    /// Sweep coordinates (set by run_sweep): the seeds-axis value and its
    /// index, from which `scenario.seed` was derived. For single runs they
    /// default to the scenario's own seed so report columns stay uniform.
    bool from_sweep{false};
    std::uint64_t seed_axis{0};
    std::uint64_t seed_index{0};

    // Observability artifacts, filled only when `scenario.obs.enabled`.
    // Deliberately NOT serialized by to_json (the report byte layout
    // is a compatibility surface); callers write them to separate files
    // (--metrics-out, violation flight dumps).
    /// "failsig-metrics-v1" snapshot (see obs::MetricsRegistry::to_json).
    std::string metrics_json;
    /// Flight-recorder timeline (obs::FlightRecorder::dump()).
    std::string flight_dump;
    /// Deterministic counter snapshot, name-ascending — lets tests gate on
    /// counters without parsing JSON.
    std::vector<std::pair<std::string, std::uint64_t>> obs_counters;

    [[nodiscard]] bool all_invariants_passed() const { return all_passed(invariants); }
};

/// Thrown when a scenario names a fault its deployment cannot express
/// (e.g. a host-level crash on FS-NewTOP's collocated placement, where a
/// host is shared between two pairs). `run_sweep` converts exactly these
/// into skipped rows; every other error stays fatal.
class ScenarioRejected : public std::logic_error {
public:
    using std::logic_error::logic_error;
};

/// Executes one scenario. Deterministic: same Scenario => byte-identical
/// `report.trace.canonical()`. Throws std::invalid_argument when a value is
/// out of range (Scenario::invalid()), and ScenarioRejected when the
/// deployment cannot express an event in the timeline.
ScenarioReport run_scenario(const Scenario& scenario);

/// Runs every scenario on a pool of `jobs` worker threads (0 = hardware
/// concurrency). Each scenario owns an independent Simulation, so results
/// are embarrassingly parallel; they come back in input order regardless of
/// job count. The first scenario error (lowest index) is rethrown after all
/// cells finish.
std::vector<ScenarioReport> run_scenarios(const std::vector<Scenario>& scenarios,
                                          int jobs = 0);

/// Cross product sweep over a base scenario. Empty axis = keep the base
/// value. Report names are "<base.name>/<system>/n<group>/s<seed>".
struct SweepSpec {
    Scenario base;
    std::vector<SystemKind> systems;
    std::vector<int> group_sizes;
    std::vector<std::uint64_t> seeds;
    /// Batch-size axis (BatchConfig::max_requests; other batch knobs come
    /// from the base scenario). Empty = keep the base value and leave cell
    /// names unchanged; non-empty appends "/b<batch>" to each cell name.
    /// The per-cell RNG seed is deliberately NOT a function of this axis, so
    /// cells differing only in batch size face the identical network
    /// schedule — the batching comparison is apples-to-apples.
    std::vector<std::size_t> batch_sizes;
    /// Worker threads for the cell cross-product (0 = hardware concurrency).
    /// The report is byte-identical for every value.
    int jobs{0};
};

/// Deterministic per-cell RNG seed: a splitmix64 hash of (axis seed, system,
/// group size), so every sweep cell draws an independent random stream no
/// matter which worker executes it or in what order. Deliberately NOT a
/// function of the seed's position in `seeds`: a failing cell reproduces
/// exactly when the sweep is narrowed to that one seed.
std::uint64_t derive_cell_seed(std::uint64_t axis_seed, SystemKind system, int group_size);

std::vector<ScenarioReport> run_sweep(const SweepSpec& spec);

}  // namespace failsig::scenario
