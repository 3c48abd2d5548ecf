// Declarative fault-campaign scenarios.
//
// The paper's whole argument (§4) is comparative: the same workload and the
// same faults, run against crash-tolerant NewTOP, FS-NewTOP, and a
// PBFT-style baseline. A `Scenario` captures one such run as data — which
// system, how many members, what the application sends, and a timeline of
// `ScenarioEvent`s (crashes, Byzantine fault plans, delay surges,
// partitions, workload bursts) — so experiments, tests and benches all
// execute through one engine (scenario/runner.hpp) instead of hand-written
// main() loops, and their traces are judged by one set of invariant
// checkers (scenario/invariants.hpp).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "deploy/deployment.hpp"
#include "fs/fault.hpp"
#include "fs/fso.hpp"
#include "newtop/suspector.hpp"
#include "newtop/types.hpp"

namespace failsig::scenario {

/// Which deployment the scenario drives (see deploy/deployment.hpp — the
/// engine is keyed on this through deploy::make_deployment).
using deploy::SystemKind;
using deploy::name_of;

/// Which node of a fail-signal pair a fault plan targets (FS-NewTOP only).
enum class PairNode : std::uint8_t { kLeader, kFollower };

/// Payload bounds of a workload message: the smallest payload that carries
/// the 8-byte (sender, seq) latency tag, and a cap past which every member
/// materializing one payload per message runs out of memory.
inline constexpr std::size_t kMinPayload = 8;
inline constexpr std::size_t kMaxPayload = 16 * 1024 * 1024;

/// A workload message: the (sender, seq) tag padded to `size` bytes, so
/// latency can be attributed to individual multicasts at every member.
Bytes workload_payload(std::uint32_t sender, std::uint32_t seq, std::size_t size);

/// Open-loop load: arrivals follow a Poisson process at `rate` aggregate
/// requests/second across all members for `duration`, with each arrival
/// assigned to a uniformly random member. Arrival times and member choices
/// are drawn from an RNG derived from (scenario seed, event position), so
/// the offered load never depends on — and never perturbs — the network's
/// random stream: the generator keeps submitting on schedule no matter how
/// the system is keeping up, which is what makes the load *open-loop* and
/// throughput/latency-vs-offered-load plots meaningful.
struct LoadSpec {
    double rate{100.0};            ///< aggregate requests/second, must be > 0
    Duration duration{1 * kSecond};  ///< must be > 0
    std::size_t payload{kMinPayload};  ///< bytes, in [kMinPayload, kMaxPayload]
};

/// One timeline entry. Use the factory functions; `kind` says which fields
/// are meaningful (same style as newtop::GcMessage).
struct ScenarioEvent {
    enum class Kind : std::uint8_t {
        kCrashMember = 1,   ///< cut the member's host off the network
        kFaultPlan = 2,     ///< FS-NewTOP: inject fs::FaultPlan at one pair node
        kDelaySurge = 3,    ///< extra delay on all async traffic until `surge_until`
        kPartition = 4,     ///< split members into isolated groups
        kHealPartition = 5,
        kDropProbability = 6,  ///< random drop on async links from `at` on
        kBurst = 7,            ///< workload burst: extra messages from one member
        kFireTimeouts = 8,     ///< PBFT: fire the view-change liveness timers
        kLoad = 9,             ///< open-loop Poisson load phase (LoadSpec)
        kRecoverMember = 10,   ///< heal a crashed member's links and rejoin it
    };

    Kind kind{Kind::kCrashMember};
    TimePoint at{0};
    int member{-1};                         ///< kCrashMember / kFaultPlan / kBurst
    PairNode pair_node{PairNode::kLeader};  ///< kFaultPlan
    fs::FaultPlan fault_plan{};             ///< kFaultPlan
    Duration surge_extra{0};                ///< kDelaySurge
    TimePoint surge_until{0};               ///< kDelaySurge
    std::vector<std::vector<int>> groups;   ///< kPartition (member indices)
    double drop_probability{0.0};           ///< kDropProbability
    int burst_messages{0};                  ///< kBurst
    LoadSpec load_spec{};                   ///< kLoad

    static ScenarioEvent crash(TimePoint at, int member);
    static ScenarioEvent recover(TimePoint at, int member);
    static ScenarioEvent fault(TimePoint at, int member, PairNode node,
                               const fs::FaultPlan& plan);
    static ScenarioEvent delay_surge(TimePoint at, Duration extra, TimePoint until);
    static ScenarioEvent partition(TimePoint at, std::vector<std::vector<int>> groups);
    static ScenarioEvent heal_partition(TimePoint at);
    static ScenarioEvent drop(TimePoint at, double probability);
    static ScenarioEvent burst(TimePoint at, int member, int messages);
    static ScenarioEvent fire_timeouts(TimePoint at);
    static ScenarioEvent load(TimePoint at, LoadSpec spec);

    /// One-line human/trace description ("crash member=2", ...).
    [[nodiscard]] std::string describe() const;

    /// True when the event makes a member genuinely faulty (crash or fault
    /// plan), as opposed to degrading the environment (delay, partition).
    [[nodiscard]] bool is_member_fault() const {
        return kind == Kind::kCrashMember || kind == Kind::kFaultPlan;
    }
};

/// What the application layer sends: every member multicasts
/// `msgs_per_member` tagged payloads at `send_interval`, staggered across
/// members exactly like the paper's §4 runs (see bench/harness.hpp).
struct Workload {
    int msgs_per_member{10};
    std::size_t payload_size{kMinPayload};  ///< bytes, in [kMinPayload, kMaxPayload]
    Duration send_interval{80 * kMillisecond};
    newtop::ServiceType service{newtop::ServiceType::kSymmetricTotalOrder};
};

/// A complete declarative experiment specification. A run is a pure
/// function of this struct: same Scenario => byte-identical trace.
struct Scenario {
    std::string name{"unnamed"};
    SystemKind system{SystemKind::kFsNewTop};
    /// Members for NewTOP/FS-NewTOP; replicas for PBFT (needs >= 4).
    int group_size{3};
    std::uint64_t seed{1};
    /// Schedule perturbation: seeds the Simulation's same-timestamp
    /// tie-break policy (see sim::Simulation::set_tie_break). 0 — the
    /// default — keeps the historical FIFO rule, byte-identical to runs
    /// before this knob existed; non-zero installs a deterministic random
    /// permutation of equal-time events, the schedule axis the explorer
    /// (src/explore) searches over. Still a pure function of the Scenario.
    std::uint64_t tie_break_seed{0};
    int threads_per_node{2};
    /// Execution backend: the deterministic simulator (default; the only
    /// backend whose reports are byte-identical) or real sockets on
    /// localhost. Deliberately excluded from the report surface — a report
    /// describes the scenario, not the machine it ran on.
    deploy::Backend backend{deploy::Backend::kSim};
    Workload workload{};
    std::vector<ScenarioEvent> timeline;

    /// Stop simulated time here (0 = run to quiescence). Mandatory in
    /// spirit for scenarios with self-rescheduling activity (suspectors,
    /// spontaneous fail-signals); the runner derives a deadline when the
    /// author forgets.
    TimePoint deadline{0};
    /// Extra simulated time after `deadline` for in-flight traffic to
    /// settle (the runner never waits for a perpetual event loop).
    Duration settle{30 * kSecond};

    /// Request batching on the submit path of whichever stack runs (see
    /// common/batch.hpp); off by default.
    BatchConfig batch{};

    /// Replicated-app checkpoint cadence (every N applied requests; 0 = off).
    /// Feeds PBFT log truncation and the rejoin state-transfer sources; the
    /// KV digest is maintained either way.
    std::uint64_t checkpoint_interval{0};

    // System-specific knobs.
    bool start_suspectors{false};                       ///< NewTOP only
    newtop::SuspectorOptions suspector{};               ///< NewTOP only
    fsnewtop::Placement placement{fsnewtop::Placement::kCollocated};  ///< FS-NewTOP
    fs::FsConfig fs_config{};                           ///< FS-NewTOP

    /// Observability (src/obs): when enabled, the run collects lifecycle
    /// spans, metrics and a per-node flight recorder. Off by default — and
    /// deliberately excluded from the JSON report surface, so enabling
    /// it never perturbs report bytes.
    obs::ObsConfig obs{};

    /// Members a timeline event makes genuinely faulty. Invariants use this
    /// as the ground truth: exclusions and fail-signals must only ever point
    /// at members in this set.
    [[nodiscard]] std::set<int> faulted_members() const;

    /// True when no event degrades delivery (crash/fault/partition/drop) and
    /// no timeout-based suspector runs — the runs on which validity (every
    /// sent message delivered everywhere) must hold.
    [[nodiscard]] bool fault_free() const;

    /// True when some timeline entry perpetually reschedules itself
    /// (suspectors, spontaneous fail-signal loops), so run-to-quiescence
    /// would never terminate.
    [[nodiscard]] bool has_perpetual_activity() const;

    /// True when the timeline rejoins a crashed member (kRecoverMember).
    /// Gates the recovery-only checkers and the end-of-run app-state trace
    /// records, so scenarios without recovery keep byte-identical reports.
    [[nodiscard]] bool has_recovery() const;

    /// Last instant at which the declared workload injects a message.
    [[nodiscard]] TimePoint workload_end() const;

    /// Why the scenario cannot run: its first value outside the range
    /// scenario/fields.hpp states for it, or empty when there is none.
    [[nodiscard]] std::string invalid() const;
};

}  // namespace failsig::scenario
