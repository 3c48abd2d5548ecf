// Schedule-space exploration engine.
//
// Hand-written fault campaigns only exercise the schedules their authors
// imagined; the paper's claims (total order, validity, fail-signal implies
// fault) are universally quantified over schedules. The `Explorer` searches
// that space systematically, Jepsen-style: for every (system, group size,
// batch size) cell it runs N seeded episodes, each sampling
//
//   * a random schedule perturbation — a seed for the Simulation's
//     same-timestamp tie-break policy (sim::Simulation::set_tie_break),
//     permuting equal-time events into a different but network-legal
//     interleaving, and
//   * a random fault script drawn from a budgeted grammar (crashes,
//     Byzantine fs::FaultPlans, delay surges, PBFT timeout firings, bursts,
//     open-loop load) that respects each system's fault assumption (at most
//     a minority / at most f faulty members) and capability surface (fault
//     plans need a fail-signal layer, host faults need Placement::kFull),
//
// then replays it through deploy::make_deployment via the scenario engine
// and judges the trace with the invariant checkers. Episodes are pure
// functions of (config seed, cell, episode index): the report is
// byte-identical at any worker-pool job count, and any episode re-runs in
// isolation. On a violation, the delta-debugging shrinker
// (explore/shrink.hpp) minimizes the script and the emitted reproducer
// (explore/repro.hpp) re-runs it anywhere.
//
// The default grammar is *sound by construction*: it only draws fault
// combinations under which every applicable invariant is expected to hold,
// so any violation is a finding, and CI can gate on "zero violations". The
// knobs it keeps off by default (timeout suspectors on plain NewTOP —
// exactly the paper's false-suspicion pathology) are available for
// deliberately exploring known-unsound territory. Member faults overlapping
// dense traffic are part of the default grammar: the overlap is the
// view-synchronous flush's hardest axis and the regression surface CI
// fuzzes hardest.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"

namespace failsig::explore {

using scenario::Scenario;
using scenario::SystemKind;

/// Budgeted randomized fault/schedule grammar. Every knob bounds what an
/// episode may contain; the defaults are the sound subset (see file
/// comment).
struct FaultGrammar {
    /// Fault-script events sampled per episode (0..max, uniform).
    int max_fault_events{3};
    /// Event times are drawn uniformly from [0, horizon).
    TimePoint horizon{2 * kSecond};
    bool crashes{true};
    bool fault_plans{true};    ///< FS-NewTOP only (needs a fail-signal layer)
    bool delay_surges{true};
    bool bursts{true};
    bool loads{true};
    bool pbft_timeouts{true};  ///< PBFT only (fire_timeouts)
    /// DELIBERATELY UNSOUND when combined with delay surges: timeout-based
    /// suspicion on plain NewTOP is the false-exclusion pathology the paper
    /// exists to fix. Off by default so the default grammar stays sound;
    /// turn on to watch the explorer rediscover the paper's Figure-of-merit
    /// failure (no-false-exclusion trips).
    bool newtop_suspectors{false};
    /// Churn episodes: the grammar may draw a crash -> recover pair for one
    /// victim (links healed and the rejoin protocol run a generous gap after
    /// the crash), exercising checkpoint transfer and the rejoined-state /
    /// KV-linearizability checkers inside one episode. Crashed members must
    /// actually be excluded before they can rejoin, so on plain NewTOP the
    /// draw additionally requires `newtop_suspectors`. Off by default: churn
    /// runs under a dedicated CI campaign with a pinned seed, not inside the
    /// default soundness sweep.
    bool churn{false};
};

struct ExploreConfig {
    std::vector<SystemKind> systems{SystemKind::kNewTop, SystemKind::kFsNewTop,
                                    SystemKind::kPbft};
    std::vector<int> group_sizes{3, 4};
    /// BatchConfig::max_requests axis; 1 = batching off.
    std::vector<std::size_t> batch_sizes{1};
    int episodes_per_cell{8};
    std::uint64_t seed{1};
    FaultGrammar grammar{};
    /// Background workload every episode runs (the grammar adds bursts and
    /// load phases on top).
    scenario::Workload workload{};
    /// Worker threads for the episode fan-out (0 = hardware concurrency).
    /// The report is byte-identical for every value.
    int jobs{0};
    /// Minimize violations and emit reproducers (off = report-only, used by
    /// determinism tests to keep run counts predictable).
    bool shrink{true};
    /// Oracle set; empty = the builtin invariant checkers. Tests inject
    /// deliberately weakened checkers here to exercise the shrinker
    /// pipeline end-to-end.
    std::vector<const scenario::Invariant*> checkers;
    /// Heartbeat: call `progress` after every `progress_every` completed
    /// episodes (and once at the end). 0 or an empty callback = off. The
    /// fan-out is chunked to honour the cadence, but episodes are
    /// independent pure functions, so the report stays byte-identical.
    int progress_every{0};
    std::function<void(std::size_t done, std::size_t total, std::size_t violated)> progress;
};

struct EpisodeOutcome {
    Scenario scenario;
    std::vector<scenario::InvariantResult> invariants;
    bool violated{false};
    /// First failing checker (the violation the shrinker preserves).
    std::string violated_invariant;
    std::uint64_t trace_events{0};
    /// FNV-1a of the canonical trace: a compact determinism witness that
    /// lands in the report (byte-identical across job counts) without
    /// inlining whole traces.
    std::uint64_t trace_hash{0};
};

struct ViolationRecord {
    /// Index into ExploreReport::episodes.
    std::size_t episode{0};
    std::string invariant;
    Scenario minimal;
    /// Emitted reproducer (explore/repro.hpp spec text, expect_violation
    /// recorded); explore_cli also writes it to --repro-dir.
    std::string spec;
    /// Canonical trace of the minimal scenario's run.
    std::string minimal_trace;
    /// Flight-recorder dump from a deterministic obs-enabled re-run of the
    /// minimal scenario: each node's recent event timeline at the moment
    /// the violation fired. Forensic evidence beside the reproducer —
    /// excluded from to_json (the report stays trace-hash sized);
    /// explore_cli writes it to `<repro>.flight`.
    std::string flight_dump;
    int original_events{0};
    int minimal_events{0};
    int oracle_runs{0};
};

struct ExploreReport {
    ExploreConfig config;
    std::vector<EpisodeOutcome> episodes;
    std::vector<ViolationRecord> violations;

    [[nodiscard]] bool clean() const { return violations.empty(); }
    /// Machine-readable rendering ("failsig-explore-report-v1"); a pure
    /// function of the outcomes, byte-identical across job counts.
    [[nodiscard]] std::string to_json() const;
};

/// Deterministic per-episode master seed: a splitmix64 chain over
/// (config seed, system, group size, batch size, episode index). Like the
/// sweep's derive_cell_seed, deliberately independent of the cell's position
/// in the config axes, so narrowing the config reproduces an episode.
std::uint64_t derive_episode_seed(std::uint64_t config_seed, SystemKind system, int n,
                                  std::size_t batch, int episode);

/// Generates the `episode`-th scenario of cell (system, n, batch): the
/// schedule perturbation seed plus a grammar-sampled fault script. Pure.
Scenario generate_episode(const ExploreConfig& config, SystemKind system, int n,
                          std::size_t batch, int episode);

/// Runs the full exploration: every cell × episode on the worker pool, then
/// shrinks violations (serially, in episode order) when config.shrink.
ExploreReport explore(const ExploreConfig& config);

}  // namespace failsig::explore
