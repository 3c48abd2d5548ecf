#include "explore/explore.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "explore/repro.hpp"
#include "explore/shrink.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"

namespace failsig::explore {

namespace {

using scenario::ScenarioEvent;

/// Fault-event kinds the grammar can draw for one system. Kept in a fixed
/// order so sampling is a pure function of the RNG stream.
enum class Draw : std::uint8_t {
    kCrash,
    kFaultPlan,
    kDelaySurge,
    kBurst,
    kLoad,
    kPbftTimeouts,
    kChurn,
};

std::vector<Draw> allowed_draws(const FaultGrammar& g, SystemKind system, int n,
                                int member_fault_budget) {
    std::vector<Draw> draws;
    const bool member_fault_ok = member_fault_budget > 0;
    if (g.crashes && member_fault_ok) {
        // NewTOP/PBFT crash hosts directly; FS-NewTOP episodes run the
        // dedicated-node placement (set in generate_episode) so host faults
        // are always expressible.
        draws.push_back(Draw::kCrash);
    }
    if (g.fault_plans && member_fault_ok && system == SystemKind::kFsNewTop) {
        draws.push_back(Draw::kFaultPlan);
    }
    if (g.delay_surges) draws.push_back(Draw::kDelaySurge);
    if (g.bursts && n > 0) draws.push_back(Draw::kBurst);
    if (g.loads) draws.push_back(Draw::kLoad);
    if (g.pbft_timeouts && system == SystemKind::kPbft) draws.push_back(Draw::kPbftTimeouts);
    if (g.churn && member_fault_ok &&
        (system != SystemKind::kNewTop || g.newtop_suspectors)) {
        // A member must actually be excluded before it can rejoin; plain
        // NewTOP only excludes when timeout suspectors run.
        draws.push_back(Draw::kChurn);
    }
    return draws;
}

/// How many members may become genuinely faulty without breaking the
/// assumption the invariants are proved under: a minority for the NewTOP
/// family (paper assumption A2), f = (n-1)/3 for PBFT.
int member_fault_budget(SystemKind system, int n) {
    if (system == SystemKind::kPbft) return (n - 1) / 3;
    return (n - 1) / 2;
}

ScenarioEvent sample_fault_plan(Rng& rng, int member, TimePoint at) {
    fs::FaultPlan plan;
    // One primary fault mode, uniformly; secondary modes pile on with low
    // probability so most scripts stay single-mode (easier shrinks).
    switch (rng.uniform(5)) {
        case 0: plan.corrupt_outputs = true; break;
        case 1: plan.drop_outputs = true; break;
        case 2: plan.misorder_inputs = true; break;
        case 3: plan.spontaneous_fail_signals = true; break;
        case 4: plan.extra_processing_delay = 5 * kMillisecond +
                    static_cast<Duration>(rng.uniform(95 * kMillisecond));
                break;
    }
    if (rng.chance(0.2)) plan.corrupt_outputs = true;
    if (rng.chance(0.2)) plan.probability = 0.5;
    const auto node =
        rng.chance(0.5) ? scenario::PairNode::kLeader : scenario::PairNode::kFollower;
    return ScenarioEvent::fault(at, member, node, plan);
}

}  // namespace

std::uint64_t derive_episode_seed(std::uint64_t config_seed, SystemKind system, int n,
                                  std::size_t batch, int episode) {
    std::uint64_t state = config_seed;
    std::uint64_t h = splitmix64(state);
    state = h ^ static_cast<std::uint64_t>(system);
    h = splitmix64(state);
    state = h ^ static_cast<std::uint64_t>(n);
    h = splitmix64(state);
    state = h ^ static_cast<std::uint64_t>(batch);
    h = splitmix64(state);
    state = h ^ static_cast<std::uint64_t>(episode);
    return splitmix64(state);
}

Scenario generate_episode(const ExploreConfig& config, SystemKind system, int n,
                          std::size_t batch, int episode) {
    const std::uint64_t master = derive_episode_seed(config.seed, system, n, batch, episode);
    // Independent streams for the network seed, the schedule perturbation
    // and the grammar draws: a change in one axis never shifts the others.
    std::uint64_t state = master ^ 0x6e657477ULL;  // "netw"
    const std::uint64_t net_seed = splitmix64(state);
    state = master ^ 0x74696562ULL;  // "tieb"
    std::uint64_t tie_seed = splitmix64(state);
    if (tie_seed == 0) tie_seed = 1;  // 0 means "FIFO default"; stay on the axis
    state = master ^ 0x6772616dULL;  // "gram"
    Rng rng(splitmix64(state));

    Scenario s;
    s.name = std::string("explore/") + scenario::name_of(system) + "/n" + std::to_string(n) +
             "/b" + std::to_string(batch) + "/e" + std::to_string(episode);
    s.system = system;
    s.group_size = n;
    s.seed = net_seed;
    s.tie_break_seed = tie_seed;
    s.workload = config.workload;
    s.batch.max_requests = batch;
    if (system == SystemKind::kFsNewTop) {
        // Dedicated pair nodes: host-level faults stay expressible for every
        // script the grammar can draw.
        s.placement = fsnewtop::Placement::kFull;
    }
    if (system == SystemKind::kNewTop && config.grammar.newtop_suspectors) {
        s.start_suspectors = true;
        s.suspector.ping_interval = 50 * kMillisecond;
        s.suspector.suspect_timeout = 300 * kMillisecond;
    }
    if (config.grammar.churn) {
        // Churn campaigns run the replicated app with periodic checkpoints so
        // a drawn crash -> recover arc exercises the state-transfer path
        // (and PBFT's log truncation) rather than replaying from genesis.
        s.checkpoint_interval = 25;
    }

    const FaultGrammar& g = config.grammar;
    int fault_budget = member_fault_budget(system, n);
    std::set<int> faulted;
    TimePoint churn_end = 0;
    const int events = static_cast<int>(rng.uniform(
        static_cast<std::uint64_t>(std::max(0, g.max_fault_events)) + 1));
    for (int k = 0; k < events; ++k) {
        const auto draws = allowed_draws(g, system, n, fault_budget);
        if (draws.empty()) break;
        const Draw draw = draws[rng.uniform(draws.size())];
        const TimePoint at = static_cast<TimePoint>(
            rng.uniform(static_cast<std::uint64_t>(std::max<TimePoint>(g.horizon, 1))));
        switch (draw) {
            case Draw::kCrash:
            case Draw::kFaultPlan: {
                // Victims are distinct and bounded by the fault budget.
                int member = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
                while (faulted.contains(member)) member = (member + 1) % n;
                faulted.insert(member);
                --fault_budget;
                if (draw == Draw::kCrash) {
                    s.timeline.push_back(ScenarioEvent::crash(at, member));
                } else {
                    s.timeline.push_back(sample_fault_plan(rng, member, at));
                }
                break;
            }
            case Draw::kDelaySurge: {
                const Duration extra = 10 * kMillisecond +
                    static_cast<Duration>(rng.uniform(490 * kMillisecond));
                const Duration span = 200 * kMillisecond +
                    static_cast<Duration>(rng.uniform(1800 * kMillisecond));
                s.timeline.push_back(ScenarioEvent::delay_surge(at, extra, at + span));
                break;
            }
            case Draw::kBurst: {
                const int member = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
                const int messages = 1 + static_cast<int>(rng.uniform(6));
                s.timeline.push_back(ScenarioEvent::burst(at, member, messages));
                break;
            }
            case Draw::kLoad: {
                scenario::LoadSpec load;
                load.rate = 50.0 + static_cast<double>(rng.uniform(200));
                load.duration = 100 * kMillisecond +
                    static_cast<Duration>(rng.uniform(300 * kMillisecond));
                load.payload = 8 + static_cast<std::size_t>(rng.uniform(25));
                s.timeline.push_back(ScenarioEvent::load(at, load));
                break;
            }
            case Draw::kPbftTimeouts:
                s.timeline.push_back(ScenarioEvent::fire_timeouts(at));
                break;
            case Draw::kChurn: {
                // One crash -> recover -> rejoin arc. The gap is generous
                // (suspicion, exclusion and the flush must all land before
                // the rejoin starts) and the recovery instant extends the
                // deadline so the state transfer has room to finish.
                int member = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
                while (faulted.contains(member)) member = (member + 1) % n;
                faulted.insert(member);
                --fault_budget;
                const Duration gap =
                    1 * kSecond + static_cast<Duration>(rng.uniform(1 * kSecond));
                s.timeline.push_back(ScenarioEvent::crash(at, member));
                s.timeline.push_back(ScenarioEvent::recover(at + gap, member));
                churn_end = std::max(churn_end, at + gap);
                break;
            }
        }
    }
    // Canonical timeline order (stable in the sampled order for equal
    // times): reproducer specs read chronologically.
    std::stable_sort(s.timeline.begin(), s.timeline.end(),
                     [](const ScenarioEvent& a, const ScenarioEvent& b) { return a.at < b.at; });

    // Always bound the run: crashes can stall quiescence-reaching protocols
    // behind missing ACKs, and spontaneous fail-signal plans never quiesce.
    s.deadline = std::max({s.workload_end(), g.horizon, churn_end}) + 5 * kSecond;
    return s;
}

ExploreReport explore(const ExploreConfig& config) {
    ExploreReport report;
    report.config = config;

    // Materialize every episode in canonical cell order first — generation
    // is pure and cheap; the expensive runs then fan out on the worker pool
    // with results landing back in this order regardless of job count.
    std::vector<Scenario> episodes;
    for (const SystemKind system : config.systems) {
        for (const int n : config.group_sizes) {
            if (n < deploy::traits_of(system).min_group_size) continue;
            for (const std::size_t batch : config.batch_sizes) {
                for (int e = 0; e < config.episodes_per_cell; ++e) {
                    episodes.push_back(generate_episode(config, system, n, batch, e));
                }
            }
        }
    }

    // Heartbeat mode chunks the fan-out so the callback fires on cadence;
    // episodes are independent pure functions, so chunking (like the job
    // count) cannot change a single report byte.
    const bool heartbeat = config.progress_every > 0 && config.progress;
    const std::size_t chunk =
        heartbeat ? static_cast<std::size_t>(config.progress_every) : episodes.size();
    report.episodes.reserve(episodes.size());
    std::size_t violated_count = 0;
    for (std::size_t start = 0; start < episodes.size(); start += chunk) {
        const std::size_t end = std::min(episodes.size(), start + chunk);
        const std::vector<Scenario> slice(episodes.begin() + static_cast<std::ptrdiff_t>(start),
                                          episodes.begin() + static_cast<std::ptrdiff_t>(end));
        const auto runs = scenario::run_scenarios(slice, config.jobs);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            EpisodeOutcome outcome;
            outcome.scenario = episodes[start + i];
            outcome.invariants = config.checkers.empty()
                                     ? runs[i].invariants
                                     : scenario::evaluate(runs[i].scenario, runs[i].trace,
                                                          config.checkers);
            for (const auto& inv : outcome.invariants) {
                if (!inv.passed) {
                    outcome.violated = true;
                    outcome.violated_invariant = inv.name;
                    break;
                }
            }
            if (outcome.violated) ++violated_count;
            outcome.trace_events = runs[i].trace.size();
            outcome.trace_hash = fnv1a(bytes_of(runs[i].trace.canonical()));
            report.episodes.push_back(std::move(outcome));
        }
        if (heartbeat) config.progress(end, episodes.size(), violated_count);
    }

    // Violations shrink serially, in episode order (the shrinker re-runs
    // scenarios; determinism of the report does not depend on it). With
    // shrinking off, the episode itself is recorded as the "minimal" form.
    for (std::size_t i = 0; i < report.episodes.size(); ++i) {
        const auto& outcome = report.episodes[i];
        if (!outcome.violated) continue;
        ViolationRecord record;
        record.episode = i;
        record.invariant = outcome.violated_invariant;
        record.original_events = static_cast<int>(outcome.scenario.timeline.size());
        if (config.shrink) {
            auto shrunk =
                shrink(outcome.scenario, outcome.violated_invariant, config.checkers);
            record.minimal = std::move(shrunk.minimal);
            record.minimal_trace = std::move(shrunk.trace);
            record.oracle_runs = shrunk.oracle_runs;
        } else {
            record.minimal = outcome.scenario;
        }
        record.minimal_events = static_cast<int>(record.minimal.timeline.size());
        record.spec = to_spec(record.minimal, outcome.violated_invariant);
        // Forensics beside the reproducer: re-run the minimal scenario with
        // the flight recorder on (deterministic — same trace, now with each
        // node's recent timeline captured) and attach the dump.
        Scenario forensic = record.minimal;
        forensic.obs.enabled = true;
        record.flight_dump = scenario::run_scenario(forensic).flight_dump;
        report.violations.push_back(std::move(record));
    }
    return report;
}

std::string ExploreReport::to_json() const {
    scenario::JsonWriter w;
    w.begin_object();
    w.field("format", "failsig-explore-report-v1");

    w.key("config");
    w.begin_object();
    w.begin_array("systems");
    for (const SystemKind system : config.systems) {
        w.begin_object();
        w.field("system", scenario::name_of(system));
        w.end_object();
    }
    w.end_array();
    w.begin_array("group_sizes");
    for (const int n : config.group_sizes) {
        w.begin_object();
        w.field("n", n);
        w.end_object();
    }
    w.end_array();
    w.begin_array("batch_sizes");
    for (const std::size_t b : config.batch_sizes) {
        w.begin_object();
        w.field("batch", static_cast<std::uint64_t>(b));
        w.end_object();
    }
    w.end_array();
    w.field("episodes_per_cell", config.episodes_per_cell);
    w.field("seed", static_cast<std::uint64_t>(config.seed));
    w.field("max_fault_events", config.grammar.max_fault_events);
    w.field("horizon_us", static_cast<std::int64_t>(config.grammar.horizon));
    w.field("crashes", config.grammar.crashes);
    w.field("fault_plans", config.grammar.fault_plans);
    w.field("delay_surges", config.grammar.delay_surges);
    w.field("bursts", config.grammar.bursts);
    w.field("loads", config.grammar.loads);
    w.field("pbft_timeouts", config.grammar.pbft_timeouts);
    w.field("newtop_suspectors", config.grammar.newtop_suspectors);
    w.field("churn", config.grammar.churn);
    w.field("shrink", config.shrink);
    w.field("custom_checkers", !config.checkers.empty());
    w.end_object();

    w.begin_array("episodes");
    for (const auto& e : episodes) {
        w.begin_object();
        w.field("name", e.scenario.name);
        w.field("system", scenario::name_of(e.scenario.system));
        w.field("group_size", e.scenario.group_size);
        w.field("batch", static_cast<std::uint64_t>(e.scenario.batch.max_requests));
        w.field("seed", static_cast<std::uint64_t>(e.scenario.seed));
        w.field("tie_break_seed", static_cast<std::uint64_t>(e.scenario.tie_break_seed));
        w.field("fault_events", static_cast<std::uint64_t>(e.scenario.timeline.size()));
        w.field("violated", e.violated);
        if (e.violated) w.field("violated_invariant", e.violated_invariant);
        w.field("trace_events", e.trace_events);
        w.field("trace_hash", e.trace_hash);
        w.end_object();
    }
    w.end_array();

    w.begin_array("violations");
    for (const auto& v : violations) {
        w.begin_object();
        w.field("episode", static_cast<std::uint64_t>(v.episode));
        w.field("episode_name", episodes[v.episode].scenario.name);
        w.field("invariant", v.invariant);
        w.field("original_events", v.original_events);
        w.field("minimal_events", v.minimal_events);
        w.field("oracle_runs", v.oracle_runs);
        w.field("spec", v.spec);
        w.end_object();
    }
    w.end_array();

    w.field("episode_count", static_cast<std::uint64_t>(episodes.size()));
    w.field("violation_count", static_cast<std::uint64_t>(violations.size()));
    w.field("clean", clean());
    w.end_object();
    return w.take() + "\n";
}

}  // namespace failsig::explore
