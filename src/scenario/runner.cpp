#include "scenario/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "deploy/deployment.hpp"
#include "sim/stats.hpp"

namespace failsig::scenario {

namespace {

/// Mutable state shared by the workload scheduler, the observer hooks and
/// the metric computation of one run.
struct RunState {
    const Scenario& s;
    /// On the sim backend every hook runs on the one driver thread and the
    /// mutex is uncontended; on the TCP backend delivery/view/fail-signal
    /// hooks fire on per-node executor threads and genuinely need it.
    std::mutex mu;
    Trace trace;
    sim::Stats latencies_ms;
    std::map<std::pair<std::uint32_t, std::uint32_t>, TimePoint> sent_at;
    TimePoint first_send{0};
    TimePoint last_delivery{0};
    std::uint64_t sent_count{0};
    std::uint64_t delivery_count{0};
    std::vector<std::uint32_t> next_seq;
    /// Observability context of this run (nullptr = off): run-level events
    /// (views, fail-signals, injected faults) are mirrored into the flight
    /// recorder so a violation dump shows them interleaved with span stamps.
    obs::Obs* obs{nullptr};

    explicit RunState(const Scenario& scenario)
        : s(scenario), next_seq(static_cast<std::size_t>(scenario.group_size), 0) {}

    void on_sent(int member, std::uint32_t seq, TimePoint now) {
        const std::lock_guard lock(mu);
        if (sent_count == 0) first_send = now;
        ++sent_count;
        sent_at[{static_cast<std::uint32_t>(member), seq}] = now;
        TraceEvent e;
        e.kind = TraceEvent::Kind::kSent;
        e.at = now;
        e.member = member;
        e.sender = static_cast<std::uint32_t>(member);
        e.seq = seq;
        trace.record(std::move(e));
    }

    void on_delivered(int member, const Bytes& payload, TimePoint now) {
        const std::lock_guard lock(mu);
        if (payload.size() < 8) return;
        ByteReader r(payload);
        const auto sender = r.u32();
        const auto seq = r.u32();
        TraceEvent e;
        e.kind = TraceEvent::Kind::kDelivered;
        e.at = now;
        e.member = member;
        e.sender = sender;
        e.seq = seq;
        trace.record(std::move(e));
        ++delivery_count;
        last_delivery = std::max(last_delivery, now);
        const auto it = sent_at.find({sender, seq});
        if (it != sent_at.end()) {
            latencies_ms.add(static_cast<double>(now - it->second) / kMillisecond);
        }
    }

    void on_view(int member, const newtop::GroupView& view, TimePoint now) {
        const std::lock_guard lock(mu);
        TraceEvent e;
        e.kind = TraceEvent::Kind::kViewInstalled;
        e.at = now;
        e.member = member;
        e.seq = view.view_id;
        e.view_members = view.members;
        e.detail = "view_id=" + std::to_string(view.view_id);
        if (obs != nullptr) obs->note(member, "view installed: " + e.detail);
        trace.record(std::move(e));
    }

    void on_fail_signal(int member, const std::string& name, const std::string& reason,
                        TimePoint now) {
        const std::lock_guard lock(mu);
        TraceEvent e;
        e.kind = TraceEvent::Kind::kFailSignal;
        e.at = now;
        e.member = member;
        e.detail = name + ": " + reason;
        if (obs != nullptr) obs->note(member, "fail-signal " + e.detail);
        trace.record(std::move(e));
    }

    void on_middleware_failure(int member, const std::string& fs_name, TimePoint now) {
        const std::lock_guard lock(mu);
        TraceEvent e;
        e.kind = TraceEvent::Kind::kMiddlewareFailure;
        e.at = now;
        e.member = member;
        e.detail = fs_name;
        if (obs != nullptr) obs->note(member, "middleware failure: " + fs_name);
        trace.record(std::move(e));
    }
};

void fire_send(RunState& st, deploy::Deployment& d, int member, std::size_t payload_size) {
    const std::uint32_t seq = st.next_seq[static_cast<std::size_t>(member)]++;
    Bytes payload = workload_payload(static_cast<std::uint32_t>(member), seq, payload_size);
    st.on_sent(member, seq, d.now());
    d.submit(member, std::move(payload));
}

/// Schedules one kLoad event's open-loop arrival process. All arrivals are
/// materialized up front from an RNG derived from (scenario seed, event
/// position) alone — deterministic, and independent of both the network's
/// random stream and the system's progress (the generator never waits for
/// deliveries; that is what "open-loop" means).
void schedule_load(deploy::Deployment& d, RunState& st, const ScenarioEvent& event,
                   std::size_t event_index) {
    const LoadSpec& spec = event.load_spec;
    std::uint64_t state = st.s.seed ^ 0x10adf00ddeadbeefULL;
    std::uint64_t h = splitmix64(state);
    state = h ^ static_cast<std::uint64_t>(event_index);
    Rng rng(splitmix64(state));

    const double mean_us = 1e6 / spec.rate;
    const int n = st.s.group_size;
    const TimePoint end = event.at + spec.duration;
    TimePoint t = event.at;
    for (;;) {
        t += std::max<Duration>(
            1, static_cast<Duration>(rng.exponential(mean_us) + 0.5));
        if (t >= end) break;
        const int member = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
        d.schedule(t, [&st, &d, member, payload = spec.payload] {
            fire_send(st, d, member, payload);
        });
    }
}

/// Members are staggered across the send interval, as independent
/// applications would be (identical to the figure benches' injection).
void schedule_workload(deploy::Deployment& d, RunState& st) {
    const auto& w = st.s.workload;
    const int n = st.s.group_size;
    for (int k = 0; k < w.msgs_per_member; ++k) {
        for (int i = 0; i < n; ++i) {
            const TimePoint at = static_cast<TimePoint>(k) * w.send_interval +
                                 (static_cast<TimePoint>(i) * w.send_interval) / n;
            d.schedule(at, [&st, &d, i] { fire_send(st, d, i, st.s.workload.payload_size); });
        }
    }
}

/// Applies the declarative fault timeline through the Deployment interface.
/// Capability-gated hooks (fault plans, liveness timers) record a
/// not-applicable note instead of acting when the stack lacks the layer.
void schedule_timeline(deploy::Deployment& d, RunState& st) {
    for (std::size_t index = 0; index < st.s.timeline.size(); ++index) {
        const auto& event = st.s.timeline[index];
        // Load arrivals are pre-materialized (deterministically) rather than
        // generated inside the event callback; the callback below still
        // records the event in the trace.
        if (event.kind == ScenarioEvent::Kind::kLoad) schedule_load(d, st, event, index);
        d.schedule(event.at, [&st, &d, event] {
            TraceEvent te;
            te.kind = TraceEvent::Kind::kScenarioEvent;
            te.at = d.now();
            te.member = event.member;
            te.detail = event.describe();
            using Kind = ScenarioEvent::Kind;
            switch (event.kind) {
                case Kind::kCrashMember:
                    d.crash(event.member);
                    break;
                case Kind::kFaultPlan: {
                    deploy::FaultInjection fault;
                    fault.member = event.member;
                    fault.at_leader = event.pair_node == PairNode::kLeader;
                    fault.plan = event.fault_plan;
                    if (!d.inject_fault(fault)) {
                        te.detail += " [ignored: no fail-signal layer]";
                    }
                    break;
                }
                case Kind::kDelaySurge:
                    d.faults().delay_surge(event.surge_extra, event.surge_until);
                    break;
                case Kind::kPartition:
                    d.partition(event.groups);
                    break;
                case Kind::kHealPartition:
                    d.faults().heal_partition();
                    break;
                case Kind::kDropProbability:
                    d.faults().set_drop_probability(event.drop_probability);
                    break;
                case Kind::kBurst:
                    for (int b = 0; b < event.burst_messages; ++b) {
                        fire_send(st, d, event.member, st.s.workload.payload_size);
                    }
                    break;
                case Kind::kFireTimeouts:
                    if (!d.fire_timeouts()) {
                        te.detail += " [ignored: no liveness timers]";
                    }
                    break;
                case Kind::kLoad:
                    break;  // arrivals pre-scheduled by schedule_load
                case Kind::kRecoverMember:
                    d.recover(event.member);
                    break;
            }
            if (st.obs != nullptr) st.obs->note(event.member, "scenario event: " + te.detail);
            st.trace.record(std::move(te));
        });
    }
}

/// Runs the simulation: to quiescence when possible, otherwise to the
/// (possibly derived) deadline plus a bounded settle window — perpetual
/// event loops (suspector pings, spontaneous fail-signals) can therefore
/// never wedge a run.
void drive(deploy::Deployment& d, const Scenario& s) {
    TimePoint deadline = s.deadline;
    if (deadline == 0 && s.has_perpetual_activity()) {
        deadline = s.workload_end() + 10 * kSecond;
    }
    if (deadline == 0) {
        d.run();
        return;
    }
    d.run_until(deadline);
    d.stop_perpetual();
    d.run_until(deadline + s.settle);
}

ScenarioReport finish(RunState& st, deploy::Deployment& dep, obs::Obs* obs) {
    net::Transport& net = dep.network();
    const TimePoint now = dep.now();

    // Recovery scenarios close with one app_state record per member: the
    // replicated KV store's fold of that member's committed prefix, which the
    // rejoined-state and linearizability checkers compare. Gated on the
    // timeline so runs without recovery keep byte-identical traces.
    if (st.s.has_recovery()) {
        for (int m = 0; m < st.s.group_size; ++m) {
            const auto info = dep.app_state_of(m);
            if (!info.has_value()) continue;
            TraceEvent e;
            e.kind = TraceEvent::Kind::kAppState;
            e.at = now;
            e.member = m;
            e.seq = info->applied;
            e.detail = info->detail;
            st.trace.record(std::move(e));
        }
    }

    ScenarioReport report;
    report.scenario = st.s;
    report.trace = std::move(st.trace);
    report.recovery = dep.recovery_stats();

    auto& m = report.metrics;
    m.mean_latency_ms = st.latencies_ms.mean();
    m.p95_latency_ms = st.latencies_ms.percentile(0.95);
    const double makespan_s = static_cast<double>(st.last_delivery - st.first_send) / kSecond;
    m.throughput_msg_s =
        makespan_s > 0 ? static_cast<double>(st.sent_count) / makespan_s : 0.0;
    m.network_messages = net.messages_sent();
    m.network_bytes = net.bytes_sent();
    m.messages_sent = st.sent_count;
    m.observed_deliveries = st.delivery_count;
    m.expected_deliveries = st.sent_count * static_cast<std::uint64_t>(st.s.group_size);
    m.views_installed = report.trace.count(TraceEvent::Kind::kViewInstalled);
    m.fail_signal_events = report.trace.count(TraceEvent::Kind::kFailSignal) +
                           report.trace.count(TraceEvent::Kind::kMiddlewareFailure);
    m.fail_signals = m.fail_signal_events > 0;
    m.finished_at = now;
    const BatchStats batch = dep.batch_stats();
    m.requests_submitted = batch.requests_submitted;
    m.requests_batched = batch.requests_batched;
    m.batches_formed = batch.batches_formed;
    m.flushes_on_deadline = batch.flushes_on_deadline;
    m.payload_bytes_copied = net.payload_bytes_copied();
    m.payload_bodies_encoded = net.payload_bodies_encoded();
    m.verify_ops = dep.crypto_verify_ops();
    m.verify_cache_hits = dep.crypto_verify_cache_hits();

    report.invariants = evaluate(report.scenario, report.trace);

    if (obs != nullptr) {
        // End-of-run simulator gauges, then the deterministic exports. All
        // values are pure functions of the Scenario, so these artifacts are
        // byte-identical at any --jobs count.
        auto& registry = obs->metrics();
        registry.gauge("sim.events_fired").set(static_cast<std::int64_t>(dep.sim().events_fired()));
        registry.gauge("sim.queue_footprint")
            .set(static_cast<std::int64_t>(dep.sim().queue_footprint()));
        registry.gauge("sim.max_queue_footprint")
            .set(static_cast<std::int64_t>(dep.sim().max_queue_footprint()));
        registry.gauge("crypto.memo_high_water")
            .set(static_cast<std::int64_t>(dep.crypto_memo_high_water()));
        report.metrics_json = obs->metrics_json(st.s.name);
        report.flight_dump = obs->flight().dump();
        report.obs_counters = registry.counter_snapshot();
    }
    return report;
}

deploy::DeploymentSpec spec_of(const Scenario& s) {
    deploy::DeploymentSpec spec;
    spec.group_size = s.group_size;
    spec.threads_per_node = s.threads_per_node;
    spec.seed = s.seed;
    spec.service = s.workload.service;
    spec.batch = s.batch;
    spec.start_suspectors = s.start_suspectors;
    spec.suspector = s.suspector;
    spec.placement = s.placement;
    spec.fs_config = s.fs_config;
    spec.backend = s.backend;
    spec.checkpoint_interval = s.checkpoint_interval;
    return spec;
}

/// Runs `fn(0..count-1)` on `jobs` workers (0 = hardware concurrency),
/// pulling indices from a shared counter. All cells run even if some throw;
/// the lowest-index exception is rethrown afterwards, so failure behaviour
/// does not depend on scheduling.
void parallel_for(std::size_t count, int jobs, const std::function<void(std::size_t)>& fn) {
    if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs < 1) jobs = 1;
    jobs = static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(jobs), count));

    std::vector<std::exception_ptr> errors(count);
    if (jobs <= 1) {
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> workers;
        workers.reserve(static_cast<std::size_t>(jobs));
        for (int t = 0; t < jobs; ++t) {
            workers.emplace_back([&next, count, &fn, &errors] {
                for (;;) {
                    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= count) return;
                    try {
                        fn(i);
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                }
            });
        }
        for (auto& worker : workers) worker.join();
    }
    for (auto& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

}  // namespace

ScenarioReport run_scenario(const Scenario& scenario) {
    if (const std::string why = scenario.invalid(); !why.empty()) {
        throw std::invalid_argument("scenario: " + why);
    }

    // The run owns its observability context: single-threaded by
    // construction (everything below executes on this run's event loop), so
    // parallel sweep workers never share one.
    std::unique_ptr<obs::Obs> obs;
    deploy::DeploymentSpec spec = spec_of(scenario);
    // Observability binds to the one deterministic clock of the sim backend;
    // the TCP backend has one event loop per node, so tracing stays off there.
    if (scenario.obs.enabled && scenario.backend == deploy::Backend::kSim) {
        obs = std::make_unique<obs::Obs>();
        spec.obs = obs.get();
    }
    const auto d = deploy::make_deployment(scenario.system, spec);

    // Schedule perturbation: a non-zero tie_break_seed permutes same-time
    // events with a key that is a pure hash of (seed, event id) — the run
    // stays a pure function of the Scenario, it just explores a different
    // (equally network-legal) interleaving. Events the deployment scheduled
    // during construction keep their FIFO keys; everything the workload and
    // timeline schedule from here on is subject to the policy.
    if (scenario.tie_break_seed != 0) {
        d->sim().set_tie_break(
            [seed = scenario.tie_break_seed](sim::Simulation::EventId id, TimePoint) {
                std::uint64_t state = seed ^ (id * 0x9e3779b97f4a7c15ULL);
                return splitmix64(state);
            });
    }

    // Host-level events (crashes, partitions) need a placement that can
    // express them; reject up front instead of silently severing healthy
    // infrastructure (FS-NewTOP's collocated hosts are shared between pairs).
    const bool has_host_event = std::any_of(
        scenario.timeline.begin(), scenario.timeline.end(), [](const ScenarioEvent& e) {
            return e.kind == ScenarioEvent::Kind::kCrashMember ||
                   e.kind == ScenarioEvent::Kind::kPartition ||
                   e.kind == ScenarioEvent::Kind::kRecoverMember;
        });
    if (has_host_event && !d->supports_host_faults()) {
        throw ScenarioRejected(
            "scenario: crash/partition events need a deployment that can express host "
            "faults (FS-NewTOP requires Placement::kFull — collocated hosts are shared "
            "between pairs)");
    }

    RunState st(scenario);
    st.obs = obs.get();
    deploy::Observers observers;
    deploy::Deployment& dep = *d;
    observers.delivered = [&st, &dep](int member, const Bytes& payload) {
        st.on_delivered(member, payload, dep.now());
    };
    observers.view_installed = [&st, &dep](int member, const newtop::GroupView& view) {
        st.on_view(member, view, dep.now());
    };
    observers.fail_signal = [&st, &dep](int member, const std::string& source,
                                        const std::string& reason) {
        st.on_fail_signal(member, source, reason, dep.now());
    };
    observers.middleware_failure = [&st, &dep](int member, const std::string& source) {
        st.on_middleware_failure(member, source, dep.now());
    };
    dep.attach(std::move(observers));

    schedule_workload(dep, st);
    schedule_timeline(dep, st);
    drive(dep, scenario);
    return finish(st, dep, obs.get());
}

std::vector<ScenarioReport> run_scenarios(const std::vector<Scenario>& scenarios, int jobs) {
    std::vector<ScenarioReport> reports(scenarios.size());
    parallel_for(scenarios.size(), jobs,
                 [&](std::size_t i) { reports[i] = run_scenario(scenarios[i]); });
    return reports;
}

std::uint64_t derive_cell_seed(std::uint64_t axis_seed, SystemKind system, int group_size) {
    std::uint64_t state = axis_seed;
    std::uint64_t h = splitmix64(state);
    state = h ^ static_cast<std::uint64_t>(system);
    h = splitmix64(state);
    state = h ^ static_cast<std::uint64_t>(group_size);
    return splitmix64(state);
}

std::vector<ScenarioReport> run_sweep(const SweepSpec& spec) {
    const std::vector<SystemKind> systems =
        spec.systems.empty() ? std::vector<SystemKind>{spec.base.system} : spec.systems;
    const std::vector<int> group_sizes =
        spec.group_sizes.empty() ? std::vector<int>{spec.base.group_size} : spec.group_sizes;
    const std::vector<std::uint64_t> seeds =
        spec.seeds.empty() ? std::vector<std::uint64_t>{spec.base.seed} : spec.seeds;
    // An explicit batch axis names its cells "/b<N>"; an empty axis keeps the
    // base config and the pre-batching cell names byte-identical.
    const bool batch_axis = !spec.batch_sizes.empty();
    const std::vector<std::size_t> batch_sizes =
        batch_axis ? spec.batch_sizes
                   : std::vector<std::size_t>{spec.base.batch.max_requests};

    // Materialize every cell in canonical order first (the report order),
    // then execute the runnable ones on the worker pool. Cells below a
    // system's group-size floor become explicit skipped rows, not holes.
    struct Cell {
        Scenario scenario;
        std::uint64_t seed_axis{0};
        std::uint64_t seed_index{0};
        const char* skip_reason{nullptr};
    };
    std::vector<Cell> cells;
    for (const SystemKind system : systems) {
        const deploy::SystemTraits traits = deploy::traits_of(system);
        for (const int n : group_sizes) {
            for (const std::size_t batch : batch_sizes) {
                for (std::size_t seed_index = 0; seed_index < seeds.size(); ++seed_index) {
                    const std::uint64_t seed = seeds[seed_index];
                    Cell cell;
                    cell.scenario = spec.base;
                    cell.scenario.system = system;
                    cell.scenario.group_size = n;
                    cell.scenario.batch.max_requests = batch;
                    // Same (seed, system, n) => same derived seed for every
                    // batch size: batch cells face identical network
                    // schedules, so the comparison isolates batching.
                    cell.scenario.seed = derive_cell_seed(seed, system, n);
                    cell.scenario.name = spec.base.name + "/" + name_of(system) + "/n" +
                                         std::to_string(n) +
                                         (batch_axis ? "/b" + std::to_string(batch) : "") +
                                         "/s" + std::to_string(seed);
                    cell.seed_axis = seed;
                    cell.seed_index = static_cast<std::uint64_t>(seed_index);
                    if (n < traits.min_group_size) cell.skip_reason = traits.min_group_reason;
                    cells.push_back(std::move(cell));
                }
            }
        }
    }

    std::vector<ScenarioReport> reports(cells.size());
    parallel_for(cells.size(), spec.jobs, [&](std::size_t i) {
        if (cells[i].skip_reason != nullptr) {
            reports[i].scenario = cells[i].scenario;
            reports[i].skipped = true;
            reports[i].skip_reason = cells[i].skip_reason;
        } else {
            try {
                reports[i] = run_scenario(cells[i].scenario);
            } catch (const ScenarioRejected& rejected) {
                // A capability gate rejected the whole cell; record it like
                // the group-size floor does instead of discarding every
                // other cell's result with a rethrow. Any other exception
                // (bad member index, protocol invariant) stays fatal.
                reports[i] = ScenarioReport{};
                reports[i].scenario = cells[i].scenario;
                reports[i].skipped = true;
                reports[i].skip_reason = rejected.what();
            }
        }
        reports[i].from_sweep = true;
        reports[i].seed_axis = cells[i].seed_axis;
        reports[i].seed_index = cells[i].seed_index;
    });
    return reports;
}

}  // namespace failsig::scenario
