// End-to-end benchmark driver: one measurement per invocation, one JSON
// object on stdout. bench/e2e/run.py orchestrates the workloads, computes the
// statistics (percentiles, medians, the capacity search) and applies the
// correctness gates; this program runs the system and reports raw samples
// and counters.
//
//   e2e_driver latency --workload W --stack S --seed N --rep K [--members 1]
//   e2e_driver probe   --workload W --stack S --seed N --rate R
//   e2e_driver speed   --workload W --seed N --min-seconds T [--trace]
//   e2e_driver setup   --workload W --reps K
//   e2e_driver tcp     --stack S --seed N --requests K --warmup W
//   e2e_driver micro
//   e2e_driver meta
//
// Only public APIs are used: scenario::run_scenario, deploy::make_deployment,
// obs (through Scenario::obs), crypto::KeyService, orb::Request,
// sim::Simulation and net::TcpTransport. No tracing is added inside src/.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "deploy/deployment.hpp"
#include "net/network.hpp"
#include "net/tcp_transport.hpp"
#include "orb/request.hpp"
#include "scenario/runner.hpp"
#include "sim/cost_model.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace failsig;
using deploy::SystemKind;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the calling thread. A simulation runs on one thread, so this
/// is the simulator's own cost: it leaves out time the thread waits for a
/// CPU, including time the hypervisor lends the core to another guest.
double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- JSON output ------------------------------------------------------------

/// Minimal JSON object writer: numbers, booleans, strings, number arrays and
/// raw JSON produced elsewhere (the obs metrics snapshot).
class Json {
public:
    Json& num(std::string_view key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    Json& num(std::string_view key, std::uint64_t v) { return raw(key, std::to_string(v)); }
    Json& num(std::string_view key, std::int64_t v) { return raw(key, std::to_string(v)); }
    Json& boolean(std::string_view key, bool v) { return raw(key, v ? "true" : "false"); }
    Json& str(std::string_view key, std::string_view v) { return raw(key, quote(v)); }
    Json& ints(std::string_view key, const std::vector<std::int64_t>& v) {
        std::string out = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i != 0) out += ',';
            out += std::to_string(v[i]);
        }
        return raw(key, out + "]");
    }
    Json& reals(std::string_view key, const std::vector<double>& v) {
        std::string out = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%s%.17g", i != 0 ? "," : "", v[i]);
            out += buf;
        }
        return raw(key, out + "]");
    }
    Json& raw(std::string_view key, std::string_view json) {
        body_ += body_.empty() ? "{" : ",";
        body_ += quote(key);
        body_ += ':';
        body_ += json;
        return *this;
    }
    [[nodiscard]] std::string done() const { return body_.empty() ? "{}" : body_ + "}"; }

    static std::string quote(std::string_view s) {
        std::string out = "\"";
        for (const char c : s) {
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
        return out + "\"";
    }

private:
    std::string body_;
};

std::uint64_t peak_rss_kb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss);
}

// --- workloads --------------------------------------------------------------

/// The member every crash workload takes down. For PBFT it is a backup (the
/// primary of view 0 is member 0), so the quorum masks the crash.
constexpr int kVictim = 3;

/// One simulated workload shape.
struct Shape {
    std::string_view name;
    int group_size;
    std::size_t payload;
    BatchConfig batch;
    double nominal_rate;        ///< aggregate requests per simulated second
    Duration nominal_duration;  ///< length of the nominal load phase
    TimePoint crash_at;         ///< nominal run: victim crash time; 0 = no crash
    std::uint64_t checkpoint_interval;
    /// Capacity probe length: long enough for 1000 (request, survivor)
    /// samples at the nominal rate, so a probe's p99 is defined.
    Duration probe_duration;
};

const std::vector<Shape>& shapes() {
    static const std::vector<Shape> all = {
        {"paper-n10", 10, 8, BatchConfig{}, 40.0, 5 * kSecond, 0, 0, 4 * kSecond},
        {"bulk-n4", 4, 4096, BatchConfig{8, 1 << 20, 20 * kMillisecond}, 100.0, 5 * kSecond,
         0, 0, 4 * kSecond},
        {"crash-n4", 4, 64, BatchConfig{}, 50.0, 20 * kSecond, 4 * kSecond, 50, 8 * kSecond},
    };
    return all;
}

const Shape& shape_named(std::string_view name) {
    for (const Shape& s : shapes()) {
        if (s.name == name) return s;
    }
    throw std::invalid_argument("unknown workload: " + std::string(name));
}

constexpr std::pair<std::string_view, SystemKind> kStacks[] = {
    {"newtop", SystemKind::kNewTop},
    {"fsnewtop", SystemKind::kFsNewTop},
    {"pbft", SystemKind::kPbft},
};

SystemKind stack_named(std::string_view name) {
    for (const auto& [known, stack] : kStacks) {
        if (known == name) return stack;
    }
    throw std::invalid_argument("unknown stack: " + std::string(name));
}

/// Crash shapes probe the degraded group: the victim is down from t=0 and
/// the load starts once the survivors have handled the failure.
constexpr TimePoint kProbeCrashLoadStart = 1 * kSecond;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
    return splitmix64(state);
}

scenario::Scenario make_scenario(const Shape& shape, SystemKind stack, std::uint64_t seed,
                                 double rate, Duration duration, TimePoint load_start,
                                 std::optional<TimePoint> crash_at) {
    scenario::Scenario s;
    s.name = std::string(shape.name) + "/" + deploy::name_of(stack);
    s.system = stack;
    s.group_size = shape.group_size;
    s.seed = seed;
    s.workload.msgs_per_member = 0;  // all traffic comes from the arrivals below
    s.workload.payload_size = shape.payload;
    s.batch = shape.batch;
    s.checkpoint_interval = shape.checkpoint_interval;
    // Open-loop arrivals: every member is an independent application sending
    // one request in every n/rate-second slot — the paper's §4 workload — at
    // an offset within the slot drawn from the seed. Unlike Poisson arrivals
    // this keeps the offered load smooth, so latency measures the protocol's
    // blocking path rather than the bursts of one draw. A member that is down
    // from the start sends nothing; `rate` is the group's aggregate either way.
    std::vector<int> senders;
    for (int member = 0; member < shape.group_size; ++member) {
        if (!(crash_at == TimePoint{0} && member == kVictim)) senders.push_back(member);
    }
    Rng rng(derive_seed(seed, 0xa11));
    const double interval_us = 1e6 * static_cast<double>(senders.size()) / rate;
    const auto slots = static_cast<int>(static_cast<double>(duration) / interval_us);
    for (int slot = 0; slot < slots; ++slot) {
        for (const int member : senders) {
            const double t = (slot + rng.uniform01()) * interval_us;
            s.timeline.push_back(scenario::ScenarioEvent::burst(
                load_start + static_cast<TimePoint>(t), member, 1));
        }
    }
    if (crash_at.has_value()) {
        s.timeline.push_back(scenario::ScenarioEvent::crash(*crash_at, kVictim));
        s.start_suspectors = stack == SystemKind::kNewTop;
        s.suspector = newtop::SuspectorOptions{50 * kMillisecond, 300 * kMillisecond};
        s.placement = fsnewtop::Placement::kFull;
        // Suspector pings never stop on their own: bound the run explicitly.
        s.deadline = load_start + duration + 2 * kSecond;
        s.settle = 2 * kSecond;
    }
    return s;
}

/// Sub-seed `rep` of the nominal run. Latency pools several short runs so
/// its percentiles do not hinge on one arrival draw.
scenario::Scenario nominal_scenario(const Shape& shape, SystemKind stack, std::uint64_t seed,
                                    std::uint64_t rep) {
    return make_scenario(shape, stack, derive_seed(seed, rep + 1), shape.nominal_rate,
                         shape.nominal_duration, 0,
                         shape.crash_at > 0 ? std::optional<TimePoint>(shape.crash_at)
                                            : std::nullopt);
}

scenario::Scenario probe_scenario(const Shape& shape, SystemKind stack, std::uint64_t seed,
                                  double rate) {
    if (shape.crash_at > 0) {
        return make_scenario(shape, stack, seed, rate, shape.probe_duration,
                             kProbeCrashLoadStart, TimePoint{0});
    }
    return make_scenario(shape, stack, seed, rate, shape.probe_duration, 0, std::nullopt);
}

// --- trace analysis ---------------------------------------------------------

std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// What the benchmark reads off one run's trace. A request is *attempted*
/// when it was submitted at a member that is alive at the end of the run; it
/// *fails* when some surviving member never delivers it. Latency is sampled
/// per (attempted request, surviving member) pair; -1 marks a pair that was
/// never delivered (an infinite latency).
struct TraceSummary {
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::vector<std::int64_t> latency_us;
    TimePoint last_arrival{0};
    TimePoint last_delivery{0};
    /// Longest gap between consecutive deliveries at any survivor.
    Duration outage_us{0};
    /// Crash to the moment every survivor has installed a view without the
    /// victim; 0 when nothing is detected (no crash, or a masked one).
    Duration detect_us{0};
};

TraceSummary summarize(const scenario::ScenarioReport& report) {
    using Kind = scenario::TraceEvent::Kind;
    const scenario::Scenario& s = report.scenario;
    const std::set<int> faulted = s.faulted_members();
    std::vector<int> survivors;
    for (int m = 0; m < s.group_size; ++m) {
        if (!faulted.contains(m)) survivors.push_back(m);
    }

    std::map<std::pair<std::uint32_t, std::uint64_t>, TimePoint> sent;
    std::map<std::tuple<std::uint32_t, std::uint64_t, int>, TimePoint> delivered;
    std::vector<std::vector<TimePoint>> deliveries_at(static_cast<std::size_t>(s.group_size));
    std::optional<TimePoint> crash_at;
    std::map<int, TimePoint> moved_on_at;

    TraceSummary out;
    for (const auto& e : report.trace.events()) {
        switch (e.kind) {
            case Kind::kSent:
                out.last_arrival = std::max(out.last_arrival, e.at);
                if (!faulted.contains(static_cast<int>(e.sender))) sent[{e.sender, e.seq}] = e.at;
                break;
            case Kind::kDelivered:
                delivered.emplace(std::make_tuple(e.sender, e.seq, e.member), e.at);
                deliveries_at[static_cast<std::size_t>(e.member)].push_back(e.at);
                break;
            case Kind::kViewInstalled:
                if (crash_at.has_value() && !moved_on_at.contains(e.member) &&
                    std::find(e.view_members.begin(), e.view_members.end(),
                              static_cast<std::uint32_t>(kVictim)) == e.view_members.end()) {
                    moved_on_at[e.member] = e.at;
                }
                break;
            case Kind::kScenarioEvent:
                if (e.detail.rfind("crash", 0) == 0) crash_at = e.at;
                break;
            default:
                break;
        }
    }

    for (const auto& [key, at] : sent) {
        ++out.attempted;
        bool missed = false;
        for (const int m : survivors) {
            const auto it = delivered.find(std::make_tuple(key.first, key.second, m));
            if (it == delivered.end()) {
                missed = true;
                out.latency_us.push_back(-1);
            } else {
                out.latency_us.push_back(it->second - at);
                out.last_delivery = std::max(out.last_delivery, it->second);
            }
        }
        if (missed) ++out.failed;
    }
    for (const int m : survivors) {
        const auto& times = deliveries_at[static_cast<std::size_t>(m)];
        for (std::size_t i = 1; i < times.size(); ++i) {
            out.outage_us = std::max(out.outage_us, times[i] - times[i - 1]);
        }
    }
    if (crash_at.has_value() && moved_on_at.size() == survivors.size()) {
        TimePoint all_moved_on = 0;
        for (const auto& [member, at] : moved_on_at) all_moved_on = std::max(all_moved_on, at);
        out.detect_us = all_moved_on - *crash_at;
    }
    return out;
}

std::string invariants_json(const std::vector<scenario::InvariantResult>& results) {
    std::string out = "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i != 0) out += ',';
        out += Json()
                   .str("name", results[i].name)
                   .boolean("passed", results[i].passed)
                   .str("detail", results[i].detail)
                   .done();
    }
    return out + "]";
}

/// Deterministic counters of the layers one run went through.
std::string counters_json(const scenario::ScenarioReport& report) {
    const auto& m = report.metrics;
    const auto& r = report.recovery;
    return Json()
        .num("requests", m.messages_sent)
        .num("member_deliveries", m.observed_deliveries)
        .num("network_messages", m.network_messages)
        .num("network_bytes", m.network_bytes)
        .num("payload_bytes_copied", m.payload_bytes_copied)
        .num("verify_ops", m.verify_ops)
        .num("verify_cache_hits", m.verify_cache_hits)
        .num("requests_submitted", m.requests_submitted)
        .num("batches_formed", m.batches_formed)
        .num("flushes_on_deadline", m.flushes_on_deadline)
        .num("views_installed", m.views_installed)
        .num("fail_signal_events", m.fail_signal_events)
        .num("checkpoints_taken", r.checkpoints_taken)
        .num("log_slots_retained", r.log_slots_retained)
        .done();
}

/// The fields every command that ran a scenario reports about it.
Json& describe_run(Json& out, const scenario::ScenarioReport& report) {
    const TraceSummary summary = summarize(report);
    return out.num("attempted", summary.attempted)
        .num("failed", summary.failed)
        .ints("latency_us", summary.latency_us)
        .num("drain_us", static_cast<std::int64_t>(summary.last_delivery - summary.last_arrival))
        .num("outage_us", static_cast<std::int64_t>(summary.outage_us))
        .num("detect_us", static_cast<std::int64_t>(summary.detect_us))
        .str("trace_hash", std::to_string(fnv1a(report.trace.canonical())))
        .raw("invariants", invariants_json(report.invariants))
        .raw("counters", counters_json(report));
}

// --- arguments --------------------------------------------------------------

struct Args {
    std::map<std::string, std::string> values;
    std::set<std::string> flags;

    [[nodiscard]] const std::string& get(const std::string& key) const {
        const auto it = values.find(key);
        if (it == values.end()) throw std::invalid_argument("missing --" + key);
        return it->second;
    }
    [[nodiscard]] std::uint64_t u64(const std::string& key) const {
        return std::stoull(get(key));
    }
    [[nodiscard]] double real(const std::string& key) const { return std::stod(get(key)); }
};

Args parse(int argc, char** argv) {
    Args args;
    for (int i = 2; i < argc; ++i) {
        const std::string_view a = argv[i];
        if (a.rfind("--", 0) != 0) {
            throw std::invalid_argument("unexpected argument " + std::string(a));
        }
        const std::string key(a.substr(2));
        if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
            args.values[key] = argv[++i];
        } else {
            args.flags.insert(key);
        }
    }
    return args;
}

// --- simulated workloads ----------------------------------------------------

/// One sub-seed rep of the nominal run (latency samples). `--members 1`
/// runs the single-member reference instead: the local delivery path, no
/// ordering, at one member's share of the nominal rate.
std::string cmd_latency(const Args& args) {
    Shape shape = shape_named(args.get("workload"));
    const SystemKind stack = stack_named(args.get("stack"));
    if (args.values.contains("members")) {
        const auto members = static_cast<int>(args.u64("members"));
        shape.nominal_rate = shape.nominal_rate * members / shape.group_size;
        shape.group_size = members;
        shape.crash_at = 0;
    }
    const scenario::ScenarioReport report =
        scenario::run_scenario(nominal_scenario(shape, stack, args.u64("seed"), args.u64("rep")));
    Json out;
    out.str("stack", args.get("stack"));
    describe_run(out, report);
    return out.num("peak_rss_kb", peak_rss_kb()).done();
}

/// One capacity probe at a given rate; run.py decides pass or fail.
std::string cmd_probe(const Args& args) {
    const Shape& shape = shape_named(args.get("workload"));
    const SystemKind stack = stack_named(args.get("stack"));
    const double rate = args.real("rate");
    const scenario::ScenarioReport report =
        scenario::run_scenario(probe_scenario(shape, stack, args.u64("seed"), rate));
    Json out;
    out.str("stack", args.get("stack")).num("rate", rate);
    describe_run(out, report);
    return out.num("peak_rss_kb", peak_rss_kb()).done();
}

/// Simulator speed on sub-seed 0 of each stack's nominal run, in thread CPU
/// time. The stacks take turns — each turn runs one stack's reps for about
/// kTurn, one rep at least — until every stack has five reps and
/// `min-seconds` have passed, so a stretch in which the host is busy
/// elsewhere costs every stack some reps rather than one stack all of them.
/// With --trace one more rep of each stack runs with obs enabled. Every rep
/// must reproduce its stack's first rep exactly.
std::string cmd_speed(const Args& args) {
    constexpr std::size_t kMinReps = 5;
    constexpr double kTurn = 0.4;
    const Shape& shape = shape_named(args.get("workload"));
    const double min_seconds = args.real("min-seconds");

    struct StackReps {
        std::string_view name;
        scenario::Scenario scenario;
        std::optional<scenario::ScenarioReport> first;
        std::string canonical;
        bool identical{true};
        std::vector<double> cpu;
    };
    std::vector<StackReps> stacks;
    for (const auto& [name, stack] : kStacks) {
        StackReps& r = stacks.emplace_back();
        r.name = name;
        r.scenario = nominal_scenario(shape, stack, args.u64("seed"), 0);
    }

    const auto phase_start = Clock::now();
    const auto done = [&] {
        return seconds_since(phase_start) >= min_seconds &&
               std::all_of(stacks.begin(), stacks.end(),
                           [](const StackReps& r) { return r.cpu.size() >= kMinReps; });
    };
    while (!done()) {
        for (StackReps& r : stacks) {
            const auto turn_start = Clock::now();
            do {
                const double start = thread_cpu_s();
                scenario::ScenarioReport rep = scenario::run_scenario(r.scenario);
                r.cpu.push_back(thread_cpu_s() - start);
                if (!r.first.has_value()) {
                    r.canonical = rep.trace.canonical();
                    r.first = std::move(rep);
                } else {
                    r.identical = r.identical && rep.trace.canonical() == r.canonical;
                }
            } while (seconds_since(turn_start) < kTurn);
        }
    }

    Json per_stack;
    for (StackReps& r : stacks) {
        Json out;
        describe_run(out, *r.first);
        out.reals("cpu_s", r.cpu).boolean("reps_identical", r.identical);
        if (args.flags.contains("trace")) {
            r.scenario.obs.enabled = true;
            const double start = thread_cpu_s();
            const scenario::ScenarioReport traced = scenario::run_scenario(r.scenario);
            const double cpu = thread_cpu_s() - start;
            out.raw("traced", Json()
                                  .num("cpu_s", cpu)
                                  .boolean("identical", traced.trace.canonical() == r.canonical)
                                  .raw("metrics", traced.metrics_json)
                                  .done());
        }
        per_stack.raw(r.name, out.done());
    }
    return Json().raw("stacks", per_stack.done()).num("peak_rss_kb", peak_rss_kb()).done();
}

/// Thread CPU time of deploy::make_deployment for each stack's configuration
/// of the workload, `reps` times each (construction only; teardown untimed).
std::string cmd_setup(const Args& args) {
    const Shape& shape = shape_named(args.get("workload"));
    const auto reps = args.u64("reps");
    Json out;
    for (const auto& [name, stack] : kStacks) {
        const scenario::Scenario s = nominal_scenario(shape, stack, args.u64("seed"), 0);
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
        spec.checkpoint_interval = s.checkpoint_interval;
        std::vector<double> times;
        for (std::uint64_t i = 0; i < reps; ++i) {
            const double start = thread_cpu_s();
            const auto d = deploy::make_deployment(stack, spec);
            times.push_back(thread_cpu_s() - start);
        }
        out.reals(name, times);
    }
    return out.done();
}

// --- real sockets -----------------------------------------------------------

/// Closed loop over the TCP backend: n=4, 64-byte requests, one outstanding
/// request per member. Each member submits its next request when it has
/// delivered its own previous one. Latency is steady_clock submit→delivery
/// per (request, member) pair.
std::string cmd_tcp(const Args& args) {
    constexpr int kMembers = 4;
    constexpr std::size_t kPayload = 64;
    const SystemKind stack = stack_named(args.get("stack"));
    const auto timed = args.u64("requests");
    const auto warmup = args.u64("warmup");

    struct Loop {
        std::mutex mu;
        std::vector<std::uint32_t> next_seq = std::vector<std::uint32_t>(kMembers, 0);
        std::map<std::pair<std::uint32_t, std::uint32_t>, Clock::time_point> submitted;
        std::vector<std::int64_t> latency_ns;
        std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> order =
            std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>(kMembers);
        std::vector<std::uint64_t> remaining = std::vector<std::uint64_t>(kMembers, 0);
    } loop;

    // Builds member m's next request; caller holds loop.mu.
    const auto next_request = [&loop](int m) {
        const std::uint32_t seq = loop.next_seq[static_cast<std::size_t>(m)]++;
        ByteWriter w;
        w.u32(static_cast<std::uint32_t>(m));
        w.u32(seq);
        Bytes payload = w.take();
        payload.resize(kPayload, 0x5a);
        loop.submitted[{static_cast<std::uint32_t>(m), seq}] = Clock::now();
        --loop.remaining[static_cast<std::size_t>(m)];
        return payload;
    };

    // Declared after everything its executor threads call back into, so it
    // is destroyed (threads joined) first.
    deploy::DeploymentSpec spec;
    spec.group_size = kMembers;
    spec.seed = args.u64("seed");
    spec.backend = deploy::Backend::kTcp;
    const auto setup_start = Clock::now();
    const auto d = deploy::make_deployment(stack, spec);
    deploy::Deployment& dep = *d;

    deploy::Observers observers;
    observers.delivered = [&](int member, const Bytes& payload) {
        const auto now = Clock::now();
        ByteReader r(payload);
        const std::uint32_t sender = r.u32();
        const std::uint32_t seq = r.u32();
        std::optional<Bytes> next;
        {
            const std::lock_guard lock(loop.mu);
            loop.order[static_cast<std::size_t>(member)].emplace_back(sender, seq);
            const auto it = loop.submitted.find({sender, seq});
            if (it != loop.submitted.end()) {
                loop.latency_ns.push_back(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(now - it->second)
                        .count());
            }
            if (static_cast<int>(sender) == member &&
                loop.remaining[static_cast<std::size_t>(member)] > 0) {
                next = next_request(member);
            }
        }
        if (next.has_value()) dep.submit(member, std::move(*next));
    };
    dep.attach(std::move(observers));

    const auto run_phase = [&](std::uint64_t per_member) {
        {
            const std::lock_guard lock(loop.mu);
            loop.latency_ns.clear();
            std::fill(loop.remaining.begin(), loop.remaining.end(), per_member);
        }
        dep.schedule(dep.now(), [&] {
            for (int m = 0; m < kMembers; ++m) {
                Bytes payload;
                {
                    const std::lock_guard lock(loop.mu);
                    payload = next_request(m);
                }
                dep.submit(m, std::move(payload));
            }
        });
        const auto start = Clock::now();
        dep.run();
        return seconds_since(start);
    };

    // The warm-up round opens the socket mesh; it counts as set-up.
    run_phase(warmup);
    const double setup_s = seconds_since(setup_start);
    const std::uint64_t messages_before = dep.network().messages_sent();
    const double wall = run_phase(timed);
    const std::uint64_t messages = dep.network().messages_sent() - messages_before;

    // Correctness: identical delivery sequences at every member, and every
    // submitted request delivered everywhere.
    bool identical = true;
    for (int m = 1; m < kMembers; ++m) identical = identical && loop.order[m] == loop.order[0];
    std::uint64_t failed = 0;
    const std::set<std::pair<std::uint32_t, std::uint32_t>> seen(loop.order[0].begin(),
                                                                 loop.order[0].end());
    for (const auto& [key, at] : loop.submitted) {
        if (!seen.contains(key)) ++failed;
    }
    const std::uint64_t requests = timed * kMembers;
    return Json()
        .str("stack", args.get("stack"))
        .num("attempted", static_cast<std::uint64_t>(loop.submitted.size()))
        .num("failed", failed)
        .boolean("sequences_identical", identical)
        .num("requests", requests)
        .num("member_deliveries", static_cast<std::uint64_t>(loop.latency_ns.size()))
        .ints("latency_ns", loop.latency_ns)
        .num("wall_s", wall)
        .num("setup_s", setup_s)
        .num("network_messages", messages)
        .done();
}

// --- outside-in timings -----------------------------------------------------

/// Median over `batches` of the mean ns per call of `fn`, run `per_batch`
/// times per batch.
double ns_per_call(int batches, int per_batch, const std::function<void(int)>& fn) {
    std::vector<double> samples;
    for (int b = 0; b < batches; ++b) {
        const auto start = Clock::now();
        for (int i = 0; i < per_batch; ++i) fn(b * per_batch + i);
        samples.push_back(seconds_since(start) * 1e9 / per_batch);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/// Two TcpTransport endpoints on localhost, executed by this thread:
/// frame round trip times in microseconds.
std::vector<double> tcp_rtts(int pings) {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> inbox;
    net::TcpTransport::Hooks hooks;
    hooks.post = [&](NodeId, std::function<void()> task) {
        {
            const std::lock_guard lock(mu);
            inbox.push_back(std::move(task));
        }
        cv.notify_one();
    };
    net::TcpTransport transport(std::move(hooks), Rng(1));
    const Endpoint a{NodeId{1}, PortId{1}};
    const Endpoint b{NodeId{2}, PortId{1}};
    transport.bind(b, [&](const net::Message& msg) { transport.send(b, a, msg.payload); });
    bool returned = false;
    transport.bind(a, [&](const net::Message&) { returned = true; });
    transport.start();
    transport.connect(a.node, b.node);
    transport.connect(b.node, a.node);

    const auto run_one = [&] {
        std::function<void()> task;
        {
            std::unique_lock lock(mu);
            cv.wait(lock, [&] { return !inbox.empty(); });
            task = std::move(inbox.front());
            inbox.pop_front();
        }
        task();
    };
    std::vector<double> rtts;
    const Bytes ping(64, 0x5a);
    for (int i = 0; i < pings; ++i) {
        returned = false;
        const auto start = Clock::now();
        transport.send(a, b, Payload(ping));
        while (!returned) run_one();
        rtts.push_back(seconds_since(start) * 1e6);
    }
    transport.close();
    return rtts;
}

/// Coordinator cost of one virtual-time step on the TCP backend: run() over
/// K no-op driver events at distinct virtual times, per event.
double tcp_vstep_us(int steps) {
    deploy::DeploymentSpec spec;
    spec.group_size = 4;
    spec.backend = deploy::Backend::kTcp;
    const auto d = deploy::make_deployment(SystemKind::kNewTop, spec);
    d->schedule(0, [] {});
    d->run();  // starts the executors
    const TimePoint base = d->now();
    for (int i = 1; i <= steps; ++i) d->schedule(base + i * kMillisecond, [] {});
    const auto start = Clock::now();
    d->run();
    return seconds_since(start) * 1e6 / steps;
}

std::string cmd_micro(const Args&) {
    crypto::KeyService keys(crypto::KeyService::Backend::kHmac);
    keys.register_principal("bench");
    const crypto::Signer& signer = keys.signer("bench");
    const Bytes message(64, 0x42);
    const Bytes signature = signer.sign(message);

    constexpr int kMisses = 4096;
    std::vector<Bytes> messages;
    std::vector<Bytes> signatures;
    for (int i = 0; i < kMisses; ++i) {
        Bytes m = message;
        m[0] = static_cast<std::uint8_t>(i);
        m[1] = static_cast<std::uint8_t>(i >> 8);
        signatures.push_back(signer.sign(m));
        messages.push_back(std::move(m));
    }

    std::uint64_t sink = 0;
    const double sign_ns =
        ns_per_call(9, 2000, [&](int) { sink += signer.sign(message)[0]; });
    const double hit_ns = ns_per_call(9, 2000, [&](int) {
        sink += keys.verify_cached("bench", message, signature) ? 1 : 0;
    });
    // Each message is verified once: every call misses the memo.
    const double miss_ns = ns_per_call(8, kMisses / 8, [&](int i) {
        sink += keys.verify_cached("bench", messages[static_cast<std::size_t>(i)],
                                   signatures[static_cast<std::size_t>(i)])
                    ? 1
                    : 0;
    });
    const Bytes block(64 * 1024, 0x17);
    const double sha_ns = ns_per_call(9, 20, [&](int) { sink += crypto::sha256(block)[0]; });

    const auto codec_ns = [&](std::size_t payload) {
        orb::Request req;
        req.object_key = "GC:1";
        req.operation = "deliver";
        req.args = orb::Any(Bytes(payload, 0x33));
        req.request_id = 7;
        req.contexts["sig"] = Bytes(32, 0x44);
        return ns_per_call(9, 2000, [&](int) {
            const Bytes wire = req.encode();
            sink += orb::Request::decode(wire).has_value() ? 1 : 0;
        });
    };
    const double codec_8 = codec_ns(8);
    const double codec_4k = codec_ns(4096);

    const double schedule_fire_ns = ns_per_call(9, 1, [&](int) {
        sim::Simulation sim;
        constexpr int kEvents = 20000;
        for (int i = 0; i < kEvents; ++i) {
            sim.schedule_at((i * 7919) % kEvents, [&sink] { ++sink; });
        }
        sim.run();
    }) / 20000;

    const std::vector<double> rtts = tcp_rtts(2000);
    const double vstep = tcp_vstep_us(2000);

    return Json()
        .num("crypto.hmac_sign_ns", sign_ns)
        .num("crypto.verify_cached_hit_ns", hit_ns)
        .num("crypto.verify_cached_miss_ns", miss_ns)
        .num("crypto.sha256_mb_s", 65536.0 / sha_ns * 1e9 / (1 << 20))
        .num("orb.request_codec_ns_8b", codec_8)
        .num("orb.request_codec_ns_4k", codec_4k)
        .num("sim.schedule_fire_ns", schedule_fire_ns)
        .reals("net.tcp_rtt_us", rtts)
        .num("deploy.tcp_vstep_us", vstep)
        .num("sink", sink)
        .done();
}

/// The workloads' nominal rates and the calibration in force: a CostModel or
/// link-model edit shows up here, so it reads as a calibration change rather
/// than as a speed-up.
std::string cmd_meta(const Args&) {
    const sim::CostModel cost{};
    const net::AsyncLinkParams link{};
    Json workloads;
    for (const Shape& shape : shapes()) {
        workloads.raw(shape.name, Json().num("nominal_rate", shape.nominal_rate).done());
    }
    return Json()
        .raw("workloads", workloads.done())
        .raw("cost_model", Json()
                               .num("dispatch_fixed_us", static_cast<std::int64_t>(cost.dispatch_fixed))
                               .num("marshal_fixed_us", static_cast<std::int64_t>(cost.marshal_fixed))
                               .num("hash_per_byte_ns", cost.hash_per_byte_ns)
                               .num("rsa_sign_us", static_cast<std::int64_t>(cost.rsa_sign))
                               .num("rsa_verify_us", static_cast<std::int64_t>(cost.rsa_verify))
                               .num("gc_protocol_op_us", static_cast<std::int64_t>(cost.gc_protocol_op))
                               .num("app_deliver_us", static_cast<std::int64_t>(cost.app_deliver))
                               .done())
        .raw("link_model", Json()
                               .num("base_us", static_cast<std::int64_t>(link.base))
                               .num("jitter_mean_us", link.jitter_mean_us)
                               .num("per_byte_us", link.per_byte_us)
                               .done())
        .done();
}

}  // namespace

int main(int argc, char** argv) {
    const std::map<std::string_view, std::string (*)(const Args&)> commands = {
        {"latency", cmd_latency}, {"probe", cmd_probe}, {"speed", cmd_speed},
        {"setup", cmd_setup},     {"tcp", cmd_tcp},     {"micro", cmd_micro},
        {"meta", cmd_meta},
    };
    const auto it = argc >= 2 ? commands.find(argv[1]) : commands.end();
    if (it == commands.end()) {
        std::fprintf(stderr,
                     "usage: e2e_driver latency|probe|speed|setup|tcp|micro|meta [--key value]...\n");
        return 2;
    }
    try {
        std::printf("%s\n", it->second(parse(argc, argv)).c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_driver: %s\n", e.what());
        return 2;
    }
}
