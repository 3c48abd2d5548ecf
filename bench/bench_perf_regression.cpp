// Perf-regression harness: the recorded performance trajectory of this repo.
//
// Runs (a) crypto microbenches — RSA sign/verify, HMAC tags, the pairwise
// link-MAC session authenticator, and SignedEnvelope build/verify with the
// incremental signed-region builder and the KeyService verify memo —
// (b) a zero-copy message-plane microbench plus pinned sweep cells over all
// three protocol stacks, reporting real wall-clock per cell next to the
// SimNetwork copy counters (bytes actually materialized vs logical wire
// bytes; body encodes per multicast), and (c) the batching pipeline's
// amortization measurement: the pinned FS-NewTOP n=4 cell run unbatched vs
// BatchConfig{max_requests=8}, with the signature-verify and
// delivered-requests-per-round ratios in the JSON — plus (d) the real-socket
// section: the open-loop load generator pointed at the TCP backend, giving
// wall-clock localhost throughput/latency for all three stacks.
//
// Output is BENCH_<PR>.json in the failsig-bench-v1 schema (documented in
// EXPERIMENTS.md). Every later PR appends its own BENCH_*.json next to this
// baseline so regressions are visible as a file diff in review. CI runs
// `--smoke` on every push and gates the deterministic counters against the
// checked-in smoke baseline with bench/compare_bench.py; timing fields stay
// informational — absolute numbers are machine-dependent, the counters are
// not.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "crypto/envelope.hpp"
#include "crypto/keys.hpp"
#include "deploy/deployment.hpp"
#include "net/network.hpp"
#include "orb/orb.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace failsig;

double now_ms() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(clock::now().time_since_epoch()).count();
}

/// Runs `fn` `iters` times and returns (total_ms, ops_per_sec).
template <typename Fn>
std::pair<double, double> timed(int iters, Fn&& fn) {
    const double start = now_ms();
    for (int i = 0; i < iters; ++i) fn();
    const double total = now_ms() - start;
    return {total, total > 0 ? iters / (total / 1000.0) : 0.0};
}

// ---------------------------------------------------------------------------
// Crypto microbenches
// ---------------------------------------------------------------------------

void bench_crypto(scenario::JsonWriter& w, bool smoke, std::uint64_t seed) {
    const int sign_iters = smoke ? 20 : 200;
    const int verify_iters = smoke ? 50 : 500;
    const int mac_iters = smoke ? 2000 : 20000;

    crypto::KeyService keys(crypto::KeyService::Backend::kRsa, 512, seed);
    keys.register_principal("A");
    keys.register_principal("B");
    keys.register_link("A", "B");

    const Bytes msg = bytes_of("perf-regression crypto probe payload (64ish bytes) ........");
    const Bytes sig = keys.signer("A").sign(msg);

    const auto [sign_ms, sign_ops] = timed(sign_iters, [&] { (void)keys.signer("A").sign(msg); });
    const auto [verify_ms, verify_ops_s] =
        timed(verify_iters, [&] { (void)keys.verifier("A").verify(msg, sig); });

    const std::string link = crypto::KeyService::link_principal("A", "B");
    const Bytes mac = keys.signer(link).sign(msg);
    const auto [mac_ms, mac_ops] = timed(mac_iters, [&] { (void)keys.signer(link).sign(msg); });
    const auto [macv_ms, macv_ops] =
        timed(mac_iters, [&] { (void)keys.verifier(link).verify(msg, mac); });

    // Double-signed envelope: build once, then verify cold (fresh service,
    // real RSA per signature) vs through the memo (every later hop).
    crypto::SignedEnvelope env{msg};
    env.add_signature(keys.signer("A"));
    env.add_signature(keys.signer("B"));
    const int env_iters = smoke ? 50 : 500;
    crypto::KeyService cold(crypto::KeyService::Backend::kRsa, 512, seed);
    cold.register_principal("A");
    cold.register_principal("B");
    // Same seed => same keys for A/B in registration order, so the chain
    // verifies under `cold` too.
    const double cold_start = now_ms();
    const bool cold_ok = env.verify_chain(cold);
    const double cold_ms = now_ms() - cold_start;
    const auto [memo_ms, memo_ops] = timed(env_iters, [&] { (void)env.verify_chain(cold); });

    // Long chains exercise the incremental signed-region builder (the old
    // per-call serializer made this O(k²) in re-serialized bytes).
    const int chain_len = 12;
    crypto::KeyService hmac_keys(crypto::KeyService::Backend::kHmac, 512, seed);
    for (int i = 0; i < chain_len; ++i) hmac_keys.register_principal("P" + std::to_string(i));
    const int chain_iters = smoke ? 200 : 2000;
    const auto [chain_ms, chain_ops] = timed(chain_iters, [&] {
        crypto::SignedEnvelope chain{msg};
        for (int i = 0; i < chain_len; ++i) {
            chain.add_signature(hmac_keys.signer("P" + std::to_string(i)));
        }
    });

    w.key("crypto");
    w.begin_object();
    w.field("rsa_bits", 512);
    w.field("rsa_sign_ops_s", sign_ops);
    w.field("rsa_verify_ops_s", verify_ops_s);
    w.field("link_mac_tag_ops_s", mac_ops);
    w.field("link_mac_verify_ops_s", macv_ops);
    w.field("envelope_verify_cold_ms", cold_ms);
    w.field("envelope_verify_cold_ok", cold_ok);
    w.field("envelope_verify_memo_ops_s", memo_ops);
    w.field("envelope_chain12_sign_ops_s", chain_ops);
    w.field("keyservice_verify_ops", cold.verify_ops());
    w.field("keyservice_verify_cache_hits", cold.verify_cache_hits());
    w.end_object();
    std::printf("crypto: rsa sign %.0f/s verify %.0f/s | link-MAC tag %.0f/s | "
                "envelope memo-verify %.0f/s (real verifies: %llu, memo hits: %llu)\n",
                sign_ops, verify_ops_s, mac_ops, memo_ops,
                static_cast<unsigned long long>(cold.verify_ops()),
                static_cast<unsigned long long>(cold.verify_cache_hits()));
    (void)sign_ms;
    (void)verify_ms;
    (void)mac_ms;
    (void)macv_ms;
    (void)memo_ms;
    (void)chain_ms;
}

// ---------------------------------------------------------------------------
// Zero-copy message-plane microbench
// ---------------------------------------------------------------------------

class CountingServant final : public orb::Servant {
public:
    void dispatch(const orb::Request&) override { ++count_; }
    [[nodiscard]] std::uint64_t count() const { return count_; }

private:
    std::uint64_t count_{0};
};

void bench_message_plane(scenario::JsonWriter& w, bool smoke, std::uint64_t seed) {
    const int receivers = smoke ? 8 : 16;
    const int messages = smoke ? 200 : 2000;
    const std::size_t payload_size = 1024;

    sim::Simulation sim;
    net::SimNetwork net(sim, Rng(seed));
    orb::OrbDomain domain(sim, net, sim::CostModel{});

    orb::Orb& sender = domain.create_orb(NodeId{0});
    std::vector<CountingServant> servants(static_cast<std::size_t>(receivers));
    std::vector<orb::ObjectRef> targets;
    for (int i = 0; i < receivers; ++i) {
        orb::Orb& receiver = domain.create_orb(NodeId{static_cast<std::uint32_t>(i + 1)});
        targets.push_back(
            receiver.activate("sink", &servants[static_cast<std::size_t>(i)]));
    }

    const double start = now_ms();
    for (int m = 0; m < messages; ++m) {
        sender.invoke_fanout(targets, "bench", Bytes(payload_size, 0x42));
    }
    sim.run();
    const double wall = now_ms() - start;

    std::uint64_t dispatched = 0;
    for (const auto& s : servants) dispatched += s.count();

    const double copied_per_delivered =
        net.messages_delivered() > 0
            ? static_cast<double>(net.payload_bytes_copied()) /
                  static_cast<double>(net.messages_delivered())
            : 0.0;
    const double bodies_per_multicast =
        messages > 0 ? static_cast<double>(net.payload_bodies_encoded()) / messages : 0.0;

    w.key("message_plane");
    w.begin_object();
    w.field("fanout_receivers", receivers);
    w.field("messages", messages);
    w.field("payload_size", static_cast<std::uint64_t>(payload_size));
    w.field("deliveries", dispatched);
    w.field("logical_bytes_sent", net.bytes_sent());
    w.field("payload_bytes_copied", net.payload_bytes_copied());
    w.field("payload_bodies_encoded", net.payload_bodies_encoded());
    w.field("bodies_per_multicast", bodies_per_multicast);
    w.field("copied_bytes_per_delivered_msg", copied_per_delivered);
    w.field("wall_ms", wall);
    w.end_object();
    std::printf("message plane: %d msgs x %d receivers | %.2f body encodes/multicast | "
                "%.0f copied bytes/delivered (logical %.0f) | %.0f ms\n",
                messages, receivers, bodies_per_multicast, copied_per_delivered,
                static_cast<double>(net.bytes_sent()) /
                    static_cast<double>(net.messages_delivered()),
                wall);
}

// ---------------------------------------------------------------------------
// Pinned sweep cells
// ---------------------------------------------------------------------------

void bench_sweep_cells(scenario::JsonWriter& w, bool smoke, std::uint64_t seed) {
    scenario::Scenario base;
    base.name = "perf";
    base.seed = seed;
    base.workload.msgs_per_member = smoke ? 10 : 30;
    base.workload.payload_size = 64;

    const std::vector<scenario::SystemKind> systems = {scenario::SystemKind::kNewTop,
                                                       scenario::SystemKind::kFsNewTop,
                                                       scenario::SystemKind::kPbft};
    const std::vector<int> sizes = smoke ? std::vector<int>{3, 4} : std::vector<int>{3, 4, 6};

    w.begin_array("sweep_cells");
    for (const auto system : systems) {
        for (const int n : sizes) {
            scenario::Scenario cell = base;
            cell.system = system;
            cell.group_size = n;
            cell.seed = scenario::derive_cell_seed(seed, system, n);
            cell.name = "perf/" + std::string(scenario::name_of(system)) + "/n" +
                        std::to_string(n);

            w.begin_object();
            w.field("name", cell.name);
            w.field("system", scenario::name_of(system));
            w.field("group_size", n);
            const auto traits = deploy::traits_of(system);
            if (n < traits.min_group_size) {
                w.field("status", "skipped");
                w.end_object();
                continue;
            }
            const double start = now_ms();
            const auto report = scenario::run_scenario(cell);
            const double wall = now_ms() - start;
            const auto& m = report.metrics;
            const double copied_per_delivered =
                m.network_messages > 0
                    ? static_cast<double>(m.payload_bytes_copied) /
                          static_cast<double>(m.network_messages)
                    : 0.0;
            w.field("status", "ok");
            w.field("throughput_msg_s", m.throughput_msg_s);
            w.field("mean_latency_ms", m.mean_latency_ms);
            w.field("observed_deliveries", m.observed_deliveries);
            w.field("expected_deliveries", m.expected_deliveries);
            w.field("network_messages", m.network_messages);
            w.field("network_bytes", m.network_bytes);
            w.field("payload_bytes_copied", m.payload_bytes_copied);
            w.field("payload_bodies_encoded", m.payload_bodies_encoded);
            w.field("copied_bytes_per_network_msg", copied_per_delivered);
            w.field("all_invariants_passed", report.all_invariants_passed());
            w.field("wall_ms", wall);
            w.end_object();
            std::printf("cell %-22s %5.1f msg/s | copied/msg %7.1f (wire %7.1f) | %.0f ms\n",
                        cell.name.c_str(), m.throughput_msg_s, copied_per_delivered,
                        m.network_messages > 0
                            ? static_cast<double>(m.network_bytes) /
                                  static_cast<double>(m.network_messages)
                            : 0.0,
                        wall);
        }
    }
    w.end_array();
}

// ---------------------------------------------------------------------------
// Batching pipeline: the amortization measurement
// ---------------------------------------------------------------------------

void bench_batching(scenario::JsonWriter& w, bool smoke, std::uint64_t seed) {
    // Pinned cell: FS-NewTOP at n=4 under a dense workload (1 ms between a
    // member's submissions), run with batching off and with batches of up to
    // 8. Both runs share one derived seed, so they face the identical
    // network schedule and the comparison isolates the pipeline.
    scenario::Scenario base;
    base.name = "batch";
    base.system = scenario::SystemKind::kFsNewTop;
    base.group_size = 4;
    base.seed = scenario::derive_cell_seed(seed, scenario::SystemKind::kFsNewTop, 4);
    base.workload.msgs_per_member = smoke ? 16 : 32;
    base.workload.payload_size = 64;
    base.workload.send_interval = 1 * kMillisecond;
    base.batch.max_bytes = 1 << 20;
    base.batch.flush_after = 20 * kMillisecond;

    w.key("batching");
    w.begin_object();
    w.field("system", "FS-NewTOP");
    w.field("group_size", 4);
    w.field("msgs_per_member", base.workload.msgs_per_member);
    w.field("send_interval_us", static_cast<std::int64_t>(base.workload.send_interval));

    const std::size_t batch_sizes[2] = {1, 8};
    std::uint64_t verify_ops[2] = {0, 0};
    double delivered_per_round[2] = {0, 0};
    w.begin_array("cells");
    for (int i = 0; i < 2; ++i) {
        scenario::Scenario cell = base;
        cell.batch.max_requests = batch_sizes[i];
        cell.name = "batch/FS-NewTOP/n4/b" + std::to_string(batch_sizes[i]);

        const double start = now_ms();
        const auto report = scenario::run_scenario(cell);
        const double wall = now_ms() - start;
        const auto& m = report.metrics;
        // An "ordered unit" is what one protocol round orders: a batch frame
        // when batching is on, a bare request when it is off.
        const std::uint64_t ordered_units =
            m.batches_formed > 0 ? m.batches_formed : m.messages_sent;
        verify_ops[i] = m.verify_ops;
        delivered_per_round[i] =
            ordered_units > 0
                ? static_cast<double>(m.observed_deliveries) /
                      static_cast<double>(ordered_units)
                : 0.0;

        w.begin_object();
        w.field("name", cell.name);
        w.field("batch_max_requests", static_cast<std::uint64_t>(batch_sizes[i]));
        w.field("status", "ok");
        w.field("verify_ops", m.verify_ops);
        w.field("verify_cache_hits", m.verify_cache_hits);
        w.field("requests_submitted", m.requests_submitted);
        w.field("requests_batched", m.requests_batched);
        w.field("batches_formed", m.batches_formed);
        w.field("flushes_on_deadline", m.flushes_on_deadline);
        w.field("ordered_units", ordered_units);
        w.field("observed_deliveries", m.observed_deliveries);
        w.field("expected_deliveries", m.expected_deliveries);
        w.field("network_messages", m.network_messages);
        w.field("network_bytes", m.network_bytes);
        w.field("delivered_requests_per_round", delivered_per_round[i]);
        w.field("mean_latency_ms", m.mean_latency_ms);
        w.field("throughput_msg_s", m.throughput_msg_s);
        w.field("all_invariants_passed", report.all_invariants_passed());
        w.field("wall_ms", wall);
        w.end_object();
        std::printf("batch b=%zu: verify_ops %llu | %.1f delivered req/round | "
                    "%llu rounds for %llu reqs | %.0f ms\n",
                    batch_sizes[i], static_cast<unsigned long long>(m.verify_ops),
                    delivered_per_round[i], static_cast<unsigned long long>(ordered_units),
                    static_cast<unsigned long long>(m.messages_sent), wall);
    }
    w.end_array();

    // The acceptance ratios (compare_bench.py gates on these): batching 8
    // requests per round must cut signature verifies >= 4x and raise
    // delivered-requests-per-round >= 2x.
    const double verify_ratio =
        verify_ops[1] > 0
            ? static_cast<double>(verify_ops[0]) / static_cast<double>(verify_ops[1])
            : 0.0;
    const double round_ratio =
        delivered_per_round[0] > 0 ? delivered_per_round[1] / delivered_per_round[0] : 0.0;
    w.field("verify_ops_ratio_b1_over_b8", verify_ratio);
    w.field("delivered_per_round_ratio_b8_over_b1", round_ratio);
    w.end_object();
    std::printf("batching: verify amortization %.2fx, delivered/round %.2fx\n", verify_ratio,
                round_ratio);
}

// ---------------------------------------------------------------------------
// Checkpoint/recovery counters: the crash -> recover -> rejoin arc
// ---------------------------------------------------------------------------

void bench_recovery(scenario::JsonWriter& w, bool smoke, std::uint64_t seed) {
    // One pinned churn cell per stack on the deterministic simulator: two
    // settled workload rounds, a crash, a burst the victim misses, the
    // rejoin, and post-rejoin traffic. Every emitted field is a pure
    // function of the seed, so compare_bench.py gates them exactly:
    // checkpoints taken, PBFT log slots truncated and the log's high-water
    // mark (the boundedness witness), state transfers served, rejoins
    // completed, and the flush-eviction gap count (soundness witness,
    // must stay 0).
    const std::vector<scenario::SystemKind> systems = {scenario::SystemKind::kNewTop,
                                                       scenario::SystemKind::kFsNewTop,
                                                       scenario::SystemKind::kPbft};
    w.begin_array("recovery");
    for (const auto system : systems) {
        const int n = system == scenario::SystemKind::kPbft ? 4 : 3;
        scenario::Scenario cell;
        cell.system = system;
        cell.group_size = n;
        cell.seed = scenario::derive_cell_seed(seed, system, n);
        cell.name = "recovery/" + std::string(scenario::name_of(system)) + "/n" +
                    std::to_string(n);
        cell.checkpoint_interval = 3;
        cell.workload.msgs_per_member = smoke ? 4 : 8;
        const int victim = n - 1;
        cell.timeline.push_back(scenario::ScenarioEvent::crash(600 * kMillisecond, victim));
        cell.timeline.push_back(scenario::ScenarioEvent::burst(1500 * kMillisecond, 0, 3));
        cell.timeline.push_back(scenario::ScenarioEvent::recover(4 * kSecond, victim));
        cell.timeline.push_back(scenario::ScenarioEvent::burst(8 * kSecond, 0, 2));
        cell.deadline = 11 * kSecond;
        if (system == scenario::SystemKind::kNewTop) {
            cell.start_suspectors = true;
            cell.suspector.ping_interval = 50 * kMillisecond;
            cell.suspector.suspect_timeout = 300 * kMillisecond;
        }
        if (system == scenario::SystemKind::kFsNewTop) {
            cell.placement = fsnewtop::Placement::kFull;
        }

        const double start = now_ms();
        const auto report = scenario::run_scenario(cell);
        const double wall = now_ms() - start;
        const auto& r = report.recovery;
        w.begin_object();
        w.field("name", cell.name);
        w.field("system", scenario::name_of(system));
        w.field("group_size", n);
        w.field("checkpoints_taken", r.checkpoints_taken);
        w.field("log_slots_truncated", r.log_slots_truncated);
        w.field("log_slots_retained", r.log_slots_retained);
        w.field("state_transfers_served", r.state_transfers_served);
        w.field("rejoins_completed", r.rejoins_completed);
        w.field("flush_log_evictions", r.flush_log_evictions);
        w.field("flush_eviction_gaps", r.flush_eviction_gaps);
        w.field("all_invariants_passed", report.all_invariants_passed());
        w.field("wall_ms", wall);
        w.end_object();
        std::printf("recovery %-22s %llu checkpoints | %llu slots truncated "
                    "(high-water %llu) | %llu rejoins | invariants %s | %.0f ms\n",
                    cell.name.c_str(), static_cast<unsigned long long>(r.checkpoints_taken),
                    static_cast<unsigned long long>(r.log_slots_truncated),
                    static_cast<unsigned long long>(r.log_slots_retained),
                    static_cast<unsigned long long>(r.rejoins_completed),
                    report.all_invariants_passed() ? "ok" : "FAIL", wall);
    }
    w.end_array();
}

// ---------------------------------------------------------------------------
// Real-socket wall clock: the three stacks on localhost TCP
// ---------------------------------------------------------------------------

void bench_tcp_wallclock(scenario::JsonWriter& w, bool smoke, std::uint64_t seed) {
    // The open-loop load generator pointed at the TCP backend: same
    // Scenario, same Poisson arrivals, real sockets on localhost. Offered
    // load and delivery counts stay pure functions of the seed (fault-free
    // runs deliver everything), so compare_bench.py gates them against the
    // baseline like any simulator counter; everything derived from *when*
    // frames landed is machine- and interleaving-dependent and is reported
    // through the informational wall-clock fields only.
    const std::vector<scenario::SystemKind> systems = {scenario::SystemKind::kNewTop,
                                                       scenario::SystemKind::kFsNewTop,
                                                       scenario::SystemKind::kPbft};
    w.begin_array("tcp_wallclock");
    for (const auto system : systems) {
        const int n = 4;  // one size valid for all three stacks (PBFT needs >= 4)
        scenario::Scenario cell;
        cell.system = system;
        cell.group_size = n;
        cell.backend = deploy::Backend::kTcp;
        cell.seed = scenario::derive_cell_seed(seed, system, n);
        cell.name = "tcp/" + std::string(scenario::name_of(system)) + "/n" +
                    std::to_string(n);
        cell.workload.msgs_per_member = 0;  // all input comes from the load phase
        scenario::LoadSpec load;
        load.rate = smoke ? 200.0 : 500.0;
        load.duration = smoke ? 250 * kMillisecond : 2 * kSecond;
        cell.timeline.push_back(
            scenario::ScenarioEvent::load(10 * kMillisecond, load));

        w.begin_object();
        w.field("name", cell.name);
        w.field("system", scenario::name_of(system));
        w.field("group_size", n);
        w.field("backend", "tcp");
        const double start = now_ms();
        const auto report = scenario::run_scenario(cell);
        const double wall = now_ms() - start;
        const auto& m = report.metrics;
        const double wall_tput =
            wall > 0 ? static_cast<double>(m.observed_deliveries) / (wall / 1000.0) : 0.0;
        const double ms_per_delivery =
            m.observed_deliveries > 0 ? wall / static_cast<double>(m.observed_deliveries)
                                      : 0.0;
        w.field("status", "ok");
        w.field("requests_offered", m.messages_sent);
        w.field("observed_deliveries", m.observed_deliveries);
        w.field("expected_deliveries", m.expected_deliveries);
        w.field("all_invariants_passed", report.all_invariants_passed());
        w.field("wall_ms", wall);
        w.field("wall_throughput_msg_s", wall_tput);
        w.field("wall_ms_per_delivery", ms_per_delivery);
        w.end_object();
        std::printf("tcp  %-22s %6.0f deliveries/s wall | %.3f ms/delivery | "
                    "%llu/%llu delivered | %.0f ms\n",
                    cell.name.c_str(), wall_tput, ms_per_delivery,
                    static_cast<unsigned long long>(m.observed_deliveries),
                    static_cast<unsigned long long>(m.expected_deliveries), wall);
    }
    w.end_array();
}

// ---------------------------------------------------------------------------
// Observability: disabled-instrumentation overhead and span-stage counters
// ---------------------------------------------------------------------------

void bench_obs(scenario::JsonWriter& w, bool smoke, std::uint64_t seed,
               const std::string& metrics_out) {
    // Pinned cell: FS-NewTOP at n=4 — the stack that exercises every span
    // stage plus the crypto and holdback instruments. The gated facts are
    // counters: the canonical trace must be byte-identical with obs on and
    // off (stamps are recording-only), and the span-stage counts are pure
    // functions of the cell. The wall-clock pair (obs off vs on) stays
    // informational, but it is what "disabled tracing costs ~one branch"
    // looks like on a real machine.
    scenario::Scenario cell;
    cell.name = "obs/FS-NewTOP/n4";
    cell.system = scenario::SystemKind::kFsNewTop;
    cell.group_size = 4;
    cell.seed = scenario::derive_cell_seed(seed, scenario::SystemKind::kFsNewTop, 4);
    cell.workload.msgs_per_member = smoke ? 10 : 30;
    cell.workload.payload_size = 64;

    const double off_start = now_ms();
    const auto off = scenario::run_scenario(cell);
    const double off_ms = now_ms() - off_start;

    scenario::Scenario traced = cell;
    traced.obs.enabled = true;
    const double on_start = now_ms();
    const auto on = scenario::run_scenario(traced);
    const double on_ms = now_ms() - on_start;

    const bool trace_identical = off.trace.canonical() == on.trace.canonical();

    w.key("obs");
    w.begin_object();
    w.field("cell", cell.name);
    w.field("trace_identical_with_obs", trace_identical);
    w.field("all_invariants_passed", on.all_invariants_passed());
    w.key("span_stage_counters");
    w.begin_object();
    for (const auto& [name, value] : on.obs_counters) {
        if (name.rfind("span.stage.", 0) == 0) w.field(name, value);
    }
    w.end_object();
    w.field("wall_ms_obs_off", off_ms);
    w.field("wall_ms_obs_on", on_ms);
    w.end_object();
    std::printf("obs: trace identical with tracing %s | obs-off %.0f ms, obs-on %.0f ms\n",
                trace_identical ? "yes" : "NO (REGRESSION)", off_ms, on_ms);

    if (!metrics_out.empty()) {
        if (scenario::write_file(metrics_out, on.metrics_json + "\n")) {
            std::printf("obs: metrics snapshot written to %s\n", metrics_out.c_str());
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::uint64_t seed = 42;
    std::string out_path = "BENCH_PR4.json";
    std::string metrics_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--seed" && i + 1 < argc) {
            if (!parse_u64(argv[++i], seed)) {
                std::fprintf(stderr, "bad --seed value '%s'\n", argv[i]);
                return 1;
            }
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else if (arg == "--help") {
            std::printf("usage: bench_perf_regression [--smoke] [--seed N] [--out PATH]\n"
                        "       [--metrics-out PATH]  write the obs cell's\n"
                        "       failsig-metrics-v1 snapshot to PATH\n");
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            return 1;
        }
    }

    std::printf("perf-regression bench (%s mode), seed %llu\n", smoke ? "smoke" : "full",
                static_cast<unsigned long long>(seed));

    scenario::JsonWriter w;
    w.begin_object();
    w.field("format", "failsig-bench-v1");
    w.field("pr", "PR4");
    w.field("mode", smoke ? "smoke" : "full");
    w.field("seed", seed);
    bench_crypto(w, smoke, seed);
    bench_message_plane(w, smoke, seed);
    bench_sweep_cells(w, smoke, seed);
    bench_tcp_wallclock(w, smoke, seed);
    bench_batching(w, smoke, seed);
    bench_recovery(w, smoke, seed);
    bench_obs(w, smoke, seed, metrics_out);
    w.end_object();

    if (!scenario::write_file(out_path, w.take() + "\n")) return 1;
    std::printf("bench report written to %s\n", out_path.c_str());
    return 0;
}
