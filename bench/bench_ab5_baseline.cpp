// AB5 — FS-NewTOP vs a from-scratch authenticated-Byzantine baseline.
//
// The paper's §1 comparison: traditional Byzantine total-order protocols
// ([CL99]-style) need 3f+1 replicas and at least one extra communication
// round, and rely on protocol-specific liveness conditions (timeouts) for
// termination. The FS approach needs 4f+2 nodes (2f+1 FS middleware
// processes) but terminates deterministically. This bench reports, per
// masked-fault budget f:
//   * node counts for both approaches,
//   * ordering latency and network messages per request, and
//   * the liveness contrast — what each system does when a key component is
//     silent (PBFT: stalls until a timeout-triggered view change; FS: the
//     pair announces its own failure, no guessing).
#include <cstdio>

#include "deploy/fsnewtop.hpp"
#include "deploy/pbft.hpp"
#include "harness.hpp"
#include "sim/stats.hpp"

using namespace failsig;

namespace {

struct BaselineResult {
    double latency_ms;
    double msgs_per_request;
};

/// The stack's spec for this bench: both stacks run on DeploymentSpec's
/// 2 CPUs per node, so the comparison spends one CPU budget.
deploy::DeploymentSpec spec_of(int group, std::uint64_t seed) {
    deploy::DeploymentSpec spec;
    spec.group_size = group;
    spec.seed = seed;
    return spec;
}

/// Warm-up request, then one request at a time from rotating members.
BaselineResult measure(scenario::SystemKind system, int group, int requests,
                       std::uint64_t seed) {
    const auto d = deploy::make_deployment(system, spec_of(group, seed));
    d->submit(0, bytes_of("warm"));
    d->run();
    d->network().reset_stats();

    sim::Stats latency;
    for (int i = 0; i < requests; ++i) {
        const TimePoint start = d->now();
        d->submit(i % group, bytes_of("req"));
        d->run();
        latency.add(static_cast<double>(d->now() - start) / kMillisecond);
    }
    return {latency.mean(),
            static_cast<double>(d->network().messages_sent()) / requests};
}

}  // namespace

int main(int argc, char** argv) {
    const auto cli = scenario::parse_cli(argc, argv, {"--messages", "--seed", "--out"});
    if (cli.help) return 0;
    if (cli.error) return 1;
    const int requests = cli.msgs_per_member > 0 ? cli.msgs_per_member : 20;
    const std::uint64_t seed = cli.seed_set ? cli.seed : 1;

    std::printf("================================================================\n");
    std::printf("AB5: FS-NewTOP (4f+2 nodes) vs PBFT-style baseline (3f+1 nodes)\n");
    std::printf("================================================================\n");
    std::printf("%-4s %-22s %-22s %-14s %-14s %-12s %-12s\n", "f", "PBFT(n, nodes)",
                "FS-NT(group, nodes)", "PBFT lat(ms)", "FS lat(ms)", "PBFT msgs", "FS msgs");

    scenario::JsonWriter json;
    json.begin_object();
    json.field("format", "failsig-ab5-baseline-v1");
    json.field("seed", seed);
    json.field("requests", requests);
    json.begin_array("rows");
    for (const std::uint32_t f : {1u, 2u, 3u}) {
        const std::uint32_t pbft_n = 3 * f + 1;
        const int fs_group = static_cast<int>(2 * f + 1);
        const int fs_nodes = 4 * static_cast<int>(f) + 2;

        const auto pbft =
            measure(scenario::SystemKind::kPbft, static_cast<int>(pbft_n), requests, seed);
        const auto fsnt = measure(scenario::SystemKind::kFsNewTop, fs_group, requests, seed);

        std::printf("%-4u n=%-2u nodes=%-12u g=%-2d nodes=%-12d %-14.1f %-14.1f %-12.1f %-12.1f\n",
                    f, pbft_n, pbft_n, fs_group, fs_nodes, pbft.latency_ms, fsnt.latency_ms,
                    pbft.msgs_per_request, fsnt.msgs_per_request);
        json.begin_object();
        json.field("f", static_cast<std::uint64_t>(f));
        json.field("pbft_replicas", static_cast<std::uint64_t>(pbft_n));
        json.field("fs_group", fs_group);
        json.field("fs_nodes", fs_nodes);
        json.field("pbft_latency_ms", pbft.latency_ms);
        json.field("fs_latency_ms", fsnt.latency_ms);
        json.field("pbft_msgs_per_request", pbft.msgs_per_request);
        json.field("fs_msgs_per_request", fsnt.msgs_per_request);
        json.end_object();
    }
    json.end_array();
    json.end_object();

    // Liveness contrast.
    std::printf("\nLiveness when a key component goes silent:\n");
    {
        deploy::PbftDeployment d(spec_of(4, seed));
        std::size_t delivered_at_1 = 0;
        deploy::Observers observers;
        observers.delivered = [&delivered_at_1](int replica, const Bytes&) {
            if (replica == 1) ++delivered_at_1;
        };
        d.attach(std::move(observers));
        d.crash(0);  // primary silent
        d.submit(1, bytes_of("stuck"));
        d.run();
        const bool stalled = delivered_at_1 == 0;
        d.fire_timeouts();
        d.run();
        std::printf("  PBFT: primary silent -> %s; after timeout view-change -> delivered=%zu "
                    "(progress REQUIRES a timeout)\n",
                    stalled ? "stalled (nothing delivered)" : "progressed?!", delivered_at_1);
    }
    {
        deploy::DeploymentSpec spec = spec_of(3, seed);
        spec.placement = fsnewtop::Placement::kFull;
        deploy::FsNewTopDeployment d(spec);
        d.submit(0, bytes_of("warm"));
        d.run();
        d.faults().block(NodeId{3}, NodeId{4});  // member 1's pair link dies
        d.submit(0, bytes_of("go"));
        d.run_until(d.now() + 120 * kSecond);
        const bool excluded =
            d.gc_leader(0).view().members == std::vector<newtop::MemberId>{0, 2};
        std::printf("  FS-NewTOP: pair broken -> fail-signal announced, survivors' view %s "
                    "(no asynchronous-network timeout involved)\n",
                    excluded ? "excludes the failed member" : "UNEXPECTED");
    }
    if (!cli.out_path.empty()) {
        if (!scenario::write_file(cli.out_path, json.take() + "\n")) return 1;
        std::printf("report written to %s\n", cli.out_path.c_str());
    }
    return 0;
}
