// AB3 — symmetric vs asymmetric total order.
//
// The paper's experiments deliberately use the symmetric protocol because it
// is "significantly message intensive" (it orders a message only after the
// message is logically acknowledged by all members), maximizing the
// self-checking load inside FS-GC. This ablation quantifies that choice:
// message counts and latency for both protocols, in both systems.
#include "harness.hpp"

int main(int argc, char** argv) {
    using namespace failsig;
    using namespace failsig::bench;

    const auto cli = scenario::parse_cli(
        argc, argv, {"--groups", "--messages", "--payload", "--seed", "--jobs", "--out"});
    if (cli.help) return 0;
    if (cli.error) return 1;
    const std::vector<int> groups =
        cli.group_sizes.empty() ? std::vector<int>{2, 4, 6, 8, 10} : cli.group_sizes;
    const int msgs = cli.msgs_per_member > 0 ? cli.msgs_per_member : 30;

    print_header("AB3: symmetric vs asymmetric total order (both systems)",
                 "symmetric sends O(n^2) acknowledgements per multicast and pays more latency; "
                 "asymmetric funnels through the sequencer with O(n) messages");

    const std::vector<newtop::ServiceType> services = {
        newtop::ServiceType::kSymmetricTotalOrder,
        newtop::ServiceType::kAsymmetricTotalOrder};
    std::vector<scenario::Scenario> cells;
    for (const int n : groups) {
        for (const auto svc : services) {
            for (const auto system : {SystemKind::kNewTop, SystemKind::kFsNewTop}) {
                scenario::Scenario s = paper_scenario(system, n);
                s.workload.msgs_per_member = msgs;
                if (cli.payload_size > 0) s.workload.payload_size = cli.payload_size;
                if (cli.seed_set) s.seed = cli.seed;
                s.workload.service = svc;
                cells.push_back(s);
            }
        }
    }
    const auto reports = run_cells(cells, cli.jobs);

    std::printf("%-8s %-12s %-14s %-14s %-16s %-16s\n", "members", "protocol", "NewTOP(ms)",
                "FS-NT(ms)", "NewTOP msgs", "FS-NT msgs");
    std::size_t next = 0;
    for (const int n : groups) {
        for (const auto svc : services) {
            const auto& newtop = reports[next++].metrics;
            const auto& fsnewtop = reports[next++].metrics;

            const double per_multicast_newtop =
                static_cast<double>(newtop.network_messages) / (static_cast<double>(msgs) * n);
            const double per_multicast_fs =
                static_cast<double>(fsnewtop.network_messages) / (static_cast<double>(msgs) * n);
            std::printf("%-8d %-12s %-14.1f %-14.1f %-16.1f %-16.1f\n", n,
                        svc == newtop::ServiceType::kSymmetricTotalOrder ? "symmetric"
                                                                         : "asymmetric",
                        newtop.mean_latency_ms, fsnewtop.mean_latency_ms, per_multicast_newtop,
                        per_multicast_fs);
        }
    }
    std::printf("(msgs columns: network messages per application multicast)\n");
    return finish(cli, reports);
}
