// AB2 — worker-pool / CPU-capacity ablation.
//
// The paper attributes the Figure 7 throughput shape to the ORB's
// configurable request-handling pool (default 10 threads, multiplexed onto
// dual-processor nodes). In the simulator the pool size is the node's
// concurrent CPU capacity; this bench sweeps it to expose its effect on the
// crash-tolerant system's throughput (deployments default to 2 = the
// testbed's dual CPUs).
#include "harness.hpp"

int main(int argc, char** argv) {
    using namespace failsig;
    using namespace failsig::bench;

    const auto cli = scenario::parse_cli(
        argc, argv, {"--groups", "--messages", "--payload", "--seed", "--jobs", "--out"});
    if (cli.help) return 0;
    if (cli.error) return 1;
    const std::vector<int> groups =
        cli.group_sizes.empty() ? std::vector<int>{2, 6, 10, 14} : cli.group_sizes;

    print_header("AB2: NewTOP throughput vs ORB thread-pool size",
                 "small pools serialize dispatch and depress throughput; beyond ~10 threads "
                 "returns diminish because the single-threaded GC becomes the bottleneck");

    const std::vector<int> pools = {1, 2, 4, 10, 20};
    std::vector<scenario::Scenario> cells;
    for (const int n : groups) {
        for (const int p : pools) {
            scenario::Scenario s = paper_scenario(SystemKind::kNewTop, n);
            s.workload.msgs_per_member = cli.msgs_per_member > 0 ? cli.msgs_per_member : 30;
            if (cli.payload_size > 0) s.workload.payload_size = cli.payload_size;
            if (cli.seed_set) s.seed = cli.seed;
            s.threads_per_node = p;
            cells.push_back(s);
        }
    }
    const auto reports = run_cells(cells, cli.jobs);

    std::printf("%-8s", "members");
    for (const int p : pools) std::printf(" pool=%-10d", p);
    std::printf("\n");
    for (std::size_t g = 0; g < groups.size(); ++g) {
        std::printf("%-8d", groups[g]);
        for (std::size_t p = 0; p < pools.size(); ++p) {
            std::printf(" %-15.1f", reports[g * pools.size() + p].metrics.throughput_msg_s);
        }
        std::printf("\n");
    }
    return finish(cli, reports);
}
