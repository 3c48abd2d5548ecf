// FIG7 — reproduces paper Figure 7: symmetric-total-order throughput vs
// group size (small messages: the paper's 3 bytes, 8 here; thread pool of
// 10).
//
// Expected shape (paper §4): both systems' throughput RISES from n=2,
// peaks around the thread-pool-scale group size, and drops for groups
// larger than ~10; FS-NewTOP's overhead is 20-30% for small groups, rising
// to ~100% for groups with more than 10 members.
#include "harness.hpp"

int main(int argc, char** argv) {
    using namespace failsig;
    using namespace failsig::bench;

    const auto cli = scenario::parse_cli(
        argc, argv,
        {"--groups", "--messages", "--payload", "--batch", "--seed", "--jobs", "--out"});
    if (cli.help) return 0;
    if (cli.error) return 1;
    std::vector<int> groups = cli.group_sizes;
    if (groups.empty()) {
        for (int n = 2; n <= 15; ++n) groups.push_back(n);
    }

    // --batch a,b,c crosses in the ordering pipeline's batch sizes (1 =
    // off, the paper's shape); each batch value gets its own table block.
    std::vector<std::size_t> batches = cli.batch_sizes;
    if (batches.empty()) batches.push_back(1);

    print_header("FIG7: throughput vs group size (8-byte messages)",
                 "both rise from n=2, peak near 10, drop beyond; FS overhead 20-30% small n, "
                 "~100% for n>10");

    std::vector<scenario::Scenario> cells;
    for (const std::size_t b : batches) {
        for (const int n : groups) {
            for (const auto system : {SystemKind::kNewTop, SystemKind::kFsNewTop}) {
                scenario::Scenario s = paper_scenario(system, n);
                s.workload.msgs_per_member = cli.msgs_per_member > 0 ? cli.msgs_per_member : 40;
                if (cli.payload_size > 0) s.workload.payload_size = cli.payload_size;
                if (cli.seed_set) s.seed = cli.seed;
                s.batch.max_requests = b;
                cells.push_back(s);
            }
        }
    }
    const auto reports = run_cells(cells, cli.jobs);

    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
        if (batches.size() > 1) {
            std::printf("--- batch max_requests = %zu %s\n", batches[bi],
                        batches[bi] <= 1 ? "(batching off)" : "");
        }
        std::printf("%-8s %-18s %-18s %-12s\n", "members", "NewTOP(msg/s)",
                    "FS-NewTOP(msg/s)", "overhead");
        for (std::size_t g = 0; g < groups.size(); ++g) {
            const int n = groups[g];
            const std::size_t row = 2 * (bi * groups.size() + g);
            const auto& newtop = reports[row].metrics;
            const auto& fsnewtop = reports[row + 1].metrics;

            const double overhead =
                fsnewtop.throughput_msg_s > 0
                    ? 100.0 * (newtop.throughput_msg_s - fsnewtop.throughput_msg_s) /
                          fsnewtop.throughput_msg_s
                    : 0.0;
            std::printf("%-8d %-18.1f %-18.1f %6.0f%%%s\n", n, newtop.throughput_msg_s,
                        fsnewtop.throughput_msg_s, overhead,
                        fsnewtop.fail_signals ? "  [UNEXPECTED FAIL-SIGNALS]" : "");
        }
    }
    return finish(cli, reports);
}
