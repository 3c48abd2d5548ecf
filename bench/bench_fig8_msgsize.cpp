// FIG8 — reproduces paper Figure 8: throughput vs message size for a fixed
// 10-member group (--groups sweeps other sizes, one table block each).
//
// Expected shape (paper §4): both systems' throughput decreases with
// increasing message size; FS-NewTOP's throughput deficit is roughly
// constant in absolute terms (~30 msg/s in the paper) across sizes.
#include <algorithm>

#include "harness.hpp"

int main(int argc, char** argv) {
    using namespace failsig;
    using namespace failsig::bench;

    const auto cli =
        scenario::parse_cli(argc, argv, {"--groups", "--messages", "--seed", "--jobs", "--out"});
    if (cli.help) return 0;
    if (cli.error) return 1;
    const std::vector<int> groups =
        cli.group_sizes.empty() ? std::vector<int>{10} : cli.group_sizes;
    constexpr int kSizes = 11;  // 0k .. 10k

    std::string members;
    for (const int n : groups) members += (members.empty() ? "" : ",") + std::to_string(n);
    print_header(("FIG8: throughput vs message size (" + members + " members)").c_str(),
                 "both fall with size; FS absolute gap roughly constant across sizes");

    std::vector<scenario::Scenario> cells;
    for (const int n : groups) {
        for (int kb = 0; kb < kSizes; ++kb) {
            for (const auto system : {SystemKind::kNewTop, SystemKind::kFsNewTop}) {
                scenario::Scenario s = paper_scenario(system, n);
                s.workload.msgs_per_member = cli.msgs_per_member > 0 ? cli.msgs_per_member : 30;
                if (cli.seed_set) s.seed = cli.seed;
                // Run at saturation so throughput measures capacity (as the
                // paper's fixed-group, size-swept runs do), not the injection
                // rate.
                s.workload.send_interval = 40 * kMillisecond;
                // The 0k row sends the smallest payload, the latency tag.
                s.workload.payload_size =
                    std::max(scenario::kMinPayload, static_cast<std::size_t>(kb) * 1024);
                cells.push_back(s);
            }
        }
    }
    const auto reports = run_cells(cells, cli.jobs);

    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (groups.size() > 1) std::printf("--- %d members\n", groups[g]);
        std::printf("%-10s %-18s %-18s %-14s\n", "size", "NewTOP(msg/s)", "FS-NewTOP(msg/s)",
                    "gap(msg/s)");
        for (int kb = 0; kb < kSizes; ++kb) {
            const std::size_t row = 2 * (g * kSizes + static_cast<std::size_t>(kb));
            const auto& newtop = reports[row].metrics;
            const auto& fsnewtop = reports[row + 1].metrics;

            std::printf("%2dk        %-18.1f %-18.1f %-14.1f%s\n", kb, newtop.throughput_msg_s,
                        fsnewtop.throughput_msg_s,
                        newtop.throughput_msg_s - fsnewtop.throughput_msg_s,
                        fsnewtop.fail_signals ? "  [UNEXPECTED FAIL-SIGNALS]" : "");
        }
    }
    return finish(cli, reports);
}
