// FIG6 — reproduces paper Figure 6: symmetric-total-order latency of small
// messages (the paper's 3 bytes; 8 here, the latency tag) vs group size,
// NewTOP vs FS-NewTOP.
//
// Expected shape (paper §4): FS-NewTOP shows a fairly constant absolute
// latency overhead for small groups; the gap grows with group size, reaching
// ~50% relative overhead at 9-10 members; both curves grow with n.
#include "harness.hpp"

int main(int argc, char** argv) {
    using namespace failsig;
    using namespace failsig::bench;

    const auto cli = scenario::parse_cli(
        argc, argv, {"--groups", "--messages", "--payload", "--seed", "--jobs", "--out"});
    if (cli.help) return 0;
    if (cli.error) return 1;
    std::vector<int> groups = cli.group_sizes;
    if (groups.empty()) {
        for (int n = 2; n <= 10; ++n) groups.push_back(n);
    }

    print_header("FIG6: symmetric total order latency vs group size (8-byte messages)",
                 "constant FS gap for small n; ~50% overhead at n=9-10; both rise with n");

    std::vector<scenario::Scenario> cells;
    for (const int n : groups) {
        for (const auto system : {SystemKind::kNewTop, SystemKind::kFsNewTop}) {
            scenario::Scenario s = paper_scenario(system, n);
            s.workload.msgs_per_member = cli.msgs_per_member > 0 ? cli.msgs_per_member : 40;
            if (cli.payload_size > 0) s.workload.payload_size = cli.payload_size;
            if (cli.seed_set) s.seed = cli.seed;
            cells.push_back(s);
        }
    }
    const auto reports = run_cells(cells, cli.jobs);

    std::printf("%-8s %-16s %-16s %-12s %-12s\n", "members", "NewTOP(ms)", "FS-NewTOP(ms)",
                "gap(ms)", "overhead");
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const int n = groups[g];
        const auto& newtop = reports[2 * g].metrics;
        const auto& fsnewtop = reports[2 * g + 1].metrics;

        const double gap = fsnewtop.mean_latency_ms - newtop.mean_latency_ms;
        const double overhead = newtop.mean_latency_ms > 0
                                    ? 100.0 * gap / newtop.mean_latency_ms
                                    : 0.0;
        std::printf("%-8d %-16.1f %-16.1f %-12.1f %6.0f%%%s\n", n, newtop.mean_latency_ms,
                    fsnewtop.mean_latency_ms, gap, overhead,
                    fsnewtop.fail_signals ? "  [UNEXPECTED FAIL-SIGNALS]" : "");
    }
    return finish(cli, reports);
}
