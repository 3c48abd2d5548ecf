// FIG8 — reproduces paper Figure 8: throughput vs message size for a fixed
// 10-member group.
//
// Expected shape (paper §4): both systems' throughput decreases with
// increasing message size; FS-NewTOP's throughput deficit is roughly
// constant in absolute terms (~30 msg/s in the paper) across sizes.
#include "harness.hpp"

int main(int argc, char** argv) {
    using namespace failsig;
    using namespace failsig::bench;

    const auto cli = scenario::parse_cli(
        argc, argv, "  (--groups selects the fixed group size; --payload is ignored:\n"
                    "   this bench sweeps message size itself)\n");
    if (cli.help) return 0;
    if (cli.error) return 1;
    const int group = cli.group_sizes.empty() ? 10 : cli.group_sizes.front();

    print_header("FIG8: throughput vs message size (10 members)",
                 "both fall with size; FS absolute gap roughly constant across sizes");

    std::vector<ExperimentConfig> configs;
    for (int kb = 0; kb <= 10; ++kb) {
        ExperimentConfig cfg;
        cfg.group_size = group;
        cfg.msgs_per_member = cli.msgs_per_member > 0 ? cli.msgs_per_member : 30;
        if (cli.seed_set) cfg.seed = cli.seed;
        // Run at saturation so throughput measures capacity (as the paper's
        // fixed-group, size-swept runs do), not the injection rate.
        cfg.send_interval = 40 * kMillisecond;
        cfg.payload_size = static_cast<std::size_t>(kb) * 1024;
        if (cfg.payload_size < 8) cfg.payload_size = 8;  // room for the latency tag
        cfg.system = SystemKind::kNewTop;
        configs.push_back(cfg);
        cfg.system = SystemKind::kFsNewTop;
        configs.push_back(cfg);
    }
    const auto reports = run_experiment_reports(configs, cli.jobs);

    std::printf("%-10s %-18s %-18s %-14s\n", "size", "NewTOP(msg/s)", "FS-NewTOP(msg/s)",
                "gap(msg/s)");
    for (int kb = 0; kb <= 10; ++kb) {
        const auto newtop = to_result(reports[static_cast<std::size_t>(2 * kb)]);
        const auto fsnewtop = to_result(reports[static_cast<std::size_t>(2 * kb + 1)]);

        std::printf("%2dk        %-18.1f %-18.1f %-14.1f%s\n", kb, newtop.throughput_msg_s,
                    fsnewtop.throughput_msg_s,
                    newtop.throughput_msg_s - fsnewtop.throughput_msg_s,
                    fsnewtop.fail_signals ? "  [UNEXPECTED FAIL-SIGNALS]" : "");
    }
    return maybe_write_report(cli, reports) ? 0 : 1;
}
