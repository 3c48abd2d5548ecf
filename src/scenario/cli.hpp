// Shared command-line parsing for the bench and example binaries.
//
// Every experiment binary reads its knobs (group sizes, message count,
// payload size, seed, report path) through one parser, so sweeps are
// scriptable without editing hard-coded constants:
//     bench_fig7_throughput --groups 2,6,10 --messages 80 --seed 7 --out fig7.json
// Each binary names the flags it reads; any other flag is an error.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace failsig::scenario {

struct CliOptions {
    std::vector<int> group_sizes;  ///< empty = binary default
    int msgs_per_member{0};        ///< 0 = binary default
    std::size_t payload_size{0};   ///< 0 = binary default
    /// Batch-size axis (BatchConfig::max_requests values); empty = binary
    /// default (usually batching off). 1 is a valid entry: "unbatched".
    std::vector<std::size_t> batch_sizes;
    std::uint64_t seed{0};
    bool seed_set{false};
    int jobs{0};           ///< sweep worker threads; 0 = hardware concurrency
    std::string out_path;  ///< empty = no report file
    /// Non-empty = enable observability on every run and write the combined
    /// metrics document (failsig-metrics-v1 snapshots) to this path. The
    /// main report stays byte-identical either way.
    std::string metrics_out_path;
    /// Execution backend: "" = binary default (the deterministic simulator),
    /// "sim" or "tcp" (real sockets on localhost; wall-clock timing,
    /// reports no longer byte-reproducible).
    std::string backend;
    /// Campaign/cell name filter: run only entries whose name contains this
    /// substring. Empty = run everything.
    std::string only;
    bool help{false};      ///< --help given: usage already printed
    bool error{false};     ///< bad flag/value: message already printed
};

/// Parses the flags in `accepted`, a subset of --groups a,b,c /
/// --messages N / --payload N / --batch a,b,c / --seed N / --jobs N /
/// --out PATH / --metrics-out PATH / --backend sim|tcp / --only SUBSTR, plus
/// --help, whose usage text lists only `accepted`. A flag outside
/// `accepted` is an error. Callers should exit 0 on `.help` and exit 1 on
/// `.error`.
CliOptions parse_cli(int argc, char** argv, std::initializer_list<std::string_view> accepted);

}  // namespace failsig::scenario
