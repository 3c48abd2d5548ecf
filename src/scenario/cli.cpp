#include "scenario/cli.hpp"

#include <cstdio>

#include "common/parse.hpp"

namespace failsig::scenario {

namespace {

void print_usage(const char* program, const std::string& extra) {
    std::printf(
        "usage: %s [options]\n"
        "  --groups a,b,c   group sizes to sweep (comma separated)\n"
        "  --messages N     messages multicast per member\n"
        "  --payload N      payload bytes per message (min 8)\n"
        "  --batch a,b,c    batch sizes to sweep (max requests per ordered\n"
        "                   unit; 1 = batching off)\n"
        "  --seed N         RNG seed\n"
        "  --jobs N         worker threads for independent runs (default:\n"
        "                   hardware concurrency; results are identical for any N)\n"
        "  --out PATH       write a JSON report to PATH\n"
        "  --metrics-out PATH  enable observability and write the metrics\n"
        "                   document (failsig-metrics-v1) to PATH; the main\n"
        "                   report bytes are unaffected\n"
        "  --backend B      execution backend: sim (default; deterministic,\n"
        "                   byte-reproducible reports) or tcp (real sockets\n"
        "                   on localhost; timing is wall-clock)\n"
        "  --only SUBSTR    run only campaigns whose name contains SUBSTR\n"
        "  --help           this text\n%s",
        program, extra.c_str());
}

/// A positive int up to one million, read by the strict parse_u64.
bool parse_positive_int(const std::string& token, int& out) {
    std::uint64_t v = 0;
    if (!parse_u64(token, v) || v == 0 || v > 1'000'000) return false;
    out = static_cast<int>(v);
    return true;
}

bool parse_int_list(const char* text, std::vector<int>& out) {
    std::string token;
    const std::string input = text;
    for (std::size_t i = 0; i <= input.size(); ++i) {
        if (i == input.size() || input[i] == ',') {
            int value = 0;
            if (!parse_positive_int(token, value)) return false;
            out.push_back(value);
            token.clear();
        } else {
            token += input[i];
        }
    }
    return !out.empty();
}

}  // namespace

CliOptions parse_cli(int argc, char** argv, const std::string& extra_usage) {
    CliOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--help" || arg == "-h") {
            print_usage(argv[0], extra_usage);
            opts.help = true;
            return opts;
        }
        if (arg == "--groups" && has_value) {
            if (!parse_int_list(argv[++i], opts.group_sizes)) {
                std::fprintf(stderr, "%s: bad --groups value '%s'\n", argv[0], argv[i]);
                opts.error = true;
                return opts;
            }
        } else if (arg == "--messages" && has_value) {
            if (!parse_positive_int(argv[++i], opts.msgs_per_member)) {
                std::fprintf(stderr, "%s: bad --messages value '%s'\n", argv[0], argv[i]);
                opts.error = true;
                return opts;
            }
        } else if (arg == "--payload" && has_value) {
            // 16 MiB cap: each member materializes one payload per message,
            // so an unbounded size is an instant out-of-memory, not a sweep.
            constexpr std::uint64_t kMaxPayload = 16ull * 1024 * 1024;
            std::uint64_t v = 0;
            if (!parse_u64(argv[++i], v) || v == 0 || v > kMaxPayload) {
                std::fprintf(stderr, "%s: bad --payload value '%s'\n", argv[0], argv[i]);
                opts.error = true;
                return opts;
            }
            opts.payload_size = static_cast<std::size_t>(v);
        } else if (arg == "--batch" && has_value) {
            std::vector<int> sizes;
            if (!parse_int_list(argv[++i], sizes)) {
                std::fprintf(stderr, "%s: bad --batch value '%s'\n", argv[0], argv[i]);
                opts.error = true;
                return opts;
            }
            for (const int b : sizes) opts.batch_sizes.push_back(static_cast<std::size_t>(b));
        } else if (arg == "--seed" && has_value) {
            if (!parse_u64(argv[++i], opts.seed)) {
                std::fprintf(stderr, "%s: bad --seed value '%s'\n", argv[0], argv[i]);
                opts.error = true;
                return opts;
            }
            opts.seed_set = true;
        } else if (arg == "--jobs" && has_value) {
            if (!parse_positive_int(argv[++i], opts.jobs)) {
                std::fprintf(stderr, "%s: bad --jobs value '%s'\n", argv[0], argv[i]);
                opts.error = true;
                return opts;
            }
        } else if (arg == "--out" && has_value) {
            opts.out_path = argv[++i];
        } else if (arg == "--metrics-out" && has_value) {
            opts.metrics_out_path = argv[++i];
        } else if (arg == "--backend" && has_value) {
            opts.backend = argv[++i];
            if (opts.backend != "sim" && opts.backend != "tcp") {
                std::fprintf(stderr, "%s: bad --backend value '%s' (sim or tcp)\n",
                             argv[0], opts.backend.c_str());
                opts.error = true;
                return opts;
            }
        } else if (arg == "--only" && has_value) {
            opts.only = argv[++i];
        } else {
            std::fprintf(stderr, "%s: unknown or incomplete option '%s' (try --help)\n",
                         argv[0], arg.c_str());
            opts.error = true;
            return opts;
        }
    }
    return opts;
}

}  // namespace failsig::scenario
