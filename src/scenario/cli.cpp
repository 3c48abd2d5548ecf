#include "scenario/cli.hpp"

#include <algorithm>
#include <cstdio>

#include "common/parse.hpp"
#include "scenario/scenario.hpp"

namespace failsig::scenario {

namespace {

/// One line of usage text per flag, in the order --help prints them.
struct FlagHelp {
    std::string_view flag;
    const char* text;
};

constexpr FlagHelp kFlagHelp[] = {
    {"--groups", "  --groups a,b,c   group sizes to sweep (comma separated)\n"},
    {"--messages", "  --messages N     messages multicast per member\n"},
    {"--payload", "  --payload N      payload bytes per message (min 8)\n"},
    {"--batch",
     "  --batch a,b,c    batch sizes to sweep (max requests per ordered\n"
     "                   unit; 1 = batching off)\n"},
    {"--seed", "  --seed N         RNG seed\n"},
    {"--jobs",
     "  --jobs N         worker threads for independent runs (default:\n"
     "                   hardware concurrency; results are identical for any N)\n"},
    {"--out", "  --out PATH       write a JSON report to PATH\n"},
    {"--metrics-out",
     "  --metrics-out PATH  enable observability and write the metrics\n"
     "                   document (failsig-metrics-v1) to PATH; the main\n"
     "                   report bytes are unaffected\n"},
    {"--backend",
     "  --backend B      execution backend: sim (default; deterministic,\n"
     "                   byte-reproducible reports) or tcp (real sockets\n"
     "                   on localhost; timing is wall-clock)\n"},
    {"--only", "  --only SUBSTR    run only campaigns whose name contains SUBSTR\n"},
};

bool is_accepted(std::initializer_list<std::string_view> accepted, std::string_view flag) {
    return std::find(accepted.begin(), accepted.end(), flag) != accepted.end();
}

void print_usage(const char* program, std::initializer_list<std::string_view> accepted) {
    std::printf("usage: %s [options]\n", program);
    for (const auto& help : kFlagHelp) {
        if (is_accepted(accepted, help.flag)) std::fputs(help.text, stdout);
    }
    std::printf("  --help           this text\n");
}

/// A positive int up to one million, read by the strict parse_int.
bool parse_positive_int(const std::string& token, int& out) {
    return parse_int(token, out) && out > 0 && out <= 1'000'000;
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

CliOptions parse_cli(int argc, char** argv, std::initializer_list<std::string_view> accepted) {
    CliOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            print_usage(argv[0], accepted);
            opts.help = true;
            return opts;
        }
        // Every flag takes a value.
        if (!is_accepted(accepted, arg) || i + 1 == argc) {
            std::fprintf(stderr, "%s: unknown or incomplete option '%s' (try --help)\n",
                         argv[0], arg.c_str());
            opts.error = true;
            return opts;
        }
        const char* value = argv[++i];
        bool ok = true;
        if (arg == "--groups") {
            ok = parse_int_list(value, opts.group_sizes);
        } else if (arg == "--messages") {
            ok = parse_positive_int(value, opts.msgs_per_member);
        } else if (arg == "--payload") {
            std::uint64_t v = 0;
            ok = parse_u64(value, v) && v >= kMinPayload && v <= kMaxPayload;
            opts.payload_size = static_cast<std::size_t>(v);
        } else if (arg == "--batch") {
            std::vector<int> sizes;
            ok = parse_int_list(value, sizes);
            for (const int b : sizes) opts.batch_sizes.push_back(static_cast<std::size_t>(b));
        } else if (arg == "--seed") {
            ok = parse_u64(value, opts.seed);
            opts.seed_set = true;
        } else if (arg == "--jobs") {
            ok = parse_positive_int(value, opts.jobs);
        } else if (arg == "--out") {
            opts.out_path = value;
        } else if (arg == "--metrics-out") {
            opts.metrics_out_path = value;
        } else if (arg == "--backend") {
            opts.backend = value;
            ok = opts.backend == "sim" || opts.backend == "tcp";
        } else if (arg == "--only") {
            opts.only = value;
        } else {
            ok = false;  // an accepted name this parser does not know
        }
        if (!ok) {
            std::fprintf(stderr, "%s: bad %s value '%s'\n", argv[0], arg.c_str(), value);
            opts.error = true;
            return opts;
        }
    }
    return opts;
}

}  // namespace failsig::scenario
