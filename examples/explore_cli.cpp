// explore_cli — drive the schedule-space explorer from the command line.
//
// Two modes:
//   * exploration (default): run N seeded episodes per (system, n, batch)
//     cell, judge every trace with the invariant checkers, shrink any
//     violation to a minimal reproducer, and exit non-zero if anything was
//     found — the shape the CI explore-smoke job gates on.
//   * replay (--replay FILE): re-run an emitted reproducer spec and check
//     it against its recorded expectation (reproduces the violation → exit
//     0; a spec with no recorded expectation passes iff all invariants
//     hold).
//
// Budget presets:
//   --budget smoke    small PR-gate budget (seconds; zero violations
//                     expected — any finding fails the build)
//   --budget nightly  wider sweep for scheduled runs (more cells, more
//                     episodes, deeper fault scripts)
//
// Everything is deterministic: same flags → byte-identical report at any
// --jobs value.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/parse.hpp"
#include "explore/explore.hpp"
#include "explore/repro.hpp"
#include "explore/shrink.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"

using namespace failsig;

namespace {

void usage(const char* prog) {
    std::printf(
        "usage: %s [options]\n"
        "  --budget smoke|nightly   preset episode/grammar budget (default smoke);\n"
        "                           applied before all other flags, so explicit\n"
        "                           flags always override the preset\n"
        "  --episodes N             episodes per (system,n,batch) cell\n"
        "  --max-faults N           fault-script events per episode (0..N)\n"
        "  --horizon-ms N           fault script time horizon\n"
        "  --systems a,b,c          newtop,fsnewtop,pbft (default all)\n"
        "  --groups a,b,c           group sizes (default 3,4)\n"
        "  --batch a,b,c            batch sizes (default 1)\n"
        "  --seed N                 master seed (default 1)\n"
        "  --jobs N                 worker threads (default hardware)\n"
        "  --out PATH               write the JSON report\n"
        "  --repro-dir DIR          write minimal reproducer .scenario files\n"
        "                           (plus .trace evidence and .flight\n"
        "                           flight-recorder dumps)\n"
        "  --progress N             heartbeat on stderr every N episodes\n"
        "                           (episodes done, episodes/sec, violations);\n"
        "                           the report stays byte-identical\n"
        "  --no-shrink              report violations without minimizing\n"
        "  --churn                  add crash->recover->rejoin arcs to the\n"
        "                           grammar (periodic checkpoints on; NewTOP\n"
        "                           cells need --unsound-suspectors to draw it)\n"
        "  --unsound-suspectors     add NewTOP timeout suspectors to the grammar\n"
        "                           (explores the paper's known false-suspicion\n"
        "                           pathology; violations are then EXPECTED)\n"
        "  --replay FILE            re-run a reproducer spec and verify it\n"
        "  --trace                  with --replay: dump the canonical trace\n",
        prog);
}

/// Parses a bounded positive int ("--episodes 4294967296 must not wrap to
/// a silently-green zero-episode run").
bool parse_count_arg(const char* text, int max, int& out) {
    std::uint64_t u64 = 0;
    if (!parse_u64(text, u64) || u64 == 0 || u64 > static_cast<std::uint64_t>(max)) {
        return false;
    }
    out = static_cast<int>(u64);
    return true;
}

bool split_list(const std::string& text, std::vector<std::string>& out) {
    std::string item;
    for (const char c : text + ",") {
        if (c == ',') {
            if (item.empty()) return false;
            out.push_back(item);
            item.clear();
        } else {
            item += c;
        }
    }
    return !out.empty();
}

int replay(const std::string& path, bool dump_trace) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "explore: cannot read %s\n", path.c_str());
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto parsed = explore::parse_spec(buffer.str());
    if (!parsed) {
        std::fprintf(stderr, "explore: %s: %s\n", path.c_str(),
                     parsed.error().message.c_str());
        return 1;
    }
    const auto& spec = parsed.value();
    std::printf("replaying %s (%s, n=%d, seed=%llu, tie_break_seed=%llu)\n",
                spec.scenario.name.c_str(), scenario::name_of(spec.scenario.system),
                spec.scenario.group_size,
                static_cast<unsigned long long>(spec.scenario.seed),
                static_cast<unsigned long long>(spec.scenario.tie_break_seed));

    std::string trace;
    const auto results = explore::run_and_evaluate(spec.scenario, {}, &trace);
    if (dump_trace) std::fputs(trace.c_str(), stdout);
    for (const auto& inv : results) {
        std::printf("  %-28s %s%s%s\n", inv.name.c_str(), inv.passed ? "pass" : "FAIL",
                    inv.detail.empty() ? "" : ": ", inv.detail.c_str());
    }

    if (!spec.expect_violation.empty()) {
        const auto* verdict = scenario::find_result(results, spec.expect_violation);
        const bool reproduced = verdict != nullptr && !verdict->passed;
        std::printf("expected violation '%s': %s\n", spec.expect_violation.c_str(),
                    reproduced ? "REPRODUCED" : "did NOT reproduce");
        return reproduced ? 0 : 1;
    }
    const bool all_pass = scenario::all_passed(results);
    std::printf("no recorded expectation: %s\n",
                all_pass ? "all invariants hold" : "invariant violations above");
    return all_pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    explore::ExploreConfig config;
    // Smoke preset: a PR-sized budget — all three systems, one group size
    // each that every system can run, a handful of episodes.
    config.group_sizes = {4};
    config.episodes_per_cell = 6;
    config.workload.msgs_per_member = 6;
    std::string out_path;
    std::string repro_dir;
    std::string replay_path;
    bool dump_trace = false;
    int progress_every = 0;

    // Presets apply FIRST, regardless of where --budget sits on the command
    // line, so `--episodes 200 --budget nightly` means "nightly, but 200
    // episodes" rather than silently discarding the explicit flag.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--budget") != 0) continue;
        if (i + 1 >= argc) {
            std::fprintf(stderr, "explore: --budget needs a value\n");
            return 1;
        }
        const std::string preset = argv[i + 1];
        if (preset == "smoke") {
            config.group_sizes = {4};
            config.batch_sizes = {1};
            config.episodes_per_cell = 6;
            config.grammar.max_fault_events = 3;
        } else if (preset == "nightly") {
            config.group_sizes = {3, 4, 6};
            config.batch_sizes = {1, 8};
            config.episodes_per_cell = 40;
            config.grammar.max_fault_events = 5;
        } else {
            std::fprintf(stderr, "explore: unknown budget '%s'\n", preset.c_str());
            return 1;
        }
    }

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "explore: %s needs a value\n", arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        std::uint64_t u64 = 0;
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--budget") {
            value();  // validated and applied in the preset pass above
        } else if (arg == "--episodes") {
            if (!parse_count_arg(value(), 1000000, config.episodes_per_cell)) {
                std::fprintf(stderr, "explore: bad --episodes (want 1..1000000)\n");
                return 1;
            }
        } else if (arg == "--max-faults") {
            if (!parse_u64(value(), u64) || u64 > 64) {
                std::fprintf(stderr, "explore: bad --max-faults (want 0..64)\n");
                return 1;
            }
            config.grammar.max_fault_events = static_cast<int>(u64);
        } else if (arg == "--horizon-ms") {
            if (!parse_u64(value(), u64) || u64 == 0 || u64 > 3600000) {
                std::fprintf(stderr, "explore: bad --horizon-ms (want 1..3600000)\n");
                return 1;
            }
            config.grammar.horizon = static_cast<TimePoint>(u64) * kMillisecond;
        } else if (arg == "--systems") {
            std::vector<std::string> names;
            if (!split_list(value(), names)) {
                std::fprintf(stderr, "explore: bad --systems\n");
                return 1;
            }
            config.systems.clear();
            for (const auto& name : names) {
                if (name == "newtop") config.systems.push_back(explore::SystemKind::kNewTop);
                else if (name == "fsnewtop")
                    config.systems.push_back(explore::SystemKind::kFsNewTop);
                else if (name == "pbft") config.systems.push_back(explore::SystemKind::kPbft);
                else {
                    std::fprintf(stderr, "explore: unknown system '%s'\n", name.c_str());
                    return 1;
                }
            }
        } else if (arg == "--groups") {
            std::vector<std::string> items;
            if (!split_list(value(), items)) {
                std::fprintf(stderr, "explore: bad --groups\n");
                return 1;
            }
            config.group_sizes.clear();
            for (const auto& item : items) {
                if (!parse_u64(item, u64) || u64 == 0 || u64 > 64) {
                    std::fprintf(stderr, "explore: bad group size '%s'\n", item.c_str());
                    return 1;
                }
                config.group_sizes.push_back(static_cast<int>(u64));
            }
        } else if (arg == "--batch") {
            std::vector<std::string> items;
            if (!split_list(value(), items)) {
                std::fprintf(stderr, "explore: bad --batch\n");
                return 1;
            }
            config.batch_sizes.clear();
            for (const auto& item : items) {
                if (!parse_u64(item, u64) || u64 == 0 || u64 > 65536) {
                    std::fprintf(stderr, "explore: bad batch size '%s'\n", item.c_str());
                    return 1;
                }
                config.batch_sizes.push_back(static_cast<std::size_t>(u64));
            }
        } else if (arg == "--seed") {
            if (!parse_u64(value(), u64)) {
                std::fprintf(stderr, "explore: bad --seed\n");
                return 1;
            }
            config.seed = u64;
        } else if (arg == "--jobs") {
            if (!parse_count_arg(value(), 4096, config.jobs)) {
                std::fprintf(stderr, "explore: bad --jobs (want 1..4096)\n");
                return 1;
            }
        } else if (arg == "--out") {
            out_path = value();
        } else if (arg == "--repro-dir") {
            repro_dir = value();
        } else if (arg == "--progress") {
            if (!parse_count_arg(value(), 1000000, progress_every)) {
                std::fprintf(stderr, "explore: bad --progress (want 1..1000000)\n");
                return 1;
            }
        } else if (arg == "--no-shrink") {
            config.shrink = false;
        } else if (arg == "--churn") {
            config.grammar.churn = true;
        } else if (arg == "--unsound-suspectors") {
            config.grammar.newtop_suspectors = true;
        } else if (arg == "--replay") {
            replay_path = value();
        } else if (arg == "--trace") {
            dump_trace = true;
        } else {
            std::fprintf(stderr, "explore: unknown flag '%s'\n", arg.c_str());
            usage(argv[0]);
            return 1;
        }
    }

    if (!replay_path.empty()) return replay(replay_path, dump_trace);

    std::size_t cells = 0;
    for (const auto system : config.systems) {
        for (const int n : config.group_sizes) {
            if (n >= deploy::traits_of(system).min_group_size) {
                cells += config.batch_sizes.size();
            }
        }
    }
    std::printf("failsig schedule-space explorer — %zu cells x %d episodes, seed %llu\n",
                cells, config.episodes_per_cell,
                static_cast<unsigned long long>(config.seed));

    if (progress_every > 0) {
        // Heartbeat on stderr (stdout stays machine-parseable): episodes
        // done, wall-clock rate, violations so far. Long nightly budgets
        // are otherwise silent for minutes at a time.
        const auto started = std::chrono::steady_clock::now();
        config.progress_every = progress_every;
        config.progress = [started](std::size_t done, std::size_t total,
                                    std::size_t violated) {
            const double secs =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                    .count();
            const double rate = secs > 0.0 ? static_cast<double>(done) / secs : 0.0;
            std::fprintf(stderr, "explore: %zu/%zu episodes, %.1f episodes/s, %zu violation(s)\n",
                         done, total, rate, violated);
        };
    }

    const auto report = explore::explore(config);

    std::size_t violated = 0;
    for (const auto& e : report.episodes) {
        if (e.violated) ++violated;
    }
    std::printf("%zu episodes run, %zu violated an invariant\n", report.episodes.size(),
                violated);
    for (const auto& v : report.violations) {
        std::printf("\nVIOLATION %s — invariant '%s' (%d events shrunk to %d, %d oracle runs)\n",
                    report.episodes[v.episode].scenario.name.c_str(), v.invariant.c_str(),
                    v.original_events, v.minimal_events, v.oracle_runs);
        std::fputs(v.spec.c_str(), stdout);
        if (!repro_dir.empty()) {
            std::string file = report.episodes[v.episode].scenario.name + ".scenario";
            for (char& c : file) {
                if (c == '/') c = '_';
            }
            const std::string path = repro_dir + "/" + file;
            if (scenario::write_file(path, v.spec)) {
                std::printf("reproducer written to %s\n", path.c_str());
            }
            // The evidence next to the claim: the canonical trace of the
            // minimal run, for diffing against a replay, and the flight
            // recorder's per-node timeline at the moment of violation.
            if (!v.minimal_trace.empty()) {
                scenario::write_file(path + ".trace", v.minimal_trace);
            }
            if (!v.flight_dump.empty()) {
                scenario::write_file(path + ".flight", v.flight_dump);
            }
        }
    }

    if (!out_path.empty() && !scenario::write_file(out_path, report.to_json())) return 1;

    if (!report.clean()) {
        std::printf("\n%zu violation(s) found — see reproducers above\n",
                    report.violations.size());
        return 1;
    }
    std::printf("no invariant violations in the explored schedule space\n");
    return 0;
}
