// AB4 — failure-detection ablation.
//
// Two contrasts the paper argues qualitatively, measured here:
//  (a) FS-NewTOP detection: time from fault injection at one pair node until
//      the surviving members install the view excluding the faulty member,
//      as a function of the pair-link bound δ and the compare slack. No
//      timeout guessing against the asynchronous network is involved.
//  (b) NewTOP (crash-tolerant) detection: time until the survivors' view
//      excludes a crashed member, as a function of the ping suspector's
//      timeout — plus the false-suspicion rate the same timeout produces
//      under a delay surge with NO failure (the cost of guessing).
#include "deploy/fsnewtop.hpp"
#include "deploy/newtop.hpp"
#include "scenario/cli.hpp"
#include "scenario/report.hpp"

#include <cstdio>

using namespace failsig;

namespace {

/// (a) FS-NewTOP: inject output corruption at member 2's follower node at
/// t=inject; return time until members 0 and 1 both install {0,1}.
Duration fs_detection_time(Duration delta, Duration slack, std::uint64_t seed) {
    deploy::DeploymentSpec spec;
    spec.group_size = 3;
    spec.seed = seed;
    spec.fs_config.delta = delta;
    spec.fs_config.compare_slack = slack;
    deploy::FsNewTopDeployment d(spec);

    // Warm up with traffic, then turn node faulty.
    for (int i = 0; i < 3; ++i) d.submit(i, bytes_of("warm"));
    d.run();

    const TimePoint inject = d.now();
    fs::FaultPlan plan;
    plan.corrupt_outputs = true;
    d.inject_fault({.member = 2, .at_leader = false, .plan = plan});
    d.submit(0, bytes_of("trigger"));

    TimePoint detected = -1;
    while (d.now() < inject + 120 * kSecond) {
        if (!d.sim().step()) break;
        if (d.gc_leader(0).view().members == std::vector<newtop::MemberId>{0, 1} &&
            d.gc_leader(1).view().members == std::vector<newtop::MemberId>{0, 1}) {
            detected = d.now();
            break;
        }
    }
    return detected < 0 ? -1 : detected - inject;
}

/// Three NewTOP members with 50 ms pings and the given suspect timeout.
deploy::DeploymentSpec newtop_spec(Duration suspect_timeout, std::uint64_t seed) {
    deploy::DeploymentSpec spec;
    spec.group_size = 3;
    spec.seed = seed;
    spec.start_suspectors = true;
    spec.suspector.ping_interval = 50 * kMillisecond;
    spec.suspector.suspect_timeout = suspect_timeout;
    return spec;
}

/// (b) NewTOP: crash member 2 at t=crash; return detection time, or measure
/// false suspicions under a delay surge when nothing crashed.
Duration newtop_detection_time(Duration suspect_timeout, std::uint64_t seed) {
    deploy::NewTopDeployment d(newtop_spec(suspect_timeout, seed));

    d.run_until(300 * kMillisecond);
    const TimePoint crash = d.now();
    d.faults().block(d.node_of(2), d.node_of(0));
    d.faults().block(d.node_of(2), d.node_of(1));

    TimePoint detected = -1;
    while (d.now() < crash + 60 * kSecond) {
        d.run_until(d.now() + 10 * kMillisecond);
        if (d.gc(0).view().members == std::vector<newtop::MemberId>{0, 1} &&
            d.gc(1).view().members == std::vector<newtop::MemberId>{0, 1}) {
            detected = d.now();
            break;
        }
    }
    d.stop_perpetual();
    return detected < 0 ? -1 : detected - crash;
}

bool newtop_splits_under_surge(Duration suspect_timeout, Duration surge, std::uint64_t seed) {
    deploy::NewTopDeployment d(newtop_spec(suspect_timeout, seed));

    d.run_until(300 * kMillisecond);
    d.faults().delay_surge(surge, d.now() + 3 * kSecond);
    d.run_until(d.now() + 8 * kSecond);
    d.stop_perpetual();
    d.run();
    return d.gc(0).view().members.size() < 3 || d.gc(1).view().members.size() < 3 ||
           d.gc(2).view().members.size() < 3;
}

}  // namespace

int main(int argc, char** argv) {
    const auto cli = scenario::parse_cli(argc, argv, {"--seed", "--out"});
    if (cli.help) return 0;
    if (cli.error) return 1;
    const std::uint64_t seed = cli.seed_set ? cli.seed : 1;

    std::printf("================================================================\n");
    std::printf("AB4: failure detection — fail-signals vs timeout suspicion\n");
    std::printf("================================================================\n");

    scenario::JsonWriter json;
    json.begin_object();
    json.field("format", "failsig-ab4-detection-v1");
    json.field("seed", seed);

    std::printf("\n(a) FS-NewTOP: Byzantine fault -> survivors' view excludes the pair\n");
    std::printf("%-12s %-14s %-16s\n", "delta", "slack(ms)", "detect(ms)");
    json.begin_array("fs_detection");
    for (const Duration delta : {200 * kMicrosecond, 500 * kMicrosecond, 2 * kMillisecond}) {
        for (const Duration slack : {20 * kMillisecond, 50 * kMillisecond, 100 * kMillisecond}) {
            const Duration t = fs_detection_time(delta, slack, seed);
            std::printf("%-12lld %-14lld %-16.1f\n", static_cast<long long>(delta),
                        static_cast<long long>(slack / kMillisecond),
                        static_cast<double>(t) / kMillisecond);
            json.begin_object();
            json.field("delta_us", static_cast<std::int64_t>(delta));
            json.field("slack_ms", static_cast<std::int64_t>(slack / kMillisecond));
            json.field("detect_ms", static_cast<double>(t) / kMillisecond);
            json.end_object();
        }
    }
    json.end_array();

    std::printf("\n(b) NewTOP ping suspector: crash detection vs timeout choice\n");
    std::printf("%-16s %-16s %-30s\n", "timeout(ms)", "detect(ms)", "splits w/ 1s surge, no crash?");
    json.begin_array("newtop_detection");
    for (const Duration timeout :
         {200 * kMillisecond, 400 * kMillisecond, 800 * kMillisecond, 1600 * kMillisecond}) {
        const Duration t = newtop_detection_time(timeout, seed);
        const bool split = newtop_splits_under_surge(timeout, 1 * kSecond, seed);
        std::printf("%-16lld %-16.1f %s\n", static_cast<long long>(timeout / kMillisecond),
                    static_cast<double>(t) / kMillisecond, split ? "YES (false suspicion)" : "no");
        json.begin_object();
        json.field("timeout_ms", static_cast<std::int64_t>(timeout / kMillisecond));
        json.field("detect_ms", static_cast<double>(t) / kMillisecond);
        json.field("splits_under_surge", split);
        json.end_object();
    }
    json.end_array();
    json.end_object();

    std::printf("\nReading: the crash-tolerant suspector trades detection speed against\n"
                "false suspicions (short timeouts split the group under delay surges);\n"
                "fail-signal detection has no such dial — suspicions are never false.\n");
    if (!cli.out_path.empty()) {
        if (!scenario::write_file(cli.out_path, json.take() + "\n")) return 1;
        std::printf("report written to %s\n", cli.out_path.c_str());
    }
    return 0;
}
