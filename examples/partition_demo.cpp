// Group splitting: crash-tolerant NewTOP vs FS-NewTOP under identical delay
// surges.
//
// The paper's core motivation (§1): timeout-based failure suspectors can be
// wrong, and wrong suspicions split connected, operational processes into
// sub-groups. Fail-signal suspicions cannot be wrong, so FS-NewTOP keeps one
// view through the same network weather. This demo runs both systems through
// an identical 1-second delay surge (no process fails!) and prints the
// resulting views.
//
// Run: ./partition_demo
#include <cstdio>

#include "deploy/fsnewtop.hpp"
#include "deploy/newtop.hpp"

using namespace failsig;

int main() {
    constexpr int kMembers = 3;
    constexpr Duration kSurge = 1 * kSecond;

    std::printf("--- crash-tolerant NewTOP (ping suspector, 200 ms timeout) ---\n");
    {
        deploy::DeploymentSpec spec;
        spec.group_size = kMembers;
        spec.start_suspectors = true;
        spec.suspector.ping_interval = 50 * kMillisecond;
        spec.suspector.suspect_timeout = 200 * kMillisecond;
        deploy::NewTopDeployment d(spec);

        d.run_until(500 * kMillisecond);
        std::printf("before surge: view at member 0 = %s\n",
                    newtop::to_string(d.gc(0).view()).c_str());

        d.faults().delay_surge(kSurge, d.now() + 2 * kSecond);
        d.run_until(d.now() + 8 * kSecond);
        d.stop_perpetual();
        d.run();

        for (int i = 0; i < kMembers; ++i) {
            std::printf("after surge:  view at member %d = %s\n", i,
                        newtop::to_string(d.gc(i).view()).c_str());
        }
        std::printf("no process failed, yet the group split: the suspector mistook delay for "
                    "death.\n\n");
    }

    std::printf("--- FS-NewTOP (fail-signal suspector; suspicions cannot be false) ---\n");
    {
        deploy::DeploymentSpec spec;
        spec.group_size = kMembers;
        deploy::FsNewTopDeployment d(spec);

        d.submit(0, bytes_of("before"));
        d.run();
        std::printf("before surge: view at member 0 = %s\n",
                    newtop::to_string(d.gc_leader(0).view()).c_str());

        d.faults().delay_surge(kSurge, d.now() + 2 * kSecond);
        d.submit(1, bytes_of("during"));
        d.run_until(d.now() + 8 * kSecond);
        d.run();

        for (int i = 0; i < kMembers; ++i) {
            std::printf("after surge:  view at member %d = %s%s\n", i,
                        newtop::to_string(d.gc_leader(i).view()).c_str(),
                        d.leader_fso(i).signalling() ? "  [fail-signalling?!]" : "");
        }
        std::printf("same surge, same group — one view. The FLP-dodging move: failures are\n"
                    "announced (fail-signals), never guessed (timeouts), so slow != dead.\n");
    }
    return 0;
}
