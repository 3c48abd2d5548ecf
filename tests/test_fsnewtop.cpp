// FS-NewTOP integration tests (paper §3.1): the same GC state machine, now
// wrapped in fail-signal pairs. Key claims under test:
//  * total order still holds end-to-end, transparently to applications;
//  * a Byzantine middleware fault yields fail-signals, never wrong results;
//  * fail-signal suspicions are never false — the delay surge that splits
//    plain NewTOP leaves FS-NewTOP's group intact;
//  * all correct members install the view that excludes the faulty pair.
#include <gtest/gtest.h>

#include "deploy/fsnewtop.hpp"

namespace failsig::fsnewtop {
namespace {

using deploy::DeploymentSpec;
using deploy::FsNewTopDeployment;
using newtop::MemberId;
using newtop::ServiceType;

/// Every member's delivered payloads and the middleware failures seen. Where
/// a test compares logs its payloads are unique, so each names its sender.
struct Collector {
    std::vector<std::vector<std::string>> delivered;
    std::vector<std::string> middleware_failures;

    void attach(deploy::Deployment& d) {
        delivered.resize(static_cast<std::size_t>(d.group_size()));
        deploy::Observers observers;
        observers.delivered = [this](int member, const Bytes& payload) {
            delivered[static_cast<std::size_t>(member)].push_back(string_of(payload));
        };
        observers.middleware_failure = [this](int, const std::string& name) {
            middleware_failures.push_back(name);
        };
        d.attach(std::move(observers));
    }
};

class PlacementTest : public ::testing::TestWithParam<Placement> {};

TEST_P(PlacementTest, SymmetricTotalOrderEndToEnd) {
    DeploymentSpec spec;
    spec.group_size = 3;
    spec.placement = GetParam();
    FsNewTopDeployment d(spec);
    Collector c;
    c.attach(d);

    for (int k = 0; k < 4; ++k) {
        for (int i = 0; i < 3; ++i) {
            d.submit(i, bytes_of("k" + std::to_string(k) + "i" + std::to_string(i)));
        }
    }
    d.run();

    EXPECT_EQ(c.delivered[0].size(), 12u);
    EXPECT_EQ(c.delivered[1], c.delivered[0]);
    EXPECT_EQ(c.delivered[2], c.delivered[0]);
    EXPECT_TRUE(c.middleware_failures.empty());
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(d.leader_fso(i).signalling());
        EXPECT_FALSE(d.follower_fso(i).signalling());
    }
}

INSTANTIATE_TEST_SUITE_P(Placements, PlacementTest,
                         ::testing::Values(Placement::kCollocated, Placement::kFull),
                         [](const auto& info) {
                             return info.param == Placement::kCollocated ? "Collocated" : "Full";
                         });

TEST(FsNewTop, GcReplicasStayIdentical) {
    DeploymentSpec spec;
    spec.group_size = 3;
    FsNewTopDeployment d(spec);
    Collector c;
    c.attach(d);
    for (int i = 0; i < 3; ++i) d.submit(i, bytes_of("m"));
    d.run();
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(d.gc_leader(i).app().applied(), d.gc_follower(i).app().applied());
        EXPECT_EQ(d.gc_leader(i).app().digest(), d.gc_follower(i).app().digest());
        EXPECT_EQ(d.gc_leader(i).view(), d.gc_follower(i).view());
    }
}

TEST(FsNewTop, AsymmetricTotalOrderEndToEnd) {
    DeploymentSpec spec;
    spec.group_size = 4;
    spec.service = ServiceType::kAsymmetricTotalOrder;
    FsNewTopDeployment d(spec);
    Collector c;
    c.attach(d);
    for (int i = 0; i < 4; ++i) d.submit(i, bytes_of("a" + std::to_string(i)));
    d.run();
    EXPECT_EQ(c.delivered[0].size(), 4u);
    for (int i = 1; i < 4; ++i) EXPECT_EQ(c.delivered[static_cast<std::size_t>(i)], c.delivered[0]);
}

TEST(FsNewTop, ByzantineGcNodeIsDetectedAndExcluded) {
    // Corrupt the GC outputs on one node of member 2's pair. The pair must
    // fail-signal; the remaining members must install a view without member
    // 2; and nobody may deliver a corrupted message.
    DeploymentSpec spec;
    spec.group_size = 3;
    FsNewTopDeployment d(spec);
    Collector c;
    c.attach(d);

    fs::FaultPlan plan;
    plan.corrupt_outputs = true;
    d.inject_fault({.member = 2, .at_leader = false, .plan = plan});

    for (int k = 0; k < 3; ++k) {
        for (int i = 0; i < 3; ++i) {
            d.submit(i, bytes_of("k" + std::to_string(k) + "i" + std::to_string(i)));
        }
    }
    d.run_until(30 * kSecond);

    // The pair detected the divergence and fail-signalled.
    EXPECT_TRUE(d.leader_fso(2).signalling() || d.follower_fso(2).signalling());

    // Members 0 and 1 removed member 2.
    EXPECT_EQ(d.gc_leader(0).view().members, (std::vector<MemberId>{0, 1}));
    EXPECT_EQ(d.gc_leader(1).view().members, (std::vector<MemberId>{0, 1}));

    // Agreement among survivors, and no corrupted payload was ever delivered:
    // every delivered payload must be one of the honest multicasts.
    EXPECT_EQ(c.delivered[0], c.delivered[1]);
    for (const auto& payload : c.delivered[0]) {
        EXPECT_EQ(payload.size(), 4u);
        EXPECT_EQ(payload[0], 'k');
        EXPECT_EQ(payload[2], 'i');
    }
}

TEST(FsNewTop, CrashedPairNodeYieldsFailSignalNotSilence) {
    // Kill the LAN between member 1's pair nodes: the pair can no longer
    // self-check and must emit fail-signals; members 0 and 2 exclude it
    // deterministically — no timeout guessing involved.
    DeploymentSpec spec;
    spec.group_size = 3;
    spec.placement = Placement::kFull;  // pair nodes are dedicated
    FsNewTopDeployment d(spec);
    Collector c;
    c.attach(d);

    d.submit(0, bytes_of("warm"));
    d.run();

    d.faults().block(NodeId{3}, NodeId{4});  // member 1's pair nodes (kFull layout)
    d.submit(0, bytes_of("trigger"));
    d.run_until(60 * kSecond);

    EXPECT_EQ(d.gc_leader(0).view().members, (std::vector<MemberId>{0, 2}));
    EXPECT_EQ(d.gc_leader(2).view().members, (std::vector<MemberId>{0, 2}));
}

TEST(FsNewTop, DelaySurgeDoesNotSplitTheGroup) {
    // The same delay surge that splits plain NewTOP (see
    // NewTopDeployment.FalseSuspicionSplitsGroupWithoutAnyFailure) is
    // harmless here: FS-NewTOP has no timeout-based suspector on the
    // asynchronous network, so suspicions cannot be false (§3.1).
    DeploymentSpec spec;
    spec.group_size = 3;
    FsNewTopDeployment d(spec);
    Collector c;
    c.attach(d);

    d.submit(0, bytes_of("before"));
    d.run();

    d.faults().delay_surge(1 * kSecond, d.now() + 2 * kSecond);
    d.submit(1, bytes_of("during"));
    d.run_until(d.now() + 10 * kSecond);
    d.run();

    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(d.gc_leader(i).view().members, (std::vector<MemberId>{0, 1, 2}))
            << "group must not split under delay surges";
        EXPECT_FALSE(d.leader_fso(i).signalling());
    }
    EXPECT_EQ(c.delivered[0].size(), 2u);
    EXPECT_EQ(c.delivered[1], c.delivered[0]);
    EXPECT_EQ(c.delivered[2], c.delivered[0]);
}

TEST(FsNewTop, SpontaneousFailSignalsExcludeTheirSourceOnly) {
    // fs2 at member 0: its pair emits fail-signals at arbitrary times. The
    // other members exclude member 0 but keep each other.
    DeploymentSpec spec;
    spec.group_size = 3;
    FsNewTopDeployment d(spec);
    Collector c;
    c.attach(d);

    fs::FaultPlan plan;
    plan.spontaneous_fail_signals = true;
    plan.spontaneous_interval = 30 * kMillisecond;
    d.inject_fault({.member = 0, .at_leader = true, .plan = plan});

    d.run_until(2 * kSecond);

    EXPECT_EQ(d.gc_leader(1).view().members, (std::vector<MemberId>{1, 2}));
    EXPECT_EQ(d.gc_leader(2).view().members, (std::vector<MemberId>{1, 2}));
}

TEST(FsNewTop, TotalOrderContinuesAmongSurvivors) {
    DeploymentSpec spec;
    spec.group_size = 3;
    FsNewTopDeployment d(spec);
    Collector c;
    c.attach(d);

    fs::FaultPlan plan;
    plan.drop_outputs = true;
    d.inject_fault({.member = 1, .at_leader = true, .plan = plan});

    d.submit(0, bytes_of("x"));
    d.run_until(60 * kSecond);

    // Survivors agree on a view without member 1 and can keep ordering.
    ASSERT_EQ(d.gc_leader(0).view().members, (std::vector<MemberId>{0, 2}));
    d.submit(2, bytes_of("y"));
    d.run_until(d.now() + 30 * kSecond);

    const auto& d0 = c.delivered[0];
    const auto& d2 = c.delivered[2];
    EXPECT_EQ(d0, d2);
    EXPECT_TRUE(std::find(d0.begin(), d0.end(), "y") != d0.end());  // member 2's
}

TEST(FsNewTop, DeterministicAcrossRuns) {
    auto run_once = [] {
        DeploymentSpec spec;
        spec.group_size = 3;
        spec.seed = 99;
        FsNewTopDeployment d(spec);
        Collector c;
        c.attach(d);
        for (int i = 0; i < 3; ++i) {
            d.submit(i, bytes_of("m" + std::to_string(i)));
        }
        d.run();
        return c.delivered[0];
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(FsNewTop, LargePayloadsSurviveTheFullStack) {
    DeploymentSpec spec;
    spec.group_size = 2;
    FsNewTopDeployment d(spec);
    std::vector<Bytes> got;
    deploy::Observers observers;
    observers.delivered = [&got](int member, const Bytes& payload) {
        if (member == 1) got.push_back(payload);
    };
    d.attach(std::move(observers));
    Bytes big(8192);
    for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 7);
    d.submit(0, big);
    d.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], big);
}

}  // namespace
}  // namespace failsig::fsnewtop
