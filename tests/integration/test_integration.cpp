// Cross-stack property sweeps: the full FS-NewTOP deployment (crypto + FS
// pairs + GC + ORB + simulated network) driven across seeds, group sizes and
// service classes, checking the classic total-order/broadcast properties
// end-to-end:
//   Agreement  — all members deliver the same sequence (total order) or the
//                same per-sender subsequences (FIFO/causal);
//   Validity   — everything a correct member multicast is delivered;
//   Integrity  — nothing is delivered twice or out of thin air;
//   Determinism— a run is a pure function of its seed.
#include <gtest/gtest.h>

#include "deploy/fsnewtop.hpp"

namespace failsig::fsnewtop {
namespace {

using deploy::DeploymentSpec;
using deploy::FsNewTopDeployment;
using newtop::ServiceType;

/// Every member's delivered payloads; each payload names its sender.
struct Log {
    std::vector<std::vector<std::string>> per_member;

    void attach(deploy::Deployment& d) {
        per_member.resize(static_cast<std::size_t>(d.group_size()));
        deploy::Observers observers;
        observers.delivered = [this](int member, const Bytes& payload) {
            per_member[static_cast<std::size_t>(member)].push_back(string_of(payload));
        };
        d.attach(std::move(observers));
    }
};

std::vector<std::string> run_total_order(int n, std::uint64_t seed, ServiceType svc,
                                         int msgs_per_member,
                                         std::vector<std::vector<std::string>>* all_logs) {
    DeploymentSpec spec;
    spec.group_size = n;
    spec.seed = seed;
    spec.service = svc;
    FsNewTopDeployment d(spec);
    Log log;
    log.attach(d);

    for (int k = 0; k < msgs_per_member; ++k) {
        for (int i = 0; i < n; ++i) {
            // Stagger the sends a little so schedules differ across seeds.
            d.schedule((k * n + i) * 3 * kMillisecond, [&d, i, k] {
                d.submit(i, bytes_of("m" + std::to_string(k) + "." + std::to_string(i)));
            });
        }
    }
    d.run();

    if (all_logs != nullptr) *all_logs = log.per_member;
    // No pair may have fail-signalled in a fault-free run.
    for (int i = 0; i < n; ++i) {
        EXPECT_FALSE(d.leader_fso(i).signalling()) << "member " << i << " seed " << seed;
        EXPECT_FALSE(d.follower_fso(i).signalling()) << "member " << i << " seed " << seed;
    }
    return log.per_member.empty() ? std::vector<std::string>{} : log.per_member[0];
}

class TotalOrderSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, ServiceType>> {};

TEST_P(TotalOrderSweep, AgreementValidityIntegrity) {
    const auto [n, seed, svc] = GetParam();
    const int kMsgs = 3;
    std::vector<std::vector<std::string>> logs;
    run_total_order(n, seed, svc, kMsgs, &logs);

    ASSERT_EQ(logs.size(), static_cast<std::size_t>(n));
    const auto& reference = logs[0];

    // Validity + Integrity: every member delivers exactly the multicast set.
    std::set<std::string> expected;
    for (int k = 0; k < kMsgs; ++k) {
        for (int i = 0; i < n; ++i) {
            expected.insert("m" + std::to_string(k) + "." + std::to_string(i));
        }
    }
    for (int i = 0; i < n; ++i) {
        const std::set<std::string> got(logs[static_cast<std::size_t>(i)].begin(),
                                        logs[static_cast<std::size_t>(i)].end());
        EXPECT_EQ(got, expected) << "member " << i << " delivered a wrong message set";
        EXPECT_EQ(logs[static_cast<std::size_t>(i)].size(), expected.size())
            << "member " << i << " delivered duplicates";
    }

    // Agreement: identical sequences for total order.
    for (int i = 1; i < n; ++i) {
        EXPECT_EQ(logs[static_cast<std::size_t>(i)], reference)
            << "member " << i << " disagrees on the order (seed " << seed << ")";
    }
}

std::string sweep_name(
    const ::testing::TestParamInfo<std::tuple<int, std::uint64_t, ServiceType>>& info) {
    const auto [n, seed, svc] = info.param;
    return "n" + std::to_string(n) + "_seed" + std::to_string(seed) +
           (svc == ServiceType::kSymmetricTotalOrder ? "_sym" : "_asym");
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, TotalOrderSweep,
    ::testing::Combine(::testing::Values(2, 3, 5), ::testing::Values(1u, 7u, 1234u),
                       ::testing::Values(ServiceType::kSymmetricTotalOrder,
                                         ServiceType::kAsymmetricTotalOrder)),
    sweep_name);

TEST(IntegrationDeterminism, SameSeedSameRun) {
    const auto a = run_total_order(3, 99, ServiceType::kSymmetricTotalOrder, 3, nullptr);
    const auto b = run_total_order(3, 99, ServiceType::kSymmetricTotalOrder, 3, nullptr);
    EXPECT_EQ(a, b);
}

TEST(IntegrationDeterminism, DifferentSeedsMayDifferButStayCorrect) {
    // Different seeds produce different schedules; both must still satisfy
    // the properties (covered by the sweep); here we only document that the
    // runs genuinely explore different interleavings.
    const auto a = run_total_order(3, 1, ServiceType::kSymmetricTotalOrder, 4, nullptr);
    const auto b = run_total_order(3, 2, ServiceType::kSymmetricTotalOrder, 4, nullptr);
    EXPECT_EQ(a.size(), b.size());  // same message count either way
}

TEST(IntegrationCausal, CausalChainsHoldAcrossTheFullStack) {
    DeploymentSpec spec;
    spec.group_size = 3;
    spec.service = ServiceType::kCausalOrder;
    FsNewTopDeployment d(spec);
    Log log;
    log.attach(d);

    d.submit(0, bytes_of("cause"));
    d.run();
    d.submit(1, bytes_of("effect"));
    d.run();

    for (int i = 0; i < 3; ++i) {
        const auto& l = log.per_member[static_cast<std::size_t>(i)];
        const auto cause = std::find(l.begin(), l.end(), "cause");
        const auto effect = std::find(l.begin(), l.end(), "effect");
        ASSERT_NE(cause, l.end());
        ASSERT_NE(effect, l.end());
        EXPECT_LT(cause - l.begin(), effect - l.begin()) << "member " << i;
    }
}

TEST(IntegrationReliable, FifoHoldsThroughFsWrapping) {
    DeploymentSpec spec;
    spec.group_size = 3;
    spec.service = ServiceType::kReliableMulticast;
    FsNewTopDeployment d(spec);
    Log log;
    log.attach(d);

    for (int k = 0; k < 8; ++k) d.submit(0, bytes_of("r" + std::to_string(k)));
    d.run();
    for (int i = 0; i < 3; ++i) {
        const auto& l = log.per_member[static_cast<std::size_t>(i)];
        ASSERT_EQ(l.size(), 8u) << "member " << i;
        for (int k = 0; k < 8; ++k) {
            EXPECT_EQ(l[static_cast<std::size_t>(k)], "r" + std::to_string(k));
        }
    }
}

TEST(IntegrationFaults, TwoSimultaneousByzantinePairsAreBothExcluded) {
    // With 5 members, two pairs fail (one node each, assumption A1 per pair).
    DeploymentSpec spec;
    spec.group_size = 5;
    FsNewTopDeployment d(spec);
    Log log;
    log.attach(d);

    fs::FaultPlan corrupt;
    corrupt.corrupt_outputs = true;
    d.inject_fault({.member = 1, .at_leader = false, .plan = corrupt});
    fs::FaultPlan drop;
    drop.drop_outputs = true;
    d.inject_fault({.member = 3, .at_leader = true, .plan = drop});

    for (int i = 0; i < 5; ++i) d.submit(i, bytes_of("x" + std::to_string(i)));
    d.run_until(240 * kSecond);

    const std::vector<newtop::MemberId> survivors{0, 2, 4};
    EXPECT_EQ(d.gc_leader(0).view().members, survivors);
    EXPECT_EQ(d.gc_leader(2).view().members, survivors);
    EXPECT_EQ(d.gc_leader(4).view().members, survivors);
    // Survivors still agree on what was delivered.
    EXPECT_EQ(log.per_member[0], log.per_member[2]);
    EXPECT_EQ(log.per_member[2], log.per_member[4]);
}

TEST(IntegrationFaults, LateFaultPreservesPrefixAgreement) {
    DeploymentSpec spec;
    spec.group_size = 3;
    FsNewTopDeployment d(spec);
    Log log;
    log.attach(d);

    fs::FaultPlan plan;
    plan.corrupt_outputs = true;
    plan.active_from = 2 * kSecond;  // healthy first, Byzantine later
    d.inject_fault({.member = 2, .at_leader = true, .plan = plan});

    for (int k = 0; k < 5; ++k) {
        for (int i = 0; i < 3; ++i) {
            d.schedule(k * kSecond, [&d, i, k] {
                d.submit(i, bytes_of("k" + std::to_string(k) + "i" + std::to_string(i)));
            });
        }
    }
    d.run_until(240 * kSecond);

    // Members 0 and 1 agree on everything they delivered.
    EXPECT_EQ(log.per_member[0], log.per_member[1]);
    // Member 2's pair eventually fail-signalled and was excluded.
    EXPECT_EQ(d.gc_leader(0).view().members, (std::vector<newtop::MemberId>{0, 1}));
    // The pre-fault prefix reached member 2 as well.
    const auto& l2 = log.per_member[2];
    ASSERT_FALSE(l2.empty());
    for (std::size_t i = 0; i < l2.size(); ++i) {
        EXPECT_EQ(l2[i], log.per_member[0][i]) << "member 2's prefix diverged";
    }
}

}  // namespace
}  // namespace failsig::fsnewtop
