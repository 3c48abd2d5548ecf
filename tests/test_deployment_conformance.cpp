// Deployment-conformance suite: every protocol stack behind the
// deploy::Deployment interface must honour the same contract — observers
// attach and fire, submissions are delivered with total-order agreement,
// crashes silence the crashed member without stopping the healthy ones, and
// capability-gated hooks report their absence instead of misbehaving. The
// suite runs instantiated over all three systems TIMES both
// execution backends (deterministic simulator, real TCP sockets) — exactly
// the guarantee the scenario engine's single generic path relies on.
// Byte-identical replay is asserted on the sim backend only; everything
// else (delivery accounting, total order, crash semantics, capability
// gating) must hold identically over real sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "deploy/deployment.hpp"

namespace failsig::deploy {
namespace {

using Tag = std::pair<std::uint32_t, std::uint32_t>;  // (sender, seq)

Bytes tagged_payload(std::uint32_t sender, std::uint32_t seq) {
    ByteWriter w;
    w.u32(sender);
    w.u32(seq);
    return w.take();
}

Tag parse_tag(const Bytes& payload) {
    ByteReader r(payload);
    const auto sender = r.u32();
    const auto seq = r.u32();
    return {sender, seq};
}

/// Everything the observers saw, keyed by member. On the TCP backend the
/// callbacks fire on per-node executor threads, hence the mutex (reads
/// happen after the run, at quiescence).
struct Observed {
    std::mutex mu;
    std::vector<std::vector<Tag>> delivered;
    int views{0};
    int fail_signals{0};
    int middleware_failures{0};

    explicit Observed(int n) : delivered(static_cast<std::size_t>(n)) {}

    [[nodiscard]] bool member_got(int member, Tag tag) const {
        const auto& log = delivered[static_cast<std::size_t>(member)];
        return std::find(log.begin(), log.end(), tag) != log.end();
    }
};

Observers observers_into(Observed& seen) {
    Observers obs;
    obs.delivered = [&seen](int member, const Bytes& payload) {
        const std::lock_guard lock(seen.mu);
        seen.delivered[static_cast<std::size_t>(member)].push_back(parse_tag(payload));
    };
    obs.view_installed = [&seen](int, const newtop::GroupView&) {
        const std::lock_guard lock(seen.mu);
        ++seen.views;
    };
    obs.fail_signal = [&seen](int, const std::string&, const std::string&) {
        const std::lock_guard lock(seen.mu);
        ++seen.fail_signals;
    };
    obs.middleware_failure = [&seen](int, const std::string&) {
        const std::lock_guard lock(seen.mu);
        ++seen.middleware_failures;
    };
    return obs;
}

/// A spec each system can run a crash campaign under: NewTOP needs live
/// suspectors to exclude a silent member, FS-NewTOP needs the dedicated-node
/// placement to express host-level faults, PBFT needs 3f+1 replicas.
DeploymentSpec spec_for(SystemKind kind, Backend backend, bool crash_ready) {
    DeploymentSpec spec;
    spec.backend = backend;
    spec.group_size = kind == SystemKind::kPbft ? 4 : 3;
    spec.seed = 21;
    spec.threads_per_node = 2;
    if (crash_ready) {
        if (kind == SystemKind::kNewTop) {
            spec.start_suspectors = true;
            spec.suspector.ping_interval = 50 * kMillisecond;
            spec.suspector.suspect_timeout = 300 * kMillisecond;
        }
        if (kind == SystemKind::kFsNewTop) spec.placement = fsnewtop::Placement::kFull;
    }
    return spec;
}

/// Schedules `msgs` staggered submissions from every member (the benches'
/// injection pattern) starting at `from`.
void schedule_workload(Deployment& d, TimePoint from, int msgs, std::uint32_t first_seq) {
    const int n = d.group_size();
    const Duration interval = 80 * kMillisecond;
    for (int k = 0; k < msgs; ++k) {
        for (int i = 0; i < n; ++i) {
            const TimePoint at = from + static_cast<TimePoint>(k) * interval +
                                 (static_cast<TimePoint>(i) * interval) / n;
            const std::uint32_t seq = first_seq + static_cast<std::uint32_t>(k);
            d.schedule(at, [&d, i, seq] {
                d.submit(i, tagged_payload(static_cast<std::uint32_t>(i), seq));
            });
        }
    }
}

/// Runs to quiescence when the stack has none of its own perpetual activity,
/// else to a deadline with a settle window — same shape as the engine.
void drive(Deployment& d, TimePoint deadline) {
    d.run_until(deadline);
    d.stop_perpetual();
    d.run_until(deadline + 30 * kSecond);
}

/// (system, backend): the full conformance matrix.
using Cell = std::tuple<SystemKind, Backend>;

class DeploymentConformance : public ::testing::TestWithParam<Cell> {
protected:
    [[nodiscard]] static SystemKind system() { return std::get<0>(GetParam()); }
    [[nodiscard]] static Backend backend() { return std::get<1>(GetParam()); }
    [[nodiscard]] static DeploymentSpec spec(bool crash_ready) {
        return spec_for(system(), backend(), crash_ready);
    }
    [[nodiscard]] static std::unique_ptr<Deployment> deployment(bool crash_ready) {
        return make_deployment(system(), spec(crash_ready));
    }
};

TEST_P(DeploymentConformance, FactoryBuildsAndExposesTopology) {
    const auto d = deployment(false);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->group_size(), spec(false).group_size);
    for (int i = 0; i < d->group_size(); ++i) {
        EXPECT_FALSE(d->nodes_of(i).empty()) << "member " << i;
    }
    // Time, transport and fault plane are reachable through the interface.
    EXPECT_EQ(d->now(), 0);
    EXPECT_EQ(d->network().messages_sent(), 0u);
}

TEST_P(DeploymentConformance, FactoryEnforcesTheSystemsGroupSizeFloor) {
    const SystemTraits traits = traits_of(system());
    EXPECT_GE(traits.min_group_size, 1);
    if (traits.min_group_size > 1) {
        DeploymentSpec small = spec(false);
        small.group_size = traits.min_group_size - 1;
        EXPECT_THROW(make_deployment(system(), small), std::logic_error);
    }
}

TEST_P(DeploymentConformance, TracingIsRejectedOnRealSockets) {
    // Obs stamps read one deterministic clock; real sockets run one event
    // loop per node, so the factory refuses instead of tracing nothing.
    obs::Obs obs;
    DeploymentSpec traced = spec(false);
    traced.obs = &obs;
    if (backend() == Backend::kTcp) {
        EXPECT_THROW(make_deployment(system(), traced), std::logic_error);
    } else {
        EXPECT_NE(make_deployment(system(), traced), nullptr);
    }
}

TEST_P(DeploymentConformance, DeliveryAccountingIsCompleteAndTotallyOrdered) {
    const auto d = deployment(false);
    Observed seen(d->group_size());
    d->attach(observers_into(seen));

    const int msgs = 4;
    schedule_workload(*d, 0, msgs, 0);
    d->run();

    const auto expected =
        static_cast<std::size_t>(msgs) * static_cast<std::size_t>(d->group_size());
    for (int i = 0; i < d->group_size(); ++i) {
        EXPECT_EQ(seen.delivered[static_cast<std::size_t>(i)].size(), expected)
            << name_of(system()) << "/" << name_of(backend()) << " member " << i;
        // All three stacks provide total order: every member sees the same
        // delivery sequence.
        EXPECT_EQ(seen.delivered[static_cast<std::size_t>(i)], seen.delivered[0])
            << name_of(system()) << "/" << name_of(backend()) << " member " << i;
    }
    EXPECT_EQ(seen.fail_signals, 0);
    EXPECT_EQ(seen.middleware_failures, 0);
    EXPECT_GT(d->network().messages_sent(), 0u);
}

TEST_P(DeploymentConformance, IdenticalSpecsProduceIdenticalDeliverySequences) {
    if (backend() != Backend::kSim) {
        GTEST_SKIP() << "byte-identical replay is the sim backend's contract; "
                        "real sockets promise agreement, not replay";
    }
    std::vector<std::vector<Tag>> logs[2];
    for (auto& log : logs) {
        const auto d = deployment(false);
        Observed seen(d->group_size());
        d->attach(observers_into(seen));
        schedule_workload(*d, 0, 3, 0);
        d->run();
        log = seen.delivered;
    }
    EXPECT_EQ(logs[0], logs[1]) << name_of(system());
}

TEST_P(DeploymentConformance, CrashSilencesTheMemberWithoutStoppingTheGroup) {
    const SystemKind kind = system();
    const auto d = deployment(true);
    Observed seen(d->group_size());
    d->attach(observers_into(seen));

    const int victim = d->group_size() - 1;
    // One pre-crash message from everyone, then the crash, then two
    // post-crash messages from member 0.
    schedule_workload(*d, 0, 1, 0);
    d->schedule(400 * kMillisecond, [&d, victim] { d->crash(victim); });
    for (std::uint32_t k = 0; k < 2; ++k) {
        d->schedule(2 * kSecond + k * (80 * kMillisecond), [&d, k] {
            d->submit(0, tagged_payload(0, 1 + k));
        });
    }
    drive(*d, 8 * kSecond);

    for (int i = 0; i < d->group_size(); ++i) {
        if (i == victim) continue;
        EXPECT_TRUE(seen.member_got(i, {0, 1}) && seen.member_got(i, {0, 2}))
            << name_of(kind) << ": healthy member " << i
            << " must keep delivering after the crash";
    }
    EXPECT_FALSE(seen.member_got(victim, {0, 1}) || seen.member_got(victim, {0, 2}))
        << name_of(kind) << ": the crashed member must not deliver post-crash messages";

    // Stacks with membership views must have reconfigured; the fail-signal
    // stack must have announced the failure instead of timing it out.
    if (kind != SystemKind::kPbft) {
        EXPECT_GT(seen.views, 0) << name_of(kind);
    }
    if (kind == SystemKind::kFsNewTop) {
        EXPECT_GT(seen.fail_signals + seen.middleware_failures, 0);
    }
}

TEST_P(DeploymentConformance, CrashDuringViewChangeWithInFlightMulticastsPreservesAgreement) {
    // The view-synchronous flush contract, stated at the Deployment level:
    // multicasts racing a member crash — including the victim's own last
    // broadcasts — must not split the survivors' delivery sequences. Each
    // in-flight message lands at the same position everywhere or nowhere.
    // PBFT has no membership views but must honour the same agreement
    // clause, so the test runs on all three stacks.
    const SystemKind kind = system();
    const auto d = deployment(true);
    Observed seen(d->group_size());
    d->attach(observers_into(seen));

    const int victim = d->group_size() - 1;
    // A settled round first, then a burst from EVERY member (victim
    // included) straddling the crash instant: some copies are on the wire,
    // some are not, when the host dies.
    schedule_workload(*d, 0, 1, 0);
    for (std::uint32_t k = 0; k < 3; ++k) {
        for (int i = 0; i < d->group_size(); ++i) {
            d->schedule(395 * kMillisecond + k * kMillisecond, [&d, i, k] {
                d->submit(i, tagged_payload(static_cast<std::uint32_t>(i), 50 + k));
            });
        }
    }
    d->schedule(400 * kMillisecond, [&d, victim] { d->crash(victim); });
    // Traffic after the reconfiguration proves the group is not wedged.
    for (std::uint32_t k = 0; k < 2; ++k) {
        d->schedule(3 * kSecond + k * (80 * kMillisecond), [&d, k] {
            d->submit(0, tagged_payload(0, 200 + k));
        });
    }
    drive(*d, 10 * kSecond);

    std::vector<int> healthy;
    for (int i = 0; i < d->group_size(); ++i) {
        if (i != victim) healthy.push_back(i);
    }
    // Agreement: one delivery sequence across every healthy member — the
    // racing multicasts may be delivered or dropped, but identically.
    for (const int i : healthy) {
        EXPECT_EQ(seen.delivered[static_cast<std::size_t>(i)],
                  seen.delivered[static_cast<std::size_t>(healthy.front())])
            << name_of(kind) << ": member " << i
            << " disagrees on the crash-straddling delivery sequence";
        // Liveness: the post-reconfiguration traffic arrived.
        EXPECT_TRUE(seen.member_got(i, {0, 200}) && seen.member_got(i, {0, 201}))
            << name_of(kind) << ": member " << i << " lost post-view-change traffic";
    }
    // Membership stacks must actually have gone through a view change while
    // those multicasts were in flight, or the test proved nothing.
    if (kind != SystemKind::kPbft) {
        EXPECT_GT(seen.views, 0) << name_of(kind);
    }
}

TEST_P(DeploymentConformance, CrashWithPendingUnflushedBatchKeepsValidityAccounting) {
    // Requests buffered in the crashed member's Batcher — submitted but not
    // yet flushed into an ordered unit at crash time — must not corrupt
    // validity accounting: they may never surface at any healthy member
    // (they were never multicast), and the healthy group's own traffic must
    // keep flowing and agreeing.
    const SystemKind kind = system();
    DeploymentSpec batched = spec(true);
    batched.batch.max_requests = 8;                   // far above what we submit
    batched.batch.flush_after = 300 * kMillisecond;   // deadline lands after the crash
    const auto d = make_deployment(kind, batched);
    Observed seen(d->group_size());
    d->attach(observers_into(seen));

    const int victim = d->group_size() - 1;
    const auto vid = static_cast<std::uint32_t>(victim);
    // One flushed round of traffic from everyone first.
    schedule_workload(*d, 0, 1, 0);
    // Three requests buffered at the victim just before the crash: the size
    // bound (8) is not reached and the 300 ms deadline is still pending when
    // the host dies at 400 ms.
    for (std::uint32_t k = 0; k < 3; ++k) {
        d->schedule(390 * kMillisecond, [&d, victim, vid, k] {
            d->submit(victim, tagged_payload(vid, 100 + k));
        });
    }
    d->schedule(400 * kMillisecond, [&d, victim] { d->crash(victim); });
    // Healthy traffic after the crash.
    for (std::uint32_t k = 0; k < 2; ++k) {
        d->schedule(2 * kSecond + k * (80 * kMillisecond), [&d, k] {
            d->submit(0, tagged_payload(0, 1 + k));
        });
    }
    drive(*d, 8 * kSecond);

    const BatchStats stats = d->batch_stats();
    EXPECT_GE(stats.requests_submitted, static_cast<std::uint64_t>(d->group_size()) + 3 + 2);

    std::vector<int> healthy;
    for (int i = 0; i < d->group_size(); ++i) {
        if (i != victim) healthy.push_back(i);
    }
    for (const int i : healthy) {
        // The buffered requests were never flushed onto the wire before the
        // host died: no healthy member may deliver them...
        for (std::uint32_t k = 0; k < 3; ++k) {
            EXPECT_FALSE(seen.member_got(i, {vid, 100 + k}))
                << name_of(kind) << ": member " << i
                << " delivered a request that never left the crashed batcher";
        }
        // ...while the healthy group's own traffic keeps flowing.
        EXPECT_TRUE(seen.member_got(i, {0, 1}) && seen.member_got(i, {0, 2}))
            << name_of(kind) << ": member " << i << " lost post-crash traffic";
    }
    // And the healthy members still agree on one delivery sequence.
    for (const int i : healthy) {
        EXPECT_EQ(seen.delivered[static_cast<std::size_t>(i)],
                  seen.delivered[static_cast<std::size_t>(healthy.front())])
            << name_of(kind) << " member " << i;
    }
}

TEST_P(DeploymentConformance, CrashRecoverRejoinConvergesToSurvivorState) {
    // The recovery contract, stated at the Deployment level: a crashed (and,
    // on membership stacks, excluded) member brought back with recover()
    // must rejoin the group, converge its replicated app state to the
    // survivors' — including every request it missed while down, obtained
    // via checkpoint transfer plus the committed suffix — and deliver new
    // traffic again. Runs on all three stacks times both backends.
    const SystemKind kind = system();
    DeploymentSpec with_checkpoints = spec(true);
    with_checkpoints.checkpoint_interval = 5;
    const auto d = make_deployment(kind, with_checkpoints);
    Observed seen(d->group_size());
    d->attach(observers_into(seen));

    const int victim = d->group_size() - 1;
    // Two settled rounds from everyone, then the crash.
    schedule_workload(*d, 0, 2, 0);
    d->schedule(600 * kMillisecond, [&d, victim] { d->crash(victim); });
    // Traffic the victim misses while down — the state it must recover.
    for (std::uint32_t k = 0; k < 6; ++k) {
        d->schedule(2 * kSecond + k * (80 * kMillisecond), [&d, k] {
            d->submit(0, tagged_payload(0, 100 + k));
        });
    }
    d->schedule(5 * kSecond, [&d, victim] { d->recover(victim); });
    // Post-rejoin traffic must reach the rejoined member like anyone else.
    for (std::uint32_t k = 0; k < 2; ++k) {
        d->schedule(9 * kSecond + k * (80 * kMillisecond), [&d, k] {
            d->submit(0, tagged_payload(0, 200 + k));
        });
    }
    drive(*d, 13 * kSecond);

    // State convergence: the rejoined member's KV state — applied count and
    // chain digest — equals every healthy member's.
    const auto rejoined = d->app_state_of(victim);
    ASSERT_TRUE(rejoined.has_value()) << name_of(kind) << ": no app state after rejoin";
    for (int i = 0; i < d->group_size(); ++i) {
        const auto state = d->app_state_of(i);
        ASSERT_TRUE(state.has_value()) << name_of(kind) << " member " << i;
        EXPECT_EQ(state->applied, rejoined->applied)
            << name_of(kind) << ": member " << i << " applied count diverges ("
            << state->detail << " vs " << rejoined->detail << ")";
        EXPECT_EQ(state->digest, rejoined->digest)
            << name_of(kind) << ": member " << i << " digest diverges ("
            << state->detail << " vs " << rejoined->detail << ")";
    }
    EXPECT_GT(rejoined->applied, 0u) << name_of(kind);

    // Liveness after the rejoin: the recovered member delivers new traffic.
    EXPECT_TRUE(seen.member_got(victim, {0, 200}) && seen.member_got(victim, {0, 201}))
        << name_of(kind) << ": the rejoined member lost post-rejoin traffic";

    // The deterministic counters witness the machinery actually ran — and
    // that no flush merge ever needed a log entry the retention cap evicted.
    const RecoveryStats stats = d->recovery_stats();
    EXPECT_GE(stats.rejoins_completed, 1u) << name_of(kind);
    EXPECT_GT(stats.checkpoints_taken, 0u) << name_of(kind);
    EXPECT_EQ(stats.flush_eviction_gaps, 0u) << name_of(kind);
}

TEST_P(DeploymentConformance, DestroyingABusyDeploymentStopsEveryNodeFirst) {
    // Teardown mid-traffic: every node must stop before the stack's objects
    // die. On TCP the executors are still working through the submissions
    // when the deployment is destroyed, so a stack object freed first would
    // be used after free (ASan reports it). Suspectors keep NewTOP's nodes
    // busy too.
    for (int round = 0; round < 20; ++round) {
        const auto d = deployment(true);
        d->run_until(100 * kMillisecond);
        for (int i = 0; i < d->group_size(); ++i) {
            d->submit(i, tagged_payload(static_cast<std::uint32_t>(i), 0));
        }
    }
}

TEST_P(DeploymentConformance, CapabilityHooksReportTheirAbsenceInsteadOfActing) {
    const SystemKind kind = system();
    const auto d = deployment(false);

    FaultInjection fault;
    fault.member = 0;
    fault.at_leader = false;
    fault.plan.corrupt_outputs = true;
    EXPECT_EQ(d->inject_fault(fault), kind == SystemKind::kFsNewTop);

    EXPECT_EQ(d->fire_timeouts(), kind == SystemKind::kPbft);

    // Host faults: expressible everywhere except FS-NewTOP's collocated
    // placement, where a host is shared between two pairs.
    const bool collocated_fs = kind == SystemKind::kFsNewTop;
    EXPECT_EQ(d->supports_host_faults(), !collocated_fs);
    if (kind == SystemKind::kFsNewTop) {
        DeploymentSpec full = spec(false);
        full.placement = fsnewtop::Placement::kFull;
        EXPECT_TRUE(make_deployment(kind, full)->supports_host_faults());
    }

    // stop_perpetual must be callable on every stack, running or not.
    d->stop_perpetual();
}

std::string cell_test_name(const ::testing::TestParamInfo<Cell>& info) {
    std::string name = name_of(std::get<0>(info.param));
    std::erase(name, '-');
    name += std::get<1>(info.param) == Backend::kSim ? "Sim" : "Tcp";
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllSystems, DeploymentConformance,
                         ::testing::Combine(::testing::Values(SystemKind::kNewTop,
                                                              SystemKind::kFsNewTop,
                                                              SystemKind::kPbft),
                                            ::testing::Values(Backend::kSim, Backend::kTcp)),
                         cell_test_name);

}  // namespace
}  // namespace failsig::deploy
