#include "deploy/fsnewtop.hpp"

namespace failsig::deploy {

namespace {

std::string gc_name(int member) { return "GC:" + std::to_string(member); }

}  // namespace

FsNewTopDeployment::FsNewTopDeployment(const DeploymentSpec& spec)
    : Deployment(spec),
      keys_(crypto::KeyService::Backend::kHmac, 512, spec.seed ^ 0x6b657973u),
      host_(fs::FsRuntime{network(), domain(), keys_, directory_, spec.obs}),
      placement_(spec.placement) {
    const int n = spec.group_size;
    ensure(n >= 1, "FsNewTopDeployment: group_size must be >= 1");

    std::vector<newtop::MemberId> member_ids;
    for (int i = 0; i < n; ++i) member_ids.push_back(static_cast<newtop::MemberId>(i));

    // Node layout.
    const auto app_node = [&](int i) { return NodeId{static_cast<std::uint32_t>(i + 1)}; };
    const auto leader_node = [&](int i) {
        return spec.placement == fsnewtop::Placement::kCollocated
                   ? app_node(i)
                   : NodeId{static_cast<std::uint32_t>(2 * i + 1)};
    };
    const auto follower_node = [&](int i) {
        if (spec.placement == fsnewtop::Placement::kCollocated) {
            // Figure 5: FSO'_i lives on the next member's node (wrap-around);
            // with n == 1 there is no second node, so borrow node n+1.
            return n > 1 ? app_node((i + 1) % n) : NodeId{static_cast<std::uint32_t>(n + 1)};
        }
        return NodeId{static_cast<std::uint32_t>(2 * i + 2)};
    };

    // Pass 1: each member's Invocation layer (an FsClient) on its app node.
    members_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto& m = members_[static_cast<std::size_t>(i)];
        m.app_node = app_node(i);
        m.leader_node = leader_node(i);
        m.follower_node = follower_node(i);
        m.invocation = std::make_unique<fsnewtop::FsInvocation>(
            host_.runtime(), domain().create_orb(app_node(i)), "inv:" + std::to_string(i),
            gc_name(i), spec.batch, spec.obs, i);
        add_member(m.app_node, *m.invocation);
    }

    // Pass 2: the FS-wrapped GC pairs.
    for (int i = 0; i < n; ++i) {
        newtop::GcConfig cfg;
        cfg.self = static_cast<newtop::MemberId>(i);
        cfg.initial_members = member_ids;
        for (int j = 0; j < n; ++j) {
            if (j == i) continue;
            cfg.peers[static_cast<newtop::MemberId>(j)] = fs::Destination::fs(gc_name(j));
            cfg.fs_members[gc_name(j)] = static_cast<newtop::MemberId>(j);
        }
        cfg.delivery = fs::Destination::plain(invocation(i).delivery_ref());
        cfg.protocol_op_cost = domain().costs().gc_protocol_op;
        cfg.obs = spec.obs;
        cfg.obs_member = i;
        cfg.checkpoint_interval = spec.checkpoint_interval;

        // The factory runs twice — leader replica first, then the follower
        // (fs/process.cpp construction order). Only the leader gets the obs
        // tap: both replicas execute the same inputs, and stamping both
        // would double-count every lifecycle stage.
        auto replica_calls = std::make_shared<int>(0);
        members_[static_cast<std::size_t>(i)].handles = host_.create_process(
            gc_name(i), leader_node(i), follower_node(i),
            [cfg, replica_calls] {
                newtop::GcConfig replica_cfg = cfg;
                if ((*replica_calls)++ != 0) replica_cfg.obs = nullptr;
                return std::make_unique<newtop::GcService>(replica_cfg);
            },
            spec.fs_config);
    }
}

fsnewtop::FsInvocation& FsNewTopDeployment::invocation(int i) { return *member(i).invocation; }

fs::Fso& FsNewTopDeployment::leader_fso(int i) { return *member(i).handles.leader; }

fs::Fso& FsNewTopDeployment::follower_fso(int i) { return *member(i).handles.follower; }

newtop::GcService& FsNewTopDeployment::gc_leader(int i) {
    return dynamic_cast<newtop::GcService&>(leader_fso(i).service());
}

const newtop::GcService& FsNewTopDeployment::gc_leader(int i) const {
    return dynamic_cast<const newtop::GcService&>(member(i).handles.leader->service());
}

newtop::GcService& FsNewTopDeployment::gc_follower(int i) {
    return dynamic_cast<newtop::GcService&>(follower_fso(i).service());
}

NodeId FsNewTopDeployment::app_node_of(int i) const { return member(i).app_node; }

NodeId FsNewTopDeployment::leader_node_of(int i) const { return member(i).leader_node; }

NodeId FsNewTopDeployment::follower_node_of(int i) const { return member(i).follower_node; }

std::vector<NodeId> FsNewTopDeployment::nodes_of(int i) const {
    if (placement_ == fsnewtop::Placement::kFull) {
        return {app_node_of(i), leader_node_of(i), follower_node_of(i)};
    }
    return {app_node_of(i)};
}

void FsNewTopDeployment::attach(Observers wanted) {
    Deployment::attach(std::move(wanted));
    if (!observers().fail_signal) return;
    for (int i = 0; i < group_size(); ++i) {
        const auto observer = [this, i](const std::string& name, const std::string& reason) {
            observers().fail_signal(i, name, reason);
        };
        leader_fso(i).set_fail_signal_observer(observer);
        follower_fso(i).set_fail_signal_observer(observer);
    }
}

void FsNewTopDeployment::crash(int i) { faults().block(leader_node_of(i), follower_node_of(i)); }

void FsNewTopDeployment::recover(int i) {
    faults().unblock(leader_node_of(i), follower_node_of(i));
    // Severing the pair link desynchronizes the wrapper objects: the leader
    // keeps ordering/executing while the follower starves, so their order
    // sequences diverge and both latch fail-signalling. Recovery re-bases
    // BOTH wrapper objects at the max of their order positions (so the first
    // post-recovery input gets the same sequence at both, and previously
    // transmitted (seq, out_index) output ids are never reused — receiver
    // dedup stays sound), then wipes the replicated GC through the ordinary
    // deterministic input path: "__rejoin" executes identically in both
    // replicas, so their outputs match and the pair self-check resumes.
    std::uint64_t base = 1;
    run_on(leader_node_of(i), [&] { base = std::max(base, leader_fso(i).next_seq()); });
    run_on(follower_node_of(i), [&] { base = std::max(base, follower_fso(i).next_seq()); });
    run_on(leader_node_of(i), [&] { leader_fso(i).reset_for_recovery(base); });
    run_on(follower_node_of(i), [&] { follower_fso(i).reset_for_recovery(base); });
    run_on(app_node_of(i), [this, i] {
        invocation(i).resume_deliveries_at(1);
        invocation(i).send_control("__rejoin", Bytes{});
    });
}

std::optional<AppStateInfo> FsNewTopDeployment::app_state_of(int i) {
    // The pair's replicas hold identical app state by construction; read the
    // leader's copy.
    return app_state_on(leader_node_of(i), gc_leader(i).app());
}

RecoveryStats FsNewTopDeployment::recovery_stats() const {
    RecoveryStats stats;
    for (int i = 0; i < group_size(); ++i) {
        const auto& gc = gc_leader(i);
        stats.checkpoints_taken += gc.app().checkpoints_taken();
        stats.rejoins_completed += gc.rejoins_completed();
        stats.flush_log_evictions += gc.flush_log_evictions();
        stats.flush_eviction_gaps += gc.flush_eviction_gaps();
    }
    return stats;
}

bool FsNewTopDeployment::inject_fault(const FaultInjection& fault) {
    const int i = fault.member;
    fs::Fso& target = fault.at_leader ? leader_fso(i) : follower_fso(i);
    post(fault.at_leader ? leader_node_of(i) : follower_node_of(i),
         [&target, plan = fault.plan] { target.set_fault_plan(plan); });
    return true;
}

}  // namespace failsig::deploy
