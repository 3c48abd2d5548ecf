#include "deploy/newtop.hpp"

namespace failsig::deploy {

NewTopDeployment::NewTopDeployment(const DeploymentSpec& spec) : Deployment(spec) {
    const int n = spec.group_size;
    ensure(n >= 1, "NewTopDeployment: group_size must be >= 1");

    std::vector<newtop::MemberId> member_ids;
    for (int i = 0; i < n; ++i) member_ids.push_back(static_cast<newtop::MemberId>(i));

    // Pass 1: create ORBs and reserve object refs so GcConfigs can point at
    // peers that do not exist yet.
    std::vector<orb::Orb*> orbs;
    std::vector<orb::ObjectRef> gc_refs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        orbs.push_back(&domain().create_orb(node_of(i)));
        gc_refs[static_cast<std::size_t>(i)] = orb::ObjectRef{orbs.back()->endpoint(), "gc"};
    }

    // Pass 2: build each NSO.
    members_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto& m = member(i);
        orb::Orb& orb = *orbs[static_cast<std::size_t>(i)];

        newtop::GcConfig cfg;
        cfg.self = static_cast<newtop::MemberId>(i);
        cfg.initial_members = member_ids;
        for (int j = 0; j < n; ++j) {
            if (j == i) continue;
            cfg.peers[static_cast<newtop::MemberId>(j)] =
                fs::Destination::plain(gc_refs[static_cast<std::size_t>(j)]);
        }
        cfg.delivery = fs::Destination::plain(orb::ObjectRef{orb.endpoint(), "inv"});
        cfg.protocol_op_cost = domain().costs().gc_protocol_op;
        cfg.obs = spec.obs;
        cfg.obs_member = i;
        cfg.checkpoint_interval = spec.checkpoint_interval;

        m.gc = std::make_unique<newtop::GcServant>(orb, "gc",
                                                   std::make_unique<newtop::GcService>(cfg));
        m.invocation = std::make_unique<newtop::PlainInvocation>(orb, "inv", *m.gc, spec.batch,
                                                                 spec.obs, i);
        add_member(node_of(i), *m.invocation);
        m.suspector = std::make_unique<newtop::PingSuspector>(
            orb.simulation(), orb, "susp", static_cast<newtop::MemberId>(i), *m.gc,
            spec.suspector);
    }

    // Pass 3: connect suspectors.
    for (int i = 0; i < n; ++i) {
        std::map<newtop::MemberId, orb::ObjectRef> peers;
        for (int j = 0; j < n; ++j) {
            if (j == i) continue;
            peers[static_cast<newtop::MemberId>(j)] =
                orb::ObjectRef{orbs[static_cast<std::size_t>(j)]->endpoint(), "susp"};
        }
        member(i).suspector->set_peers(std::move(peers));
        if (spec.start_suspectors) member(i).suspector->start();
    }
}

newtop::PlainInvocation& NewTopDeployment::invocation(int i) { return *member(i).invocation; }

newtop::GcService& NewTopDeployment::gc(int i) { return member(i).gc->service(); }

const newtop::GcService& NewTopDeployment::gc(int i) const {
    return members_.at(static_cast<std::size_t>(i)).gc->service();
}

newtop::PingSuspector& NewTopDeployment::suspector(int i) { return *member(i).suspector; }

void NewTopDeployment::stop_perpetual() {
    for (int i = 0; i < group_size(); ++i) post(node_of(i), [this, i] { suspector(i).stop(); });
}

void NewTopDeployment::recover(int i) {
    Deployment::recover(i);
    // Survivors first: forgive the rejoiner in their ping suspectors, so the
    // join request is not raced by a fresh (false) suspicion of a member
    // whose last_heard_ timestamp predates its crash.
    for (int s = 0; s < group_size(); ++s) {
        if (s == i) continue;
        run_on(node_of(s), [this, s, i] {
            suspector(s).forgive(static_cast<newtop::MemberId>(i));
        });
    }
    // Then the rejoiner: clean suspector slate, re-armed delivery
    // resequencer, and the GC-level "__rejoin" that wipes state and asks the
    // survivors for readmission.
    run_on(node_of(i), [this, i] {
        suspector(i).forgive_all();
        invocation(i).resume_deliveries_at(1);
        member(i).gc->submit_local("__rejoin", Bytes{});
    });
}

std::optional<AppStateInfo> NewTopDeployment::app_state_of(int i) {
    return app_state_on(node_of(i), gc(i).app());
}

RecoveryStats NewTopDeployment::recovery_stats() const {
    RecoveryStats stats;
    for (int i = 0; i < group_size(); ++i) {
        const auto& g = gc(i);
        stats.checkpoints_taken += g.app().checkpoints_taken();
        stats.rejoins_completed += g.rejoins_completed();
        stats.flush_log_evictions += g.flush_log_evictions();
        stats.flush_eviction_gaps += g.flush_eviction_gaps();
    }
    return stats;
}

}  // namespace failsig::deploy
