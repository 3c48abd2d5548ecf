#include "deploy/pbft.hpp"

namespace failsig::deploy {

using baseline::ReplicaId;

PbftDeployment::PbftDeployment(const DeploymentSpec& spec) : Deployment(spec) {
    const auto n = static_cast<std::uint32_t>(spec.group_size);
    ensure(n >= 4, "PbftDeployment: need at least 4 replicas");

    std::vector<orb::Orb*> orbs;
    std::vector<orb::ObjectRef> refs(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        orbs.push_back(&domain().create_orb(node_of(i)));
        refs[i] = orb::ObjectRef{orbs.back()->endpoint(), "pbft"};
    }

    replicas_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        orb::Orb& orb = *orbs[i];

        baseline::PbftConfig cfg;
        cfg.self = i;
        cfg.n = n;
        for (std::uint32_t j = 0; j < n; ++j) {
            if (j != i) cfg.peers[j] = fs::Destination::plain(refs[j]);
        }
        cfg.delivery = fs::Destination::plain(orb::ObjectRef{orb.endpoint(), "app"});
        cfg.protocol_op_cost = domain().costs().gc_protocol_op;
        cfg.obs = spec.obs;
        cfg.obs_member = static_cast<int>(i);
        cfg.checkpoint_interval = spec.checkpoint_interval;

        auto& r = replicas_[i];
        r.servant = std::make_unique<baseline::PbftServant>(
            orb, "pbft", std::make_unique<baseline::PbftReplica>(cfg));
        r.invocation = std::make_unique<baseline::PbftInvocation>(orb, "app", *r.servant, i,
                                                                  spec.batch, spec.obs);
        add_member(node_of(i), *r.invocation);
    }
}

bool PbftDeployment::fire_timeouts() {
    for (ReplicaId r = 0; r < replicas_.size(); ++r) {
        // A crashed replica's executor drops the post on TCP: dead replicas
        // do not fire view changes.
        post(node_of(r), [this, r] {
            auto& servant = *replicas_[r].servant;
            ByteWriter w;
            w.u64(servant.service().view());
            servant.submit_local("timeout", w.take());
        });
    }
    return true;
}

void PbftDeployment::recover(int member) {
    Deployment::recover(member);
    // Everything runs through the servant's ordinary input path, so no link
    // surgery is needed beyond the base's.
    const auto r = static_cast<ReplicaId>(member);
    run_on(node_of(r), [this, r] { replicas_.at(r).servant->submit_local("recover", Bytes{}); });
}

std::optional<AppStateInfo> PbftDeployment::app_state_of(int member) {
    const auto r = static_cast<ReplicaId>(member);
    return app_state_on(node_of(r), replica(r).app());
}

RecoveryStats PbftDeployment::recovery_stats() const {
    RecoveryStats stats;
    for (ReplicaId r = 0; r < replicas_.size(); ++r) {
        const auto& rep = replica(r);
        stats.checkpoints_taken += rep.checkpoints_taken();
        stats.log_slots_truncated += rep.log_slots_truncated();
        stats.log_slots_retained = std::max(stats.log_slots_retained, rep.log_slots_retained());
        stats.state_transfers_served += rep.state_transfers_served();
        stats.rejoins_completed += rep.recoveries_completed();
    }
    return stats;
}

baseline::PbftReplica& PbftDeployment::replica(ReplicaId r) {
    return replicas_.at(r).servant->service();
}

const baseline::PbftReplica& PbftDeployment::replica(ReplicaId r) const {
    return replicas_.at(r).servant->service();
}

}  // namespace failsig::deploy
