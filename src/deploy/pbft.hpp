// The PBFT-style baseline: n = 3f+1 replicas, one per node, exchanging
// authenticated messages over the asynchronous network. Submissions are
// client requests at a replica, deliveries are commit upcalls, and liveness
// needs timeout-fired view changes — the speculative dependence FS-NewTOP
// removes.
#pragma once

#include <memory>

#include "baseline/pbft_invocation.hpp"
#include "deploy/deployment.hpp"

namespace failsig::deploy {

class PbftDeployment final : public Deployment {
public:
    explicit PbftDeployment(const DeploymentSpec& spec);
    ~PbftDeployment() override { halt(); }

    [[nodiscard]] std::vector<NodeId> nodes_of(int member) const override {
        return {node_of(static_cast<baseline::ReplicaId>(member))};
    }

    /// Fires every live replica's view-change timeout (the liveness escape
    /// hatch when the primary is silent).
    bool fire_timeouts() override;

    /// Undoes the crash, then the replica restarts with an empty log and
    /// pulls a stable checkpoint plus the committed suffix from its peers.
    void recover(int member) override;
    [[nodiscard]] std::optional<AppStateInfo> app_state_of(int member) override;
    [[nodiscard]] RecoveryStats recovery_stats() const override;

    // Stack internals, for inspection.
    [[nodiscard]] baseline::PbftReplica& replica(baseline::ReplicaId r);
    [[nodiscard]] const baseline::PbftReplica& replica(baseline::ReplicaId r) const;
    [[nodiscard]] static NodeId node_of(baseline::ReplicaId r) {
        return NodeId{static_cast<std::uint32_t>(r + 1)};
    }

private:
    struct Replica {
        std::unique_ptr<baseline::PbftServant> servant;
        std::unique_ptr<baseline::PbftInvocation> invocation;
    };

    std::vector<Replica> replicas_;
};

}  // namespace failsig::deploy
