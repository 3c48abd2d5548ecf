// The PBFT-style baseline: n = 3f+1 replicas, one per node, exchanging
// authenticated messages over the asynchronous network. Submissions are
// client requests at a replica, deliveries are commit upcalls, and liveness
// needs timeout-fired view changes — the speculative dependence FS-NewTOP
// removes.
#pragma once

#include <memory>

#include "baseline/pbft_invocation.hpp"
#include "deploy/stack.hpp"

namespace failsig::deploy {

class PbftDeployment final : public StackDeployment {
public:
    explicit PbftDeployment(const DeploymentSpec& spec);

    [[nodiscard]] std::vector<NodeId> nodes_of(int member) const override {
        return {node_of(static_cast<baseline::ReplicaId>(member))};
    }

    [[nodiscard]] bool has_liveness_timeouts() const override { return true; }
    /// Fires one replica's view-change timeout (the liveness escape hatch
    /// when the primary is silent).
    void fire_timeouts_member(int member) override;

    std::vector<RecoveryStep> recover_steps(int member) override;
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
