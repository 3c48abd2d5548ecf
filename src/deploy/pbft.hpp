// The PBFT-style baseline: n = 3f+1 replicas, one per node, exchanging
// authenticated messages over the asynchronous network. Submissions are
// client requests at a replica, deliveries are commit upcalls, and liveness
// needs timeout-fired view changes — the speculative dependence FS-NewTOP
// removes.
#pragma once

#include <memory>

#include "baseline/pbft.hpp"
#include "deploy/deployment.hpp"
#include "orb/orb.hpp"

namespace failsig::deploy {

class PbftDeployment final : public Deployment {
public:
    explicit PbftDeployment(const DeploymentSpec& spec);
    ~PbftDeployment() override;  // out of line: Servant and DeliverySink are incomplete here

    [[nodiscard]] sim::Simulation& sim() override { return sim_; }
    [[nodiscard]] net::Transport& network() override { return net_; }
    [[nodiscard]] net::FaultInjector& faults() override { return faults_; }
    [[nodiscard]] int group_size() const override { return static_cast<int>(replicas_.size()); }
    [[nodiscard]] std::vector<NodeId> nodes_of(int member) const override {
        return {node_of(static_cast<baseline::ReplicaId>(member))};
    }

    void attach(Observers observers) override { observers_ = std::move(observers); }
    /// Submits a request at replica `member`. With batching configured the
    /// payload may be coalesced with others submitted at the same replica
    /// within the flush window into one ClientRequest (one pre-prepare);
    /// delivery unbatches, so observers see one upcall per request either way.
    void submit(int member, Bytes payload) override;
    [[nodiscard]] bool has_liveness_timeouts() const override { return true; }
    /// Fires one replica's view-change timeout (the liveness escape hatch
    /// when the primary is silent).
    void fire_timeouts_member(int member) override;
    [[nodiscard]] BatchStats batch_stats() const override;

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
    class Servant;
    class DeliverySink;

    void submit_unit(baseline::ReplicaId at, Bytes unit);
    /// Stamps kBatched for every request a flushed unit carries and links
    /// them to the unit's span (only called when obs is on).
    void trace_flush(baseline::ReplicaId at, const Bytes& unit);

    sim::Simulation sim_;
    std::unique_ptr<net::SimNetwork> own_net_;  // null when env.transport is set
    net::Transport& net_;
    net::FaultInjector& faults_;
    orb::OrbDomain domain_;
    std::vector<std::unique_ptr<Servant>> replicas_;
    std::vector<std::unique_ptr<DeliverySink>> sinks_;
    std::vector<std::unique_ptr<Batcher>> batchers_;
    std::vector<std::uint64_t> next_origin_seq_;
    obs::Obs* obs_{nullptr};
    Observers observers_;
};

}  // namespace failsig::deploy
