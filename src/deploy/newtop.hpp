// Crash-tolerant NewTOP, the baseline system of the paper's evaluation (§4):
// n nodes, each hosting one NSO (Invocation service + GC object) and a ping
// suspector, all wired over one network.
#pragma once

#include <memory>

#include "deploy/deployment.hpp"
#include "newtop/gc_servant.hpp"
#include "newtop/invocation.hpp"
#include "newtop/suspector.hpp"

namespace failsig::deploy {

class NewTopDeployment final : public Deployment {
public:
    explicit NewTopDeployment(const DeploymentSpec& spec);

    [[nodiscard]] sim::Simulation& sim() override { return sim_; }
    [[nodiscard]] net::Transport& network() override { return net_; }
    [[nodiscard]] net::FaultInjector& faults() override { return faults_; }
    [[nodiscard]] int group_size() const override { return static_cast<int>(members_.size()); }
    [[nodiscard]] std::vector<NodeId> nodes_of(int member) const override {
        return {node_of(member)};
    }

    void attach(Observers observers) override;
    void submit(int member, Bytes payload) override;
    void stop_perpetual_member(int member) override;
    [[nodiscard]] BatchStats batch_stats() const override;

    std::vector<RecoveryStep> recover_steps(int member) override;
    [[nodiscard]] std::optional<AppStateInfo> app_state_of(int member) override;
    [[nodiscard]] RecoveryStats recovery_stats() const override;

    // Stack internals, for inspection.
    [[nodiscard]] newtop::PlainInvocation& invocation(int member);
    [[nodiscard]] newtop::GcService& gc(int member);
    [[nodiscard]] const newtop::GcService& gc(int member) const;
    [[nodiscard]] newtop::PingSuspector& suspector(int member);
    [[nodiscard]] static NodeId node_of(int member) {
        return NodeId{static_cast<std::uint32_t>(member + 1)};
    }

private:
    struct Member {
        std::unique_ptr<newtop::GcServant> gc;
        std::unique_ptr<newtop::PlainInvocation> invocation;
        std::unique_ptr<newtop::PingSuspector> suspector;
    };

    [[nodiscard]] Member& member(int i) { return members_.at(static_cast<std::size_t>(i)); }

    sim::Simulation sim_;
    std::unique_ptr<net::SimNetwork> own_net_;  // null when env.transport is set
    net::Transport& net_;
    net::FaultInjector& faults_;
    orb::OrbDomain domain_;
    std::vector<Member> members_;
    newtop::ServiceType service_;
    Observers observers_;
};

}  // namespace failsig::deploy
