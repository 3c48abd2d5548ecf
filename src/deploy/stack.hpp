// What the three protocol stacks share below and above their protocol
// objects: the world they run in (one Simulation, the message plane with
// its fault model, the ORB domain) and the application-facing Invocation
// layer each member submits through and delivers from. A stack class
// derives from StackDeployment, builds its protocol objects on domain(),
// and registers each member's Invocation layer with add_member; submit,
// attach and batch_stats then work the same for every stack.
#pragma once

#include <memory>
#include <vector>

#include "deploy/deployment.hpp"
#include "newtop/invocation.hpp"
#include "orb/orb.hpp"

namespace failsig::deploy {

class StackDeployment : public Deployment {
public:
    [[nodiscard]] sim::Simulation& sim() final { return sim_; }
    [[nodiscard]] net::Transport& network() final { return net_; }
    [[nodiscard]] int group_size() const final { return static_cast<int>(invocations_.size()); }

    /// Hooks the observers onto every member's Invocation layer.
    void attach(Observers observers) override;
    /// Multicasts `payload` from `member` with the spec's service class.
    void submit(int member, Bytes payload) final;
    [[nodiscard]] BatchStats batch_stats() const final;

protected:
    /// Builds the world from `spec`: a stack-owned SimNetwork on the shared
    /// Simulation, or the external transport and per-node loops of spec.env.
    /// Binds spec.obs to the Simulation.
    explicit StackDeployment(const DeploymentSpec& spec);

    [[nodiscard]] orb::OrbDomain& domain() { return domain_; }
    [[nodiscard]] const Observers& observers() const { return observers_; }
    /// Registers the next member's Invocation layer (member order).
    void add_member(newtop::InvocationService& invocation) { invocations_.push_back(&invocation); }

private:
    sim::Simulation sim_;
    std::unique_ptr<net::SimNetwork> own_net_;  // null when spec.env is external
    net::Transport& net_;
    orb::OrbDomain domain_;
    newtop::ServiceType service_;
    std::vector<newtop::InvocationService*> invocations_;
    Observers observers_;
};

}  // namespace failsig::deploy
