// Crash-tolerant NewTOP, the baseline system of the paper's evaluation (§4):
// n nodes, each hosting one NSO (Invocation service + GC object) and a ping
// suspector, all wired over one network.
#pragma once

#include <memory>

#include "deploy/deployment.hpp"
#include "newtop/suspector.hpp"

namespace failsig::deploy {

class NewTopDeployment final : public Deployment {
public:
    explicit NewTopDeployment(const DeploymentSpec& spec);
    ~NewTopDeployment() override { halt(); }

    [[nodiscard]] std::vector<NodeId> nodes_of(int member) const override {
        return {node_of(member)};
    }

    void stop_perpetual() override;

    /// Undoes the crash, then rejoins: survivors forgive the member, which
    /// wipes its state and asks for readmission.
    void recover(int member) override;
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

    std::vector<Member> members_;
};

}  // namespace failsig::deploy
