// FS-NewTOP (paper §3.1, Figures 4 & 5): every member's GC service is a
// fail-signal pair {FSO_i, FSO'_i} whose two wrapper objects live on
// distinct nodes joined by a synchronous link. Byzantine fault plans and
// pair-link crashes are expressible, and the stack announces its own
// failures instead of being timed out. Two placements are supported:
//   * kFull (Figure 4): 2n nodes — each pair gets its own two nodes; the
//     application and Invocation layer live on the leader's node. Masking f
//     Byzantine faults at the application level then needs 4f+2 nodes.
//   * kCollocated (Figure 5): n nodes — node i hosts A_i, FSO_i and the
//     follower FSO'_{i-1} of the previous member, halving the node count.
//     This is the paper's experimental set-up (it loads every node with two
//     wrapper objects, deliberately favouring plain NewTOP in comparisons).
#pragma once

#include <memory>

#include "deploy/deployment.hpp"
#include "fs/process.hpp"
#include "fsnewtop/fs_invocation.hpp"
#include "newtop/gc_service.hpp"

namespace failsig::deploy {

class FsNewTopDeployment final : public Deployment {
public:
    explicit FsNewTopDeployment(const DeploymentSpec& spec);
    ~FsNewTopDeployment() override { halt(); }

    [[nodiscard]] std::vector<NodeId> nodes_of(int member) const override;

    /// Adds the fail-signal observers to the shared Invocation-layer ones.
    void attach(Observers observers) override;

    /// The FS-level crash, on both backends: sever the pair's synchronous
    /// link, so the pair can no longer self-check and announces its own
    /// failure — no timeout guessing at the other members.
    void crash(int member) override;
    /// Inverse of crash(): restore the pair link, re-base both wrapper
    /// objects and rejoin through the replicated GC.
    void recover(int member) override;
    [[nodiscard]] std::optional<AppStateInfo> app_state_of(int member) override;
    [[nodiscard]] RecoveryStats recovery_stats() const override;
    /// Applies the plan on the targeted wrapper object's node.
    bool inject_fault(const FaultInjection& fault) override;
    /// Host faults act on whole hosts; under the collocated placement every
    /// host is shared between two pairs (member i's leader and member i-1's
    /// follower), so only the dedicated-node placement can express them.
    [[nodiscard]] bool supports_host_faults() const override {
        return placement_ == fsnewtop::Placement::kFull;
    }
    [[nodiscard]] std::uint64_t crypto_verify_ops() const override { return keys_.verify_ops(); }
    [[nodiscard]] std::uint64_t crypto_verify_cache_hits() const override {
        return keys_.verify_cache_hits();
    }
    [[nodiscard]] std::uint64_t crypto_memo_high_water() const override {
        return keys_.memo_high_water();
    }

    // Stack internals, for inspection and fault injection.
    [[nodiscard]] fsnewtop::FsInvocation& invocation(int member);
    /// The two wrapper objects of member i's GC pair.
    [[nodiscard]] fs::Fso& leader_fso(int member);
    [[nodiscard]] fs::Fso& follower_fso(int member);
    /// The GC state machine replicas inside the pair.
    [[nodiscard]] newtop::GcService& gc_leader(int member);
    [[nodiscard]] const newtop::GcService& gc_leader(int member) const;
    [[nodiscard]] newtop::GcService& gc_follower(int member);

    // Physical layout (crashes and partitions operate on hosts, not on
    // protocol-level members).
    [[nodiscard]] NodeId app_node_of(int member) const;
    [[nodiscard]] NodeId leader_node_of(int member) const;
    [[nodiscard]] NodeId follower_node_of(int member) const;

private:
    struct Member {
        std::unique_ptr<fsnewtop::FsInvocation> invocation;
        fs::FsProcessHandles handles;
        NodeId app_node;
        NodeId leader_node;
        NodeId follower_node;
    };

    [[nodiscard]] const Member& member(int i) const {
        return members_.at(static_cast<std::size_t>(i));
    }

    crypto::KeyService keys_;
    fs::FsDirectory directory_;
    fs::FsHost host_;
    fsnewtop::Placement placement_;
    std::vector<Member> members_;
};

}  // namespace failsig::deploy
