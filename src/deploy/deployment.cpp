#include "deploy/deployment.hpp"

#include <set>
#include <utility>

#include "common/result.hpp"
#include "deploy/fsnewtop.hpp"
#include "deploy/newtop.hpp"
#include "deploy/pbft.hpp"
#include "deploy/tcp.hpp"

namespace failsig::deploy {

const char* name_of(SystemKind system) {
    switch (system) {
        case SystemKind::kNewTop: return "NewTOP";
        case SystemKind::kFsNewTop: return "FS-NewTOP";
        case SystemKind::kPbft: return "PBFT";
    }
    return "?";
}

const char* name_of(Backend backend) {
    switch (backend) {
        case Backend::kSim: return "sim";
        case Backend::kTcp: return "tcp";
    }
    return "?";
}

const time::Clock& Deployment::clock() {
    if (!default_clock_) default_clock_.emplace(sim());
    return *default_clock_;
}

void Deployment::crash(int member) {
    // A crashed host stops talking to everyone; peers see silence and react
    // through whatever detection their stack has (suspectors, quorums).
    const std::vector<NodeId> mine = nodes_of(member);
    for (int other = 0; other < group_size(); ++other) {
        if (other == member) continue;
        for (const NodeId theirs : nodes_of(other)) {
            for (const NodeId node : mine) faults().block(node, theirs);
        }
    }
}

void Deployment::recover(int member) {
    // Sim backends share one event loop, so the rejoin sequence can run
    // inline: heal the links first, then the stack's node-affine steps in
    // order (state resets before the join request).
    recover_links(member);
    for (auto& step : recover_steps(member)) {
        if (step.fn) step.fn();
    }
}

void Deployment::recover_links(int member) {
    // Exact inverse of the default crash(): unblock both directions of every
    // pair the crash blocked.
    const std::vector<NodeId> mine = nodes_of(member);
    for (int other = 0; other < group_size(); ++other) {
        if (other == member) continue;
        for (const NodeId theirs : nodes_of(other)) {
            for (const NodeId node : mine) faults().unblock(node, theirs);
        }
    }
}

bool Deployment::inject_fault(const FaultInjection&) { return false; }

std::optional<NodeId> Deployment::fault_home(const FaultInjection&) const {
    return std::nullopt;
}

void Deployment::partition(const std::vector<std::vector<int>>& member_groups) {
    std::vector<std::set<NodeId>> node_groups;
    for (const auto& group : member_groups) {
        std::set<NodeId> nodes;
        for (const int member : group) {
            for (const NodeId node : nodes_of(member)) nodes.insert(node);
        }
        node_groups.push_back(std::move(nodes));
    }
    faults().partition(node_groups);
}

bool Deployment::fire_timeouts() {
    if (!has_liveness_timeouts()) return false;
    for (int member = 0; member < group_size(); ++member) fire_timeouts_member(member);
    return true;
}

void Deployment::fire_timeouts_member(int) {}

void Deployment::stop_perpetual() {
    for (int member = 0; member < group_size(); ++member) stop_perpetual_member(member);
}

void Deployment::stop_perpetual_member(int) {}

bool Deployment::supports_host_faults() const { return true; }

SystemTraits traits_of(SystemKind system) {
    switch (system) {
        case SystemKind::kNewTop:
        case SystemKind::kFsNewTop: return {};
        case SystemKind::kPbft: return {4, "PBFT needs group_size >= 4 (3f+1 with f >= 1)"};
    }
    throw std::logic_error("deploy: unknown system");
}

std::unique_ptr<Deployment> make_deployment(SystemKind system, const DeploymentSpec& spec) {
    const SystemTraits traits = traits_of(system);
    ensure(spec.group_size >= 1, "deploy: group_size must be >= 1");
    if (spec.group_size < traits.min_group_size) {
        throw std::logic_error(std::string("deploy: group_size below the system's floor: ") +
                               traits.min_group_reason);
    }
    // The TCP backend wraps whatever the sim backend builds: the wrapper
    // re-enters make_deployment with backend == kSim and an env pointing at
    // its transport and per-node loops.
    if (spec.backend == Backend::kTcp) return std::make_unique<TcpDeployment>(system, spec);
    switch (system) {
        case SystemKind::kNewTop: return std::make_unique<NewTopDeployment>(spec);
        case SystemKind::kFsNewTop: return std::make_unique<FsNewTopDeployment>(spec);
        case SystemKind::kPbft: return std::make_unique<PbftDeployment>(spec);
    }
    throw std::logic_error("deploy: unknown system");
}

}  // namespace failsig::deploy
