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

Deployment::Deployment(const DeploymentSpec& spec)
    : tcp_(spec.backend == Backend::kTcp ? std::make_unique<TcpRuntime>(sim_, spec.seed)
                                         : nullptr),
      sim_net_(tcp_ != nullptr ? nullptr
                               : std::make_unique<net::SimNetwork>(sim_, Rng(spec.seed),
                                                                   net::AsyncLinkParams{})),
      net_(tcp_ != nullptr ? static_cast<net::Transport&>(tcp_->transport()) : *sim_net_),
      domain_(tcp_ != nullptr
                  ? orb::OrbDomain::SimProvider([rt = tcp_.get()](NodeId node) -> sim::Simulation& {
                        return rt->loop_of(node);
                    })
                  : orb::OrbDomain::SimProvider([this](NodeId) -> sim::Simulation& { return sim_; }),
              net_, sim::CostModel{}, spec.threads_per_node),
      service_(spec.service) {
    // Obs stamps read one deterministic clock; the TCP backend has a loop
    // per node.
    ensure(spec.obs == nullptr || tcp_ == nullptr, "deploy: tracing needs the sim backend");
    // Stamps read now() lazily, so binding before the stack exists is safe.
    if (spec.obs != nullptr) spec.obs->bind(&sim_);
}

Deployment::~Deployment() = default;

TimePoint Deployment::now() const { return tcp_ != nullptr ? tcp_->now() : sim_.now(); }

void Deployment::run() {
    if (tcp_ != nullptr) {
        tcp_->run(false, 0);
    } else {
        sim_.run();
    }
}

void Deployment::run_until(TimePoint deadline) {
    if (tcp_ != nullptr) {
        tcp_->run(true, deadline);
    } else {
        sim_.run_until(deadline);
    }
}

void Deployment::attach(Observers observers) {
    observers_ = std::move(observers);
    for (int i = 0; i < group_size(); ++i) {
        newtop::InvocationService& invocation = *members_[static_cast<std::size_t>(i)].invocation;
        if (observers_.delivered) {
            invocation.on_delivery([this, i](const newtop::Delivery& d) {
                observers_.delivered(i, d.payload);
            });
        }
        if (observers_.view_installed) {
            invocation.on_view([this, i](const newtop::GroupView& v) {
                observers_.view_installed(i, v);
            });
        }
        if (observers_.middleware_failure) {
            invocation.on_middleware_failure([this, i](const std::string& fs_name) {
                observers_.middleware_failure(i, fs_name);
            });
        }
    }
}

void Deployment::submit(int member, Bytes payload) {
    const Member& m = members_.at(static_cast<std::size_t>(member));
    post(m.home, [this, &m, payload = std::move(payload)]() mutable {
        m.invocation->multicast(service_, std::move(payload));
    });
}

BatchStats Deployment::batch_stats() const {
    BatchStats stats;
    for (const Member& m : members_) stats += m.invocation->batch_stats();
    return stats;
}

void Deployment::crash(int member) {
    const std::vector<NodeId> mine = nodes_of(member);
    if (tcp_ != nullptr) {
        tcp_->crash(mine);
        return;
    }
    // A crashed host stops talking to everyone; peers see silence and react
    // through whatever detection their stack has (suspectors, quorums).
    for (int other = 0; other < group_size(); ++other) {
        if (other == member) continue;
        for (const NodeId theirs : nodes_of(other)) {
            for (const NodeId node : mine) faults().block(node, theirs);
        }
    }
}

void Deployment::recover(int member) {
    const std::vector<NodeId> mine = nodes_of(member);
    if (tcp_ != nullptr) {
        tcp_->recover(mine);
        return;
    }
    // Exact inverse of crash(): unblock both directions of every pair the
    // crash blocked.
    for (int other = 0; other < group_size(); ++other) {
        if (other == member) continue;
        for (const NodeId theirs : nodes_of(other)) {
            for (const NodeId node : mine) faults().unblock(node, theirs);
        }
    }
}

bool Deployment::inject_fault(const FaultInjection&) { return false; }

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

bool Deployment::run_on(NodeId node, std::function<void()> fn) {
    if (tcp_ != nullptr) return tcp_->run_on(node, std::move(fn));
    fn();
    return true;
}

void Deployment::enqueue(NodeId node, std::function<void()> task) {
    tcp_->post(node, std::move(task));
}

void Deployment::halt() {
    if (tcp_ != nullptr) tcp_->halt();
}

std::optional<AppStateInfo> Deployment::app_state_on(NodeId node, const app::KvStore& app) {
    std::optional<AppStateInfo> info;
    run_on(node, [&] { info = AppStateInfo{app.applied(), app.digest(), app.state_string()}; });
    return info;
}

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
    switch (system) {
        case SystemKind::kNewTop: return std::make_unique<NewTopDeployment>(spec);
        case SystemKind::kFsNewTop: return std::make_unique<FsNewTopDeployment>(spec);
        case SystemKind::kPbft: return std::make_unique<PbftDeployment>(spec);
    }
    throw std::logic_error("deploy: unknown system");
}

}  // namespace failsig::deploy
