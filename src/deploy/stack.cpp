#include "deploy/stack.hpp"

#include "common/result.hpp"

namespace failsig::deploy {

namespace {

std::unique_ptr<net::SimNetwork> own_network(sim::Simulation& sim, const DeploymentSpec& spec) {
    if (!spec.env.external()) {
        return std::make_unique<net::SimNetwork>(sim, Rng(spec.seed), net::AsyncLinkParams{});
    }
    ensure(spec.env.faults != nullptr,
           "RuntimeEnv: an external transport needs an external fault plane");
    return nullptr;
}

}  // namespace

StackDeployment::StackDeployment(const DeploymentSpec& spec)
    : own_net_(own_network(sim_, spec)),
      net_(own_net_ ? *own_net_ : *spec.env.transport),
      faults_(own_net_ ? *own_net_ : *spec.env.faults),
      domain_(spec.env.sim_of ? spec.env.sim_of
                              : [this](NodeId) -> sim::Simulation& { return sim_; },
              net_, sim::CostModel{}, spec.threads_per_node),
      service_(spec.service) {
    // Stamps read now() lazily, so binding before the stack exists is safe.
    if (spec.obs != nullptr) spec.obs->bind(&sim_);
}

void StackDeployment::attach(Observers observers) {
    observers_ = std::move(observers);
    for (int i = 0; i < group_size(); ++i) {
        newtop::InvocationService& invocation = *invocations_[static_cast<std::size_t>(i)];
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

void StackDeployment::submit(int member, Bytes payload) {
    invocations_.at(static_cast<std::size_t>(member))->multicast(service_, std::move(payload));
}

BatchStats StackDeployment::batch_stats() const {
    BatchStats stats;
    for (const auto* invocation : invocations_) stats += invocation->batch_stats();
    return stats;
}

}  // namespace failsig::deploy
