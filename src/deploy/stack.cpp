#include "deploy/stack.hpp"

namespace failsig::deploy {

StackDeployment::StackDeployment(const DeploymentSpec& spec)
    : own_net_(spec.env.external()
                   ? nullptr
                   : std::make_unique<net::SimNetwork>(sim_, Rng(spec.seed),
                                                       net::AsyncLinkParams{})),
      net_(own_net_ ? *own_net_ : *spec.env.transport),
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
