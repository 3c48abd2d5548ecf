#include "net/transport.hpp"

#include <algorithm>

namespace failsig::net {

namespace {

/// The unordered node pair {a, b} as one key.
std::uint64_t link_of(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(std::min(a.value, b.value)) << 32) |
           std::max(a.value, b.value);
}

}  // namespace

void FaultInjector::set_lan_pair(NodeId a, NodeId b, Duration delta) {
    const std::lock_guard lock(mu_);
    lan_pairs_[link_of(a, b)] = delta;
}

void FaultInjector::block(NodeId a, NodeId b) {
    const std::lock_guard lock(mu_);
    blocked_.insert(link_of(a, b));
}

void FaultInjector::unblock(NodeId a, NodeId b) {
    const std::lock_guard lock(mu_);
    blocked_.erase(link_of(a, b));
}

void FaultInjector::partition(const std::vector<std::set<NodeId>>& groups) {
    const std::lock_guard lock(mu_);
    partition_groups_ = groups;
}

void FaultInjector::heal_partition() {
    const std::lock_guard lock(mu_);
    partition_groups_.clear();
}

void FaultInjector::delay_surge(Duration extra, TimePoint until) {
    const std::lock_guard lock(mu_);
    surge_extra_ = extra;
    surge_until_ = until;
}

void FaultInjector::set_corruptor(Corruptor corruptor) {
    const std::lock_guard lock(mu_);
    corruptor_ = std::move(corruptor);
}

void FaultInjector::set_drop_probability(double p) {
    const std::lock_guard lock(mu_);
    drop_probability_ = p;
}

bool FaultInjector::partitioned(NodeId a, NodeId b) const {
    // Across-group traffic is cut; traffic inside a group flows.
    for (const auto& group : partition_groups_) {
        const bool has_a = group.contains(a);
        const bool has_b = group.contains(b);
        if (has_a && has_b) return false;
        if (has_a != has_b) {
            // One endpoint inside this group, the other outside: cut only if
            // the other endpoint belongs to some *other* group.
            for (const auto& other : partition_groups_) {
                if (&other == &group) continue;
                if (other.contains(has_a ? b : a)) return true;
            }
        }
    }
    return false;
}

std::optional<Route> FaultInjector::admit(Message& msg, Rng& rng, TimePoint now) {
    const std::lock_guard lock(mu_);
    const NodeId a = msg.src.node;
    const NodeId b = msg.dst.node;
    Route route;
    if (a != b) {
        const std::uint64_t link = link_of(a, b);
        if (blocked_.contains(link)) return std::nullopt;
        const auto lan = lan_pairs_.find(link);
        if (lan != lan_pairs_.end()) {
            route.lan_bound = lan->second;
        } else {
            if (partitioned(a, b)) return std::nullopt;
            if (drop_probability_ > 0.0 && rng.chance(drop_probability_)) return std::nullopt;
            if (now < surge_until_) route.surge = surge_extra_;
        }
    }
    if (corruptor_ && !corruptor_(msg)) return std::nullopt;
    return route;
}

}  // namespace failsig::net
