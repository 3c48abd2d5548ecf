#include "fs/process.hpp"

namespace failsig::fs {

FsProcessHandles FsHost::create_process(const std::string& name, NodeId leader_node,
                                        NodeId follower_node, const ServiceFactory& factory,
                                        FsConfig config) {
    ensure(leader_node != follower_node, "FS pair must span two distinct nodes (A1)");

    orb::Orb& leader_orb = rt_.domain.create_orb(leader_node);
    orb::Orb& follower_orb = rt_.domain.create_orb(follower_node);

    const Endpoint leader_pair_ep{leader_node, PortId{next_pair_port_++}};
    const Endpoint follower_pair_ep{follower_node, PortId{next_pair_port_++}};

    // Assumption A2: the pair's nodes share a synchronous link with bound δ.
    rt_.net.faults().set_lan_pair(leader_node, follower_node, config.delta);

    auto leader = std::make_unique<Fso>(rt_, name, FsoRole::kLeader, leader_orb, leader_pair_ep,
                                        factory(), config);
    auto follower = std::make_unique<Fso>(rt_, name, FsoRole::kFollower, follower_orb,
                                          follower_pair_ep, factory(), config);

    FsProcessInfo info;
    info.name = name;
    info.leader = leader_orb.activate("fso:" + name, leader.get());
    info.follower = follower_orb.activate("fso:" + name, follower.get());
    info.leader_pair_ep = leader_pair_ep;
    info.follower_pair_ep = follower_pair_ep;
    info.leader_principal = leader->principal();
    info.follower_principal = follower->principal();
    rt_.directory.register_process(info);

    // §2.1: at start-up each Compare is supplied with this process's
    // fail-signal already signed by the *other* Compare.
    const Bytes fail_payload = FsFailSignal{name}.encode();
    crypto::SignedEnvelope for_leader(fail_payload);
    for_leader.add_signature(rt_.keys.signer(follower->principal()));
    crypto::SignedEnvelope for_follower(fail_payload);
    for_follower.add_signature(rt_.keys.signer(leader->principal()));

    leader->set_peer(follower_pair_ep, follower->principal(), std::move(for_leader));
    follower->set_peer(leader_pair_ep, leader->principal(), std::move(for_follower));

    FsProcessHandles handles;
    handles.info = info;
    handles.leader = leader.get();
    handles.follower = follower.get();
    fsos_.push_back(std::move(leader));
    fsos_.push_back(std::move(follower));
    return handles;
}

}  // namespace failsig::fs
