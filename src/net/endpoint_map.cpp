#include "net/endpoint_map.hpp"

namespace failsig::net {

void EndpointMap::publish(NodeId node, SocketAddr addr) {
    entries_[node.value] = std::move(addr);
}

const SocketAddr* EndpointMap::find(NodeId node) const {
    const auto it = entries_.find(node.value);
    return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace failsig::net
