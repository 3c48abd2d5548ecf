// The real addressing scheme behind opaque Endpoints.
//
// Protocol code addresses peers by `Endpoint{NodeId, PortId}` — logical
// coordinates with no network meaning. A deployment that runs on real
// sockets owns an `EndpointMap`: the node-id ↔ host:port directory. Ports
// are ephemeral (every listener binds port 0 and publishes the port the
// kernel chose), so parallel test runs never collide; the map is therefore
// built at deployment construction and read-only afterwards.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/types.hpp"

namespace failsig::net {

/// A concrete socket address.
struct SocketAddr {
    std::string host{"127.0.0.1"};
    std::uint16_t port{0};
};

/// node-id ↔ host:port directory, held by the Deployment.
class EndpointMap {
public:
    /// Publishes (or replaces) the address of `node`.
    void publish(NodeId node, SocketAddr addr);

    /// Address of `node`, or nullptr if the node was never published.
    [[nodiscard]] const SocketAddr* find(NodeId node) const;

    [[nodiscard]] std::size_t size() const { return entries_.size(); }

    /// Node-ordered view.
    [[nodiscard]] const std::map<std::uint32_t, SocketAddr>& entries() const {
        return entries_;
    }

private:
    std::map<std::uint32_t, SocketAddr> entries_;
};

}  // namespace failsig::net
