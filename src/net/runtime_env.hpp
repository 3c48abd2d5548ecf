// External execution environment for a stack deployment.
//
// Default-constructed (all fields null) a stack owns its whole world: one
// Simulation every node shares and one SimNetwork built from its options —
// the historical, byte-identical simulator path. The TCP backend fills both
// fields instead: frames (and the fault model every Transport owns) go
// through its TcpTransport, and every node schedules on its own executor
// thread's private event loop.
#pragma once

#include <functional>

#include "net/transport.hpp"

namespace failsig::sim {
class Simulation;
}  // namespace failsig::sim

namespace failsig::net {

struct RuntimeEnv {
    /// Message plane (null = the stack builds its own SimNetwork).
    Transport* transport{nullptr};
    /// Event loop per node (null = one shared stack-owned Simulation). Must
    /// return the same Simulation for the same node, for the stack's
    /// lifetime.
    std::function<sim::Simulation&(NodeId)> sim_of{};

    [[nodiscard]] bool external() const { return transport != nullptr; }
};

}  // namespace failsig::net
