// Simulated network: deterministic message delivery between endpoints.
//
// The paper's deployment (Figure 4) uses two kinds of links:
//  * a reliable *synchronous* LAN between the two nodes of each FS pair,
//    delivering within a known bound δ (assumption A2), and
//  * a reliable *asynchronous* network between FS processes, with no known
//    bound on message delays.
// `SimNetwork` models the delays of both over one discrete-event
// Simulation; which messages a fault drops or slows is decided by the
// Transport's FaultInjector (net/transport.hpp), as on the TCP backend.
#pragma once

#include <unordered_map>

#include "common/bytes.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/transport.hpp"
#include "sim/simulation.hpp"

namespace failsig::net {

/// Delay parameters for the asynchronous network.
struct AsyncLinkParams {
    /// Minimum propagation delay.
    Duration base = 1000 * kMicrosecond;
    /// Mean of the exponential jitter added on top.
    double jitter_mean_us = 500.0;
    /// Serialization delay per payload byte (100 Mb/s ~ 0.08 us/byte).
    double per_byte_us = 0.08;
};

/// Deterministic simulated network over a Simulation event queue.
///
/// Channels are reliable and FIFO per (src-node, dst-node) pair unless fault
/// injection says otherwise. LAN pairs registered with
/// `faults().set_lan_pair` get delay <= δ; all other traffic uses the
/// asynchronous delay model.
class SimNetwork final : public Transport {
public:
    SimNetwork(sim::Simulation& sim, Rng rng, AsyncLinkParams params = {});

    void bind(Endpoint endpoint, MessageHandler handler) override;
    void unbind(Endpoint endpoint) override;
    void send(Endpoint src, Endpoint dst, Payload payload) override;

    /// Copy counters of the zero-copy plane. `bytes_sent` counts *logical*
    /// wire bytes; `payload_bytes_copied` counts the bytes that were
    /// actually materialized to carry them — per-target header bytes plus
    /// each distinct body buffer once. A multicast of one B-byte body to n
    /// receivers therefore adds n*B to bytes_sent but only B + n*header to
    /// payload_bytes_copied (O(1) body encodes, the acceptance criterion).
    [[nodiscard]] TrafficStats stats() const override { return stats_; }
    void reset_stats() override;

private:
    [[nodiscard]] Duration delay_for(NodeId a, NodeId b, const Route& route, std::size_t size);

    sim::Simulation& sim_;
    Rng rng_;
    AsyncLinkParams params_;

    std::unordered_map<Endpoint, MessageHandler> handlers_;

    // FIFO enforcement: last scheduled delivery per directed node pair.
    std::unordered_map<std::uint64_t, TimePoint> last_delivery_;

    TrafficStats stats_;
    /// Marks the bodies counted since the last reset_stats(), so a shared
    /// body counts once even when two senders' fan-out tasks interleave
    /// their sends.
    std::uint64_t count_token_{Payload::fresh_count_token()};
};

}  // namespace failsig::net
