// Fail-Signal wrapper Object (FSO) — the paper's core construction (§2,
// Appendix A).
//
// An FS process is a pair {FSO, FSO'} hosted on two nodes joined by a
// synchronous link (bound δ). Each FSO bundles:
//   * a replica of the wrapped deterministic service (p or p'),
//   * an Order process — the leader assigns a total order to inputs and
//     forwards (seq, input) records to the follower; the follower checks
//     that everything it receives directly is eventually ordered by the
//     leader (IRMP pool, timeouts t1/t2),
//   * a Compare process — every locally produced output is signed once and
//     sent to the counterpart (ICMP/ECMP pools); on a successful match the
//     counterpart's single-signed copy is countersigned and the double-
//     signed output is transmitted to its destinations; on mismatch or
//     timeout the pre-armed fail-signal is countersigned and emitted, and
//     the pair exchange ceases (failure modes fs1/fs2).
//
// In this implementation the Order and Compare processes run on a dedicated
// single-worker pool per FSO (the paper's nodes are dual-processor and its
// concluding remarks require the wrapper threads to run at high priority);
// the wrapped service's processing runs on the node's shared ORB thread
// pool, where it contends with everything else on that host.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "crypto/envelope.hpp"
#include "crypto/keys.hpp"
#include "fs/directory.hpp"
#include "fs/fault.hpp"
#include "fs/service.hpp"
#include "fs/wire.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"
#include "orb/orb.hpp"

namespace failsig::fs {

enum class FsoRole { kLeader, kFollower };

/// Tunables of the FS construction (paper §2.1/§2.2 and Appendix A).
struct FsConfig {
    /// δ: synchronous-link delay bound (assumption A2).
    Duration delta = 500 * kMicrosecond;
    /// κ: processing-speed ratio bound (assumption A3).
    double kappa = 2.0;
    /// σ: send-scheduling ratio bound (assumption A4).
    double sigma = 2.0;
    /// Follower's first IRMP timeout before dispatching to the leader
    /// ("in the implementation the t1 is set to 0").
    Duration t1 = 0;
    /// Follower's second IRMP timeout ("t2 is set to 2δ"); 0 = derive from δ.
    Duration t2 = 0;
    /// Engineering margin added to compare/order timeouts. The analytic
    /// bound (2δ+κπ+στ) assumes the pair's progress is symmetric at every
    /// instant; transient asymmetries (bursty countersign arrivals, ORB
    /// dispatch queues) need a real-world cushion on top, exactly like the
    /// generous timeouts of the paper's experimental set-up ("the large
    /// timeouts degrade performance only when nodes do fail").
    Duration compare_slack = 50 * kMillisecond;
    /// Opt-in MAC session authenticator for the pair link's Order records
    /// (the paper's signature-vs-MAC cost trade-off): when set, the
    /// leader/follower ordering stream is authenticated with a pairwise
    /// HMAC session key instead of the sender's RSA signature. Only the
    /// pair itself ever checks Order records, so no third-party
    /// verifiability is lost; Compare outputs keep real signatures because
    /// their countersigned form must convince everyone else. Off by
    /// default — the default wire format is unchanged.
    bool order_link_mac = false;
};

/// Shared infrastructure handed to every FS component. Time is *not* here:
/// each FSO schedules on its own node's event loop (resolved through its
/// ORB), which is the shared Simulation on the simulator backends and the
/// executor thread's private loop on the TCP backend.
struct FsRuntime {
    net::Transport& net;
    orb::OrbDomain& domain;
    crypto::KeyService& keys;
    FsDirectory& directory;
    /// Observability context (nullptr = off): wrapper objects attribute
    /// their simulated sign/verify time here. Trailing default keeps the
    /// existing five-field aggregate initializers valid.
    obs::Obs* obs{nullptr};
};

class Fso final : public orb::Servant {
public:
    Fso(FsRuntime& rt, std::string name, FsoRole role, orb::Orb& orb, Endpoint pair_endpoint,
        std::unique_ptr<DeterministicService> service, FsConfig config);
    ~Fso() override;

    Fso(const Fso&) = delete;
    Fso& operator=(const Fso&) = delete;

    /// Wires up the counterpart after both wrapper objects exist. The
    /// pre-armed fail-signal is this process's fail-signal already signed by
    /// the *counterpart's* Compare (supplied at start-up time, §2.1).
    void set_peer(Endpoint peer_pair_endpoint, const std::string& peer_principal,
                  crypto::SignedEnvelope prearmed_fail_signal);

    /// Injects an authenticated-Byzantine fault plan into this node.
    void set_fault_plan(const FaultPlan& plan);

    /// Invoked once per fail-signalling *episode* (the scenario tracer taps
    /// this; reasons are human-readable): once when this wrapper object
    /// starts fail-signalling (fs1 — mismatch/timeout, after which the pair
    /// exchange ceases), and once when an fs2 fault plan begins spontaneous
    /// fail-signal emission — not once per emission tick. Downstream,
    /// scenario metrics therefore count signalling episodes, not ticks.
    using FailSignalObserver = std::function<void(const std::string& name,
                                                  const std::string& reason)>;
    void set_fail_signal_observer(FailSignalObserver observer) {
        fail_signal_observer_ = std::move(observer);
    }

    // orb::Servant — handles "receiveNew" requests from the environment.
    void dispatch(const orb::Request& request) override;

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] FsoRole role() const { return role_; }
    [[nodiscard]] const std::string& principal() const { return principal_; }
    [[nodiscard]] bool signalling() const { return signalling_; }
    [[nodiscard]] std::uint64_t inputs_ordered() const { return inputs_ordered_; }
    [[nodiscard]] std::uint64_t fail_signals_sent() const { return fail_signals_sent_; }
    [[nodiscard]] DeterministicService& service() { return *service_; }

    /// Next input order sequence this wrapper object would assign/execute.
    [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

    /// Crash-recovery reset: cancels every pending Order/Compare timer,
    /// drops the pools' bookkeeping (DMQ, IRMP, ICMP/ECMP) and the
    /// fail-signalling latch, and re-bases the input order at `seq_base`.
    /// Both wrapper objects of a pair MUST be reset to the same base (the
    /// max of their next_seq()) before the link is unblocked, or the first
    /// ordered input after recovery mismatches and the pair re-signals.
    /// The wrapped service is NOT touched — the caller follows up with a
    /// service-level recovery input (e.g. the GC's "__rejoin") that both
    /// replicas execute deterministically.
    void reset_for_recovery(std::uint64_t seq_base);

    /// Effective follower IRMP timeout (t2).
    [[nodiscard]] Duration t2_effective() const;

private:
    struct PendingInput {
        FsInput input;
        TimePoint submitted_at{0};
    };
    struct IrmpEntry {
        FsInput input;
        sim::Simulation::EventId timer{0};
    };
    struct IcmpEntry {
        FsOutput out;
        Bytes encoded;
        sim::Simulation::EventId timer{0};
        bool matched{false};
    };
    using OutputId = std::pair<std::uint64_t, std::uint32_t>;

    [[nodiscard]] bool fault_active() const;
    [[nodiscard]] sim::SimThreadPool& node_pool() { return orb_.pool(); }

    /// Principal that signs our outgoing Order records, and the principal we
    /// expect on the counterpart's (the shared link principal in MAC mode).
    [[nodiscard]] const std::string& order_signing_principal() const {
        return (cfg_.order_link_mac && peer_set_) ? link_principal_ : principal_;
    }
    [[nodiscard]] const std::string& order_expected_principal() const {
        return (cfg_.order_link_mac && peer_set_) ? link_principal_ : peer_principal_;
    }

    // --- input path (Order process) --------------------------------------
    void handle_receive_new(const crypto::SignedEnvelope& env);
    void order_input(const FsInput& input);                    // leader
    void follower_receive_new(const FsInput& input);           // follower
    void handle_order(const crypto::SignedEnvelope& env);      // pair link
    void on_irmp_timeout(const std::string& uid);
    void enqueue_ordered(std::uint64_t seq, const FsInput& input);

    // --- execution ---------------------------------------------------------
    void maybe_execute();
    void on_executed(std::uint64_t seq, const PendingInput& pending);

    // --- output path (Compare process) -------------------------------------
    /// `pi` is π of §2.2: elapsed time from input submission to output
    /// production, measured locally.
    void emit_output(FsOutput record, Duration pi);
    void arm_icmp_timer(const OutputId& id, Duration pi, Duration tau);
    void handle_single(const crypto::SignedEnvelope& env);     // pair link
    void try_match(const OutputId& id);
    void on_icmp_timeout(const OutputId& id);

    // --- fail-signalling -----------------------------------------------------
    void start_signalling(const std::string& reason);
    void send_fail_signal_to_fs(const std::string& fs_name);
    void send_fail_signal_to_ref(const orb::ObjectRef& ref);
    void send_fail_signal_for_output(const FsOutput& out);
    void reply_fail_signal_to_origin(const FsInput& input);
    [[nodiscard]] const Bytes& fail_signal_wire();
    void schedule_spontaneous_fail_signal();

    // --- transport helpers ----------------------------------------------------
    void pair_send(const crypto::SignedEnvelope& env);
    /// A request body carrying `args`, with the next raw request id. The
    /// wrapper's own sends are not charged a marshal cost.
    [[nodiscard]] Payload request_body(const std::string& operation, Bytes args);
    /// One logical request to many targets: the body is encoded once and
    /// shared; only the per-target object-key header is materialized.
    void fanout_raw(const std::vector<orb::ObjectRef>& targets, const std::string& operation,
                    Bytes wire);
    void transmit(const FsOutput& record, Bytes wire);

    FsRuntime& rt_;
    std::string name_;
    FsoRole role_;
    orb::Orb& orb_;
    /// This node's event loop — every FSO timer and clock read goes here.
    sim::Simulation& sim_;
    Endpoint pair_ep_;
    std::unique_ptr<DeterministicService> service_;
    FsConfig cfg_;
    sim::CostModel costs_;
    std::string principal_;
    std::string peer_principal_;
    /// Pairwise session-MAC principal (order_link_mac mode); set by
    /// set_peer(). Order records are then signed/verified under this name.
    std::string link_principal_;
    Endpoint peer_pair_ep_{};
    bool peer_set_{false};
    crypto::SignedEnvelope prearmed_fail_;
    std::optional<Bytes> cached_fail_wire_;
    // The wrapper objects run Order and Compare as separate threads (paper
    // Fig. 1); keeping them on distinct single-worker pools means a signing
    // backlog on the Compare thread can never starve input ordering.
    std::unique_ptr<sim::SimThreadPool> order_pool_;
    std::unique_ptr<sim::SimThreadPool> compare_pool_;

    bool signalling_{false};
    std::uint64_t next_seq_{1};
    std::uint64_t next_exec_seq_{1};
    bool exec_busy_{false};
    std::map<std::uint64_t, PendingInput> dmq_;
    std::unordered_set<std::string> ordered_uids_;
    std::unordered_map<std::string, IrmpEntry> irmp_;
    std::map<OutputId, IcmpEntry> icmp_;
    std::map<OutputId, crypto::SignedEnvelope> ecmp_;

    FaultPlan fault_;
    bool fault_configured_{false};
    Rng fault_rng_;
    FailSignalObserver fail_signal_observer_;
    /// fs2 bookkeeping: the spontaneous-emission episode has been reported
    /// to the observer (it fires once per episode, not per emission tick).
    bool spontaneous_episode_reported_{false};

    std::uint64_t next_raw_request_id_{1};
    std::uint64_t inputs_ordered_{0};
    std::uint64_t fail_signals_sent_{0};
};

}  // namespace failsig::fs
