// First-class deployment seam over the three protocol stacks.
//
// The paper's argument is comparative: identical workloads and fault
// campaigns run against crash-tolerant NewTOP, FS-NewTOP, and a PBFT-style
// baseline. `Deployment` is the one interface all three implement — create
// the members, submit workload messages, inject faults (crash / partition /
// Byzantine fault plans / liveness timeouts), observe deliveries, views and
// fail-signals, and reach the owning Simulation/SimNetwork — so the scenario
// engine (src/scenario/runner.cpp) contains exactly one execution path. Each
// stack is one class built straight from a DeploymentSpec; a fourth system
// is one more such class, one SystemKind value and one `case` in
// make_deployment — no engine edits.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "common/batch.hpp"
#include "fs/fault.hpp"
#include "fs/fso.hpp"
#include "net/network.hpp"
#include "newtop/invocation.hpp"
#include "newtop/suspector.hpp"
#include "newtop/types.hpp"
#include "obs/obs.hpp"
#include "orb/orb.hpp"
#include "sim/simulation.hpp"

namespace failsig::fsnewtop {

/// Where FS-NewTOP's pair members live (see deploy/fsnewtop.hpp): kCollocated
/// is the paper's n-node set-up (Figure 5), kFull the 2n-node one (Figure 4).
enum class Placement { kCollocated, kFull };

}  // namespace failsig::fsnewtop

namespace failsig::deploy {

/// Which deployment a scenario drives. Extending the comparison means adding
/// a value here and a `case` in make_deployment.
enum class SystemKind : std::uint8_t { kNewTop = 0, kFsNewTop = 1, kPbft = 2 };

const char* name_of(SystemKind system);

/// How the deployment executes: the deterministic discrete-event simulator
/// (the default, byte-identical across runs) or real sockets on localhost
/// (wall-clock, one executor thread per node behind a TcpTransport).
enum class Backend : std::uint8_t { kSim = 0, kTcp = 1 };

const char* name_of(Backend backend);

/// System-agnostic construction knobs: the projection of a
/// scenario::Scenario a deployment needs to build itself. Stack-specific
/// fields are ignored by the stacks they don't concern.
struct DeploymentSpec {
    int group_size{3};
    /// Concurrent CPU capacity per node. The paper's ORB pool has 10
    /// *threads*, but they multiplex onto Pentium III *dual-processor*
    /// nodes; since the simulator charges pure CPU time (no blocking I/O),
    /// the faithful worker count is the CPU count. This is what makes the
    /// collocated FS deployment (two wrapper objects per node, Figure 5)
    /// genuinely contend for cycles. bench_ab2 sweeps this knob.
    int threads_per_node{2};
    std::uint64_t seed{1};
    newtop::ServiceType service{newtop::ServiceType::kSymmetricTotalOrder};
    /// Request batching on the submit path (all three stacks honour it; off
    /// by default — max_requests <= 1 keeps the wire byte-identical).
    BatchConfig batch{};

    // NewTOP only. When start_suspectors is false no ping traffic exists
    // (the paper's failure-free runs eliminate false suspicions).
    bool start_suspectors{false};
    newtop::SuspectorOptions suspector{};

    // FS-NewTOP only.
    fsnewtop::Placement placement{fsnewtop::Placement::kCollocated};
    fs::FsConfig fs_config{};

    /// Per-run observability context (metrics + spans + flight recorder);
    /// nullptr = tracing off. Owned by the caller (run_scenario); the
    /// deployment binds it to its Simulation and threads the pointer into
    /// the stacks' lifecycle hooks. Sim backend only: the TCP backend has no
    /// single deterministic clock to bind, and rejects it.
    obs::Obs* obs{nullptr};

    /// Execution backend. kSim is the deterministic default; kTcp runs the
    /// same stack over real sockets, one executor per node (deploy/tcp.hpp).
    /// Not serialized into reports.
    Backend backend{Backend::kSim};
    /// Application checkpoint cadence (delivered requests between
    /// checkpoints). Enables PBFT log truncation and gives rejoin grants a
    /// checkpoint history to ship; 0 = off (pre-existing behavior,
    /// byte-identical wire).
    std::uint64_t checkpoint_interval{0};
};

/// Application-level observers a caller attaches before the run. Deployments
/// invoke only the callbacks their stack can produce (PBFT has no views or
/// fail-signals); unset callbacks are skipped.
struct Observers {
    /// A member's application received an ordered payload.
    std::function<void(int member, const Bytes& payload)> delivered;
    /// A member's application installed a membership view.
    std::function<void(int member, const newtop::GroupView& view)> view_installed;
    /// A fail-signal process started signalling (FS-NewTOP).
    std::function<void(int member, const std::string& source, const std::string& reason)>
        fail_signal;
    /// A member's Invocation layer saw its own middleware fail (FS-NewTOP).
    std::function<void(int member, const std::string& source)> middleware_failure;
};

/// A Byzantine fault plan aimed at one member's infrastructure. Only stacks
/// with a fail-signal layer can express it (see Deployment::inject_fault).
struct FaultInjection {
    int member{-1};
    /// Target the pair's leader wrapper object (else the follower).
    bool at_leader{true};
    fs::FaultPlan plan{};
};

/// Deterministic recovery counters aggregated over the whole deployment
/// (pinned in tests/test_pinned_counters.cpp; never wall-clock).
struct RecoveryStats {
    std::uint64_t checkpoints_taken{0};
    std::uint64_t log_slots_truncated{0};
    /// High-water mark of PBFT's ordered-log occupancy (0 for other stacks).
    std::uint64_t log_slots_retained{0};
    std::uint64_t state_transfers_served{0};
    std::uint64_t rejoins_completed{0};
    /// NewTOP retained-log cap evictions (flush patch-up source).
    std::uint64_t flush_log_evictions{0};
    /// Flush merges that needed an entry the cap had evicted (soundness
    /// violation witness; expected 0).
    std::uint64_t flush_eviction_gaps{0};

    RecoveryStats& operator+=(const RecoveryStats& other) {
        checkpoints_taken += other.checkpoints_taken;
        log_slots_truncated += other.log_slots_truncated;
        log_slots_retained = std::max(log_slots_retained, other.log_slots_retained);
        state_transfers_served += other.state_transfers_served;
        rejoins_completed += other.rejoins_completed;
        flush_log_evictions += other.flush_log_evictions;
        flush_eviction_gaps += other.flush_eviction_gaps;
        return *this;
    }
};

/// Snapshot of one member's replicated application state, read at
/// quiescence (the scenario checkers compare these across members).
struct AppStateInfo {
    std::uint64_t applied{0};
    std::uint64_t digest{0};
    /// KvStore::state_string() — "applied=N digest=HEX checkpoints=...".
    std::string detail;
};

class TcpRuntime;

/// One run of one stack on one backend. The base owns what every stack
/// shares: the driver loop, the message plane, the ORB domain and, on
/// Backend::kTcp, the TcpRuntime (deploy/tcp.hpp) whose per-node executors
/// run the stack over real sockets. A stack class builds its protocol
/// objects on domain(), registers each member's Invocation layer with
/// add_member, and reaches node state through post()/run_on(), which run
/// inline on the simulator and on the node's executor on TCP, so it writes
/// each hook once for both backends.
class Deployment {
public:
    virtual ~Deployment();

    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;

    // --- accessors --------------------------------------------------------
    /// Driver event loop: the one Simulation every node shares on the sim
    /// backend, the coordinator's timeline loop on the TCP backend. Drive
    /// the run through now()/schedule()/run()/run_until() below instead of
    /// reaching in — they are backend-agnostic.
    [[nodiscard]] sim::Simulation& sim() { return sim_; }
    /// Message plane (stats, lifecycle, fault model): a SimNetwork, or the
    /// runtime's TcpTransport.
    [[nodiscard]] net::Transport& network() { return net_; }
    /// The message plane's fault model (block/partition/delay/drop/corrupt).
    [[nodiscard]] net::FaultInjector& faults() { return network().faults(); }
    [[nodiscard]] int group_size() const { return static_cast<int>(members_.size()); }
    /// Physical nodes that embody `member` (its host plus any dedicated pair
    /// nodes). Host-level faults (crash, partition) operate on these.
    [[nodiscard]] virtual std::vector<NodeId> nodes_of(int member) const = 0;

    // --- time & execution -------------------------------------------------
    /// Virtual now; safe to read from any upcall context.
    [[nodiscard]] TimePoint now() const;
    /// Schedules a driver-side action (workload submission, fault event) at
    /// virtual time `at`. Driver thread only; call before or between runs.
    void schedule(TimePoint at, std::function<void()> fn) { sim_.schedule_at(at, std::move(fn)); }
    /// Runs until nothing is left to do anywhere in the deployment.
    void run();
    /// Runs until virtual time `deadline`; now() == deadline afterwards.
    void run_until(TimePoint deadline);

    // --- workload ---------------------------------------------------------
    /// Attaches observers. On the TCP backend callbacks fire on executor
    /// threads (one per node); callers needing aggregation must lock.
    virtual void attach(Observers observers);
    /// Multicasts `payload` from `member` with the spec's service class, on
    /// the member's home node. Any thread.
    void submit(int member, Bytes payload);

    // --- fault hooks ------------------------------------------------------
    /// Crashes the member's host: its nodes go silent to every other
    /// member's (sim: blocked links; TCP: frames dropped and executors torn
    /// down). Peers react through whatever detection their stack has.
    virtual void crash(int member);
    /// Injects a Byzantine fault plan; returns false when the stack has no
    /// fail-signal layer to aim it at (callers note it instead of acting).
    virtual bool inject_fault(const FaultInjection& fault);
    /// Splits the members into isolated groups; traffic across groups drops
    /// until faults().heal_partition(). Partitions the union of each group's
    /// `nodes_of`.
    void partition(const std::vector<std::vector<int>>& member_groups);
    /// Fires liveness timers (PBFT view change) on every live member;
    /// returns false when the stack has none.
    virtual bool fire_timeouts() { return false; }
    /// Stops self-rescheduling activity (suspector ping loops) so the run
    /// can settle. Default: nothing to stop.
    virtual void stop_perpetual() {}
    /// Whether host-level faults (crash/partition) are expressible. False
    /// for FS-NewTOP's collocated placement, where a host is shared between
    /// two pairs and a host fault would sever healthy pairs.
    [[nodiscard]] virtual bool supports_host_faults() const { return true; }

    // --- recovery ---------------------------------------------------------
    /// Brings a crashed/excluded member back. Base: undoes the base crash()
    /// only. Stacks run their rejoin sequence (state resets, suspector
    /// forgiveness, the join request) after it, one run_on per step.
    virtual void recover(int member);
    /// Member's replicated app state at quiescence (nullopt = stack carries
    /// no app layer, or the member is still down).
    [[nodiscard]] virtual std::optional<AppStateInfo> app_state_of(int member) {
        (void)member;
        return std::nullopt;
    }
    /// Aggregated checkpoint/recovery counters.
    [[nodiscard]] virtual RecoveryStats recovery_stats() const { return {}; }

    // --- deterministic counters ------------------------------------------
    /// Aggregated batching-pipeline counters (zero when batching is off).
    [[nodiscard]] BatchStats batch_stats() const;
    /// Signature verifications actually performed / answered from the verify
    /// memo. Zero for stacks without an authentication layer (NewTOP, the
    /// unauthenticated PBFT baseline); FS-NewTOP reports its KeyService.
    [[nodiscard]] virtual std::uint64_t crypto_verify_ops() const { return 0; }
    [[nodiscard]] virtual std::uint64_t crypto_verify_cache_hits() const { return 0; }
    /// Most verdicts the verify memo has held at once (zero without one).
    [[nodiscard]] virtual std::uint64_t crypto_memo_high_water() const { return 0; }

protected:
    /// Builds the world from `spec` in a fixed order: the Simulation, then
    /// the message plane (a SimNetwork, or a TcpRuntime and its transport),
    /// then the ORB domain. Binds spec.obs to the Simulation (sim only).
    explicit Deployment(const DeploymentSpec& spec);

    [[nodiscard]] orb::OrbDomain& domain() { return domain_; }
    [[nodiscard]] const Observers& observers() const { return observers_; }
    /// Registers the next member's Invocation layer (member order) and the
    /// node it lives on.
    void add_member(NodeId home, newtop::InvocationService& invocation) {
        members_.push_back({home, &invocation});
    }

    /// Runs `fn` on `node`'s event loop: inline on the simulator, queued on
    /// the node's executor on TCP (dropped while the node is crashed).
    template <class Fn>
    void post(NodeId node, Fn fn) {
        if (tcp_ != nullptr) {
            enqueue(node, std::move(fn));
        } else {
            fn();
        }
    }
    /// post() that waits for `fn` to finish. Returns false, without running
    /// `fn`, when the node is crashed on TCP.
    bool run_on(NodeId node, std::function<void()> fn);
    /// Stops every node before the stack's objects die: on TCP it joins the
    /// executors and closes the transport. Each stack's destructor calls it
    /// first. Idempotent; a no-op on the simulator.
    void halt();

    /// Reads `app`, a member's replicated store living on `node`, on that
    /// node's loop (app_state_of's one body); nullopt when the node is down.
    [[nodiscard]] std::optional<AppStateInfo> app_state_on(NodeId node, const app::KvStore& app);

private:
    struct Member {
        NodeId home;
        newtop::InvocationService* invocation;
    };

    void enqueue(NodeId node, std::function<void()> task);

    // Declaration order is teardown order, reversed: the ORBs die before the
    // per-node loops, and both before the driver loop.
    sim::Simulation sim_;
    std::unique_ptr<TcpRuntime> tcp_;           // null on the sim backend
    std::unique_ptr<net::SimNetwork> sim_net_;  // null on the TCP backend
    net::Transport& net_;
    orb::OrbDomain domain_;
    newtop::ServiceType service_;
    std::vector<Member> members_;
    Observers observers_;
};

/// Static facts the engine needs before (or instead of) construction.
struct SystemTraits {
    int min_group_size{1};
    /// Human-readable reason used when a sweep cell is skipped.
    const char* min_group_reason{""};
};

[[nodiscard]] SystemTraits traits_of(SystemKind system);

/// Builds the deployment for `system`. Throws std::logic_error for unknown
/// systems or group sizes below the system's floor.
std::unique_ptr<Deployment> make_deployment(SystemKind system, const DeploymentSpec& spec);

}  // namespace failsig::deploy
