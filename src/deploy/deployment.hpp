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

#include "common/batch.hpp"
#include "fs/fault.hpp"
#include "fs/fso.hpp"
#include "net/network.hpp"
#include "net/runtime_env.hpp"
#include "newtop/suspector.hpp"
#include "newtop/types.hpp"
#include "obs/obs.hpp"
#include "sim/simulation.hpp"
#include "time/clock.hpp"

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
    /// the stacks' lifecycle hooks.
    obs::Obs* obs{nullptr};

    /// Execution backend. kSim is the deterministic default; kTcp runs the
    /// same stack over real sockets (deploy::TcpDeployment wraps the sim
    /// backend's deployment). Not serialized into reports.
    Backend backend{Backend::kSim};
    /// External runtime environment forwarded into the stack (the TCP
    /// wrapper fills this; external callers leave it default).
    net::RuntimeEnv env{};
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

/// One node-affine action of a member's rejoin sequence. The sim backend
/// runs the steps inline (one event loop); the TCP backend posts each onto
/// its node's executor and waits, preserving the sequence across threads.
struct RecoveryStep {
    NodeId node{0};
    std::function<void()> fn;
};

/// Deterministic recovery counters aggregated over the whole deployment
/// (bench-gated; never wall-clock).
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

class Deployment {
public:
    virtual ~Deployment() = default;

    // --- accessors --------------------------------------------------------
    /// Driver event loop: the shared Simulation on the sim backends, the
    /// coordinator's timeline loop on the TCP backend. Drive the run through
    /// now()/schedule()/run()/run_until() below instead of reaching in —
    /// they are backend-agnostic.
    [[nodiscard]] virtual sim::Simulation& sim() = 0;
    /// Message plane (stats, lifecycle, fault model).
    [[nodiscard]] virtual net::Transport& network() = 0;
    /// The message plane's fault model (block/partition/delay/drop/corrupt).
    [[nodiscard]] net::FaultInjector& faults() { return network().faults(); }
    [[nodiscard]] virtual int group_size() const = 0;
    /// Physical nodes that embody `member` (its host plus any dedicated pair
    /// nodes). Host-level faults (crash, partition) operate on these.
    [[nodiscard]] virtual std::vector<NodeId> nodes_of(int member) const = 0;

    // --- time & execution -------------------------------------------------
    /// The deployment's clock; safe to read from any upcall context. Base:
    /// a SimClock over sim(). The TCP backend mounts its VirtualClock.
    [[nodiscard]] virtual const time::Clock& clock();
    [[nodiscard]] virtual TimePoint now() { return sim().now(); }
    /// Schedules a driver-side action (workload submission, fault event) at
    /// virtual time `at`. Driver thread only; call before or between runs.
    virtual void schedule(TimePoint at, std::function<void()> fn) {
        sim().schedule_at(at, std::move(fn));
    }
    /// Runs until nothing is left to do anywhere in the deployment.
    virtual void run() { sim().run(); }
    /// Runs until virtual time `deadline`; now() == deadline afterwards.
    virtual void run_until(TimePoint deadline) { sim().run_until(deadline); }

    // --- workload ---------------------------------------------------------
    /// Attaches observers. On the TCP backend callbacks fire on executor
    /// threads (one per node); callers needing aggregation must lock.
    virtual void attach(Observers observers) = 0;
    /// Submits one application payload at `member` (multicast / request).
    virtual void submit(int member, Bytes payload) = 0;

    // --- fault hooks ------------------------------------------------------
    /// Crashes the member's host. Default: isolate every node of `member`
    /// from every node of every other member (fail-silent host).
    virtual void crash(int member);
    /// Injects a Byzantine fault plan; returns false when the stack has no
    /// fail-signal layer to aim it at (callers note it instead of acting).
    virtual bool inject_fault(const FaultInjection& fault);
    /// Node whose event loop owns the state `inject_fault(fault)` mutates
    /// (nullopt = no fail-signal layer). The TCP backend posts the
    /// injection onto that node's executor.
    [[nodiscard]] virtual std::optional<NodeId> fault_home(const FaultInjection& fault) const;
    /// Splits the members into isolated groups; traffic across groups drops
    /// until faults().heal_partition(). Default: partition the union of
    /// each group's `nodes_of`.
    virtual void partition(const std::vector<std::vector<int>>& member_groups);
    /// Whether the stack has liveness timers fire_timeouts() can fire.
    [[nodiscard]] virtual bool has_liveness_timeouts() const { return false; }
    /// Fires liveness timers (PBFT view change); returns false when the
    /// stack has none. Default: one fire_timeouts_member per member.
    virtual bool fire_timeouts();
    /// Fires one member's liveness timers (the TCP backend posts this onto
    /// the member's own executor).
    virtual void fire_timeouts_member(int member);
    /// Stops self-rescheduling activity (suspector ping loops) so the
    /// simulation can settle. Default: one stop_perpetual_member per member.
    virtual void stop_perpetual();
    /// Per-member half of stop_perpetual (TCP executor affinity). Default:
    /// nothing to stop.
    virtual void stop_perpetual_member(int member);
    /// Whether host-level faults (crash/partition) are expressible. False
    /// for FS-NewTOP's collocated placement, where a host is shared between
    /// two pairs and a host fault would sever healthy pairs.
    [[nodiscard]] virtual bool supports_host_faults() const;

    // --- recovery ---------------------------------------------------------
    /// Brings a crashed/excluded member back: heal its links (the inverse of
    /// the default crash()) and run the stack's rejoin steps. Default:
    /// recover_links() then each recover_steps() entry inline (single event
    /// loop). The TCP backend overrides this to revive the member's executor
    /// and post each step onto its owning node.
    virtual void recover(int member);
    /// Undoes the link isolation the default crash() applied. Stacks whose
    /// crash() is not link-based (FS pair-link severing) override this.
    virtual void recover_links(int member);
    /// The stack's node-affine rejoin sequence for `member` (state resets,
    /// suspector forgiveness, the join request). Empty = stack has no rejoin
    /// path; recover() then only heals links.
    [[nodiscard]] virtual std::vector<RecoveryStep> recover_steps(int member) {
        (void)member;
        return {};
    }
    /// Member's replicated app state at quiescence (nullopt = stack carries
    /// no app layer, or the member is still down).
    [[nodiscard]] virtual std::optional<AppStateInfo> app_state_of(int member) {
        (void)member;
        return std::nullopt;
    }
    /// Aggregated checkpoint/recovery counters.
    [[nodiscard]] virtual RecoveryStats recovery_stats() const { return {}; }

    // --- deterministic counters ------------------------------------------
    /// Aggregated batching-pipeline counters (zero when batching is off or
    /// the stack ignores DeploymentSpec::batch).
    [[nodiscard]] virtual BatchStats batch_stats() const { return {}; }
    /// Signature verifications actually performed / answered from the verify
    /// memo. Zero for stacks without an authentication layer (NewTOP, the
    /// unauthenticated PBFT baseline); FS-NewTOP reports its KeyService.
    [[nodiscard]] virtual std::uint64_t crypto_verify_ops() const { return 0; }
    [[nodiscard]] virtual std::uint64_t crypto_verify_cache_hits() const { return 0; }
    /// Most verdicts the verify memo has held at once (zero without one).
    [[nodiscard]] virtual std::uint64_t crypto_memo_high_water() const { return 0; }

private:
    /// Lazily built default clock (a SimClock over sim()).
    std::optional<time::SimClock> default_clock_;
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
