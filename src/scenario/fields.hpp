// One field walk per scenario spec.
//
// A scenario spec (explore/repro.hpp) states each header key and event token
// once, here: scenario_fields(io, s) visits a Scenario's header values and
// event_fields(io, e) one event's tokens, in spec order. The spec writer and
// reader (explore/repro.cpp) and RangeCheck below run the same walks, so a
// key, its format and its range cannot drift apart. Each primitive names a
// value's kind and range: text, flag (0/1), u64, choice (a Named table
// below), count (an int >= min), us (microseconds >= min), member (in
// [0, group_size)), groups (a partition's members), payload (bytes in
// [kMinPayload, kMaxPayload]), factor (finite, >= 0), probability (in
// [0, 1]) and rate (finite, > 0); present(set) says whether the next key is
// written, so a key written only when set keeps older specs byte-stable.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/scenario.hpp"

namespace failsig::scenario {

/// One value of an enum with its name in spec files. The names are the file
/// format, apart from report labels (name_of), so relabelling a report
/// cannot break a checked-in spec.
template <typename E>
struct Named {
    E value;
    const char* name;
};

inline constexpr Named<SystemKind> kSystemNames[] = {
    {SystemKind::kNewTop, "NewTOP"}, {SystemKind::kFsNewTop, "FS-NewTOP"},
    {SystemKind::kPbft, "PBFT"}};

inline constexpr Named<newtop::ServiceType> kServiceNames[] = {
    {newtop::ServiceType::kSymmetricTotalOrder, "symmetric"},
    {newtop::ServiceType::kAsymmetricTotalOrder, "asymmetric"},
    {newtop::ServiceType::kCausalOrder, "causal"},
    {newtop::ServiceType::kReliableMulticast, "reliable"},
    {newtop::ServiceType::kUnreliableMulticast, "unreliable"}};

inline constexpr Named<fsnewtop::Placement> kPlacementNames[] = {
    {fsnewtop::Placement::kFull, "full"}, {fsnewtop::Placement::kCollocated, "collocated"}};

inline constexpr Named<PairNode> kPairNodeNames[] = {{PairNode::kLeader, "leader"},
                                                     {PairNode::kFollower, "follower"}};

using EventKind = ScenarioEvent::Kind;
inline constexpr Named<EventKind> kEventNames[] = {
    {EventKind::kCrashMember, "crash"},        {EventKind::kFaultPlan, "fault"},
    {EventKind::kDelaySurge, "delay_surge"},   {EventKind::kPartition, "partition"},
    {EventKind::kHealPartition, "heal_partition"}, {EventKind::kDropProbability, "drop"},
    {EventKind::kBurst, "burst"},              {EventKind::kFireTimeouts, "fire_timeouts"},
    {EventKind::kLoad, "load"},                {EventKind::kRecoverMember, "recover"}};

/// The name of `value` in `names` ("?" when the table lacks it).
template <typename E, typename Names>
const char* name_in(const Names& names, E value) {
    for (const auto& n : names) {
        if (n.value == value) return n.name;
    }
    return "?";
}

/// Sets `value` to the entry of `names` called `name`; false when none is.
template <typename E, typename Names>
bool value_in(const Names& names, std::string_view name, E& value) {
    for (const auto& n : names) {
        if (name == n.name) {
            value = n.value;
            return true;
        }
    }
    return false;
}

/// The header keys, in spec order.
template <typename IO, typename S>
void scenario_fields(IO& io, S& s) {
    io.text("name", s.name);
    io.choice("system", s.system, kSystemNames);
    io.count("group_size", s.group_size, 1);
    io.u64("seed", s.seed);
    io.u64("tie_break_seed", s.tie_break_seed);
    io.count("threads_per_node", s.threads_per_node, 1);
    io.us("deadline_us", s.deadline);
    io.us("settle_us", s.settle);
    io.count("msgs_per_member", s.workload.msgs_per_member, 0);
    io.payload("payload_size", s.workload.payload_size);
    io.us("send_interval_us", s.workload.send_interval);
    io.choice("service", s.workload.service, kServiceNames);
    io.u64("batch_max_requests", s.batch.max_requests);
    io.u64("batch_max_bytes", s.batch.max_bytes);
    io.us("batch_flush_after_us", s.batch.flush_after);
    io.flag("start_suspectors", s.start_suspectors);
    // Running suspectors that ping every 0 us never let simulated time pass.
    io.us("suspector_ping_us", s.suspector.ping_interval, s.start_suspectors ? 1 : 0);
    io.us("suspector_timeout_us", s.suspector.suspect_timeout);
    io.choice("placement", s.placement, kPlacementNames);
    // FS-NewTOP timing bounds (fs::FsConfig) bear on behaviour: a reproducer
    // replayed under different δ/κ/σ is a different scenario. Assumption A2
    // needs δ > 0.
    io.us("fs_delta_us", s.fs_config.delta, 1);
    io.factor("fs_kappa", s.fs_config.kappa);
    io.factor("fs_sigma", s.fs_config.sigma);
    io.us("fs_t1_us", s.fs_config.t1);
    io.us("fs_t2_us", s.fs_config.t2);
    io.us("fs_compare_slack_us", s.fs_config.compare_slack);
    io.flag("fs_order_link_mac", s.fs_config.order_link_mac);
    // Written only when set: specs from before recovery never carried it.
    if (io.present(s.checkpoint_interval != 0)) {
        io.u64("checkpoint_interval", s.checkpoint_interval);
    }
}

/// One event's tokens after its kind, in spec order.
template <typename IO, typename E>
void event_fields(IO& io, E& e) {
    io.us("at", e.at);
    switch (e.kind) {
        case EventKind::kCrashMember:
        case EventKind::kRecoverMember:
            io.member("member", e.member);
            break;
        case EventKind::kFaultPlan: {
            auto& p = e.fault_plan;
            io.member("member", e.member);
            io.choice("node", e.pair_node, kPairNodeNames);
            io.flag("corrupt", p.corrupt_outputs);
            io.flag("drop", p.drop_outputs);
            io.flag("misorder", p.misorder_inputs);
            io.flag("spontaneous", p.spontaneous_fail_signals);
            io.us("spontaneous_interval_us", p.spontaneous_interval);
            io.us("delay_us", p.extra_processing_delay);
            io.probability("probability", p.probability);
            io.us("active_from_us", p.active_from);
            break;
        }
        case EventKind::kDelaySurge:
            io.us("extra_us", e.surge_extra);
            io.us("until_us", e.surge_until);
            break;
        case EventKind::kPartition:
            io.groups("groups", e.groups);
            break;
        case EventKind::kHealPartition:
        case EventKind::kFireTimeouts:
            break;
        case EventKind::kDropProbability:
            io.probability("probability", e.drop_probability);
            break;
        case EventKind::kBurst:
            io.member("member", e.member);
            io.count("messages", e.burst_messages, 0);
            break;
        case EventKind::kLoad:
            io.rate("rate", e.load_spec.rate);
            io.us("duration_us", e.load_spec.duration, 1);
            io.payload("payload", e.load_spec.payload);
            break;
    }
}

/// The range visitor: keeps the first value outside its range, and
/// allocates nothing while every value is in range.
class RangeCheck {
public:
    explicit RangeCheck(int group_size) : group_size_(group_size) {}

    void text(const char*, const std::string&) {}
    void flag(const char*, bool) {}
    template <typename E, typename Names>
    void choice(const char*, E, const Names&) {}
    void u64(const char*, std::uint64_t) {}
    void count(const char* k, int v, int min) { at_least(k, v, min); }
    void us(const char* k, Duration v, Duration min = 0) { at_least(k, v, min); }
    void member(const char* k, int v) {
        if (v < 0 || v >= group_size_) fail(k, "in [0, " + std::to_string(group_size_) + ")");
    }
    void groups(const char* k, const std::vector<std::vector<int>>& v) {
        for (const auto& group : v) {
            for (const int m : group) member(k, m);
        }
    }
    void payload(const char* k, std::size_t v) {
        if (v < kMinPayload || v > kMaxPayload) {
            fail(k, "in [" + std::to_string(kMinPayload) + ", " + std::to_string(kMaxPayload) +
                        "]");
        }
    }
    void factor(const char* k, double v) {
        if (!(std::isfinite(v) && v >= 0)) fail(k, "finite and >= 0");
    }
    void probability(const char* k, double v) {
        if (!(v >= 0 && v <= 1)) fail(k, "in [0, 1]");
    }
    void rate(const char* k, double v) {
        if (!(std::isfinite(v) && v > 0)) fail(k, "finite and > 0");
    }
    bool present(bool) { return true; }

    /// Key of the first value out of range (nullptr = none), and
    /// "<key> must be ...".
    const char* key{nullptr};
    std::string error;

private:
    void at_least(const char* k, std::int64_t v, std::int64_t min) {
        if (v < min) fail(k, ">= " + std::to_string(min));
    }
    void fail(const char* k, const std::string& want) {
        if (key != nullptr) return;
        key = k;
        error = std::string(k) + " must be " + want;
    }

    int group_size_;
};

}  // namespace failsig::scenario
