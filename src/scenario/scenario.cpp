#include "scenario/scenario.hpp"

#include <algorithm>

#include "scenario/fields.hpp"

namespace failsig::scenario {

Bytes workload_payload(std::uint32_t sender, std::uint32_t seq, std::size_t size) {
    ByteWriter w;
    w.u32(sender);
    w.u32(seq);
    Bytes out = w.take();
    out.resize(size, 0x5a);
    return out;
}

ScenarioEvent ScenarioEvent::crash(TimePoint at, int member) {
    ScenarioEvent e;
    e.kind = Kind::kCrashMember;
    e.at = at;
    e.member = member;
    return e;
}

ScenarioEvent ScenarioEvent::recover(TimePoint at, int member) {
    ScenarioEvent e;
    e.kind = Kind::kRecoverMember;
    e.at = at;
    e.member = member;
    return e;
}

ScenarioEvent ScenarioEvent::fault(TimePoint at, int member, PairNode node,
                                   const fs::FaultPlan& plan) {
    ScenarioEvent e;
    e.kind = Kind::kFaultPlan;
    e.at = at;
    e.member = member;
    e.pair_node = node;
    e.fault_plan = plan;
    return e;
}

ScenarioEvent ScenarioEvent::delay_surge(TimePoint at, Duration extra, TimePoint until) {
    ScenarioEvent e;
    e.kind = Kind::kDelaySurge;
    e.at = at;
    e.surge_extra = extra;
    e.surge_until = until;
    return e;
}

ScenarioEvent ScenarioEvent::partition(TimePoint at, std::vector<std::vector<int>> groups) {
    ScenarioEvent e;
    e.kind = Kind::kPartition;
    e.at = at;
    e.groups = std::move(groups);
    return e;
}

ScenarioEvent ScenarioEvent::heal_partition(TimePoint at) {
    ScenarioEvent e;
    e.kind = Kind::kHealPartition;
    e.at = at;
    return e;
}

ScenarioEvent ScenarioEvent::drop(TimePoint at, double probability) {
    ScenarioEvent e;
    e.kind = Kind::kDropProbability;
    e.at = at;
    e.drop_probability = probability;
    return e;
}

ScenarioEvent ScenarioEvent::burst(TimePoint at, int member, int messages) {
    ScenarioEvent e;
    e.kind = Kind::kBurst;
    e.at = at;
    e.member = member;
    e.burst_messages = messages;
    return e;
}

ScenarioEvent ScenarioEvent::fire_timeouts(TimePoint at) {
    ScenarioEvent e;
    e.kind = Kind::kFireTimeouts;
    e.at = at;
    return e;
}

ScenarioEvent ScenarioEvent::load(TimePoint at, LoadSpec spec) {
    ScenarioEvent e;
    e.kind = Kind::kLoad;
    e.at = at;
    e.load_spec = spec;
    return e;
}

namespace {

std::string describe_fault_plan(const fs::FaultPlan& plan) {
    std::string s;
    if (plan.corrupt_outputs) s += " corrupt";
    if (plan.drop_outputs) s += " drop";
    if (plan.misorder_inputs) s += " misorder";
    if (plan.spontaneous_fail_signals) s += " spontaneous";
    if (plan.extra_processing_delay > 0) {
        s += " slow+" + std::to_string(plan.extra_processing_delay) + "us";
    }
    if (plan.probability != 1.0) s += " p=" + std::to_string(plan.probability);
    if (plan.active_from > 0) s += " from=" + std::to_string(plan.active_from);
    return s.empty() ? " benign" : s;
}

}  // namespace

std::string ScenarioEvent::describe() const {
    switch (kind) {
        case Kind::kCrashMember:
            return "crash member=" + std::to_string(member);
        case Kind::kFaultPlan:
            return "fault member=" + std::to_string(member) +
                   (pair_node == PairNode::kLeader ? " node=leader" : " node=follower") +
                   describe_fault_plan(fault_plan);
        case Kind::kDelaySurge:
            return "delay_surge extra=" + std::to_string(surge_extra) +
                   "us until=" + std::to_string(surge_until);
        case Kind::kPartition: {
            std::string s = "partition";
            for (const auto& g : groups) {
                s += " {";
                for (std::size_t i = 0; i < g.size(); ++i) {
                    if (i) s += ",";
                    s += std::to_string(g[i]);
                }
                s += "}";
            }
            return s;
        }
        case Kind::kHealPartition:
            return "heal_partition";
        case Kind::kDropProbability:
            return "drop p=" + std::to_string(drop_probability);
        case Kind::kBurst:
            return "burst member=" + std::to_string(member) +
                   " messages=" + std::to_string(burst_messages);
        case Kind::kFireTimeouts:
            return "fire_timeouts";
        case Kind::kLoad:
            return "load rate=" + std::to_string(load_spec.rate) +
                   "/s duration=" + std::to_string(load_spec.duration) +
                   "us payload=" + std::to_string(load_spec.payload);
        case Kind::kRecoverMember:
            return "recover member=" + std::to_string(member);
    }
    return "?";
}

std::set<int> Scenario::faulted_members() const {
    std::set<int> out;
    for (const auto& e : timeline) {
        if (e.is_member_fault()) out.insert(e.member);
    }
    return out;
}

bool Scenario::fault_free() const {
    if (start_suspectors) return false;  // false suspicions can split groups
    for (const auto& e : timeline) {
        switch (e.kind) {
            case ScenarioEvent::Kind::kCrashMember:
            case ScenarioEvent::Kind::kFaultPlan:
            case ScenarioEvent::Kind::kPartition:
            case ScenarioEvent::Kind::kDropProbability:
            // Spuriously fired liveness timers force a PBFT view change; the
            // baseline has no client retransmission, so requests that were
            // assigned but not yet prepared can be lost with the old
            // primary's backlog. Validity is only claimed on undisturbed
            // runs (the schedule-space explorer found this: a lone
            // fire_timeouts event under load violates validity).
            case ScenarioEvent::Kind::kFireTimeouts:
            // A rejoin always follows a disruption (and the rejoin handshake
            // itself installs views); validity is not claimed across it.
            case ScenarioEvent::Kind::kRecoverMember:
                return false;
            default:
                break;
        }
    }
    return true;
}

bool Scenario::has_perpetual_activity() const {
    if (start_suspectors) return true;
    return std::any_of(timeline.begin(), timeline.end(), [](const ScenarioEvent& e) {
        return e.kind == ScenarioEvent::Kind::kFaultPlan &&
               e.fault_plan.spontaneous_fail_signals;
    });
}

bool Scenario::has_recovery() const {
    return std::any_of(timeline.begin(), timeline.end(), [](const ScenarioEvent& e) {
        return e.kind == ScenarioEvent::Kind::kRecoverMember;
    });
}

TimePoint Scenario::workload_end() const {
    TimePoint end = static_cast<TimePoint>(workload.msgs_per_member) * workload.send_interval;
    for (const auto& e : timeline) {
        if (e.kind == ScenarioEvent::Kind::kBurst) end = std::max(end, e.at);
        if (e.kind == ScenarioEvent::Kind::kDelaySurge) end = std::max(end, e.surge_until);
        if (e.kind == ScenarioEvent::Kind::kLoad) {
            end = std::max(end, e.at + e.load_spec.duration);
        }
    }
    return end;
}

std::string Scenario::invalid() const {
    RangeCheck check(group_size);
    scenario_fields(check, *this);
    for (std::size_t i = 0; check.key == nullptr && i < timeline.size(); ++i) {
        event_fields(check, timeline[i]);
        if (check.key != nullptr) {
            return "event " + std::to_string(i) + " (" + name_in(kEventNames, timeline[i].kind) +
                   "): " + check.error;
        }
    }
    return check.error;
}

}  // namespace failsig::scenario
