#include "explore/repro.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "common/parse.hpp"

namespace failsig::explore {

namespace {

using scenario::Scenario;
using scenario::ScenarioEvent;

std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool service_from(const std::string& name, newtop::ServiceType& out) {
    using newtop::ServiceType;
    for (const ServiceType service :
         {ServiceType::kSymmetricTotalOrder, ServiceType::kAsymmetricTotalOrder,
          ServiceType::kCausalOrder, ServiceType::kReliableMulticast,
          ServiceType::kUnreliableMulticast}) {
        if (name == newtop::name_of(service)) {
            out = service;
            return true;
        }
    }
    return false;
}

bool system_from(const std::string& name, scenario::SystemKind& out) {
    using scenario::SystemKind;
    for (const SystemKind kind :
         {SystemKind::kNewTop, SystemKind::kFsNewTop, SystemKind::kPbft}) {
        if (name == scenario::name_of(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

std::string event_line(const ScenarioEvent& e) {
    using Kind = ScenarioEvent::Kind;
    std::string s;
    const auto at = " at=" + std::to_string(e.at);
    switch (e.kind) {
        case Kind::kCrashMember:
            return "crash" + at + " member=" + std::to_string(e.member);
        case Kind::kFaultPlan: {
            const auto& p = e.fault_plan;
            s = "fault" + at + " member=" + std::to_string(e.member) +
                " node=" +
                (e.pair_node == scenario::PairNode::kLeader ? "leader" : "follower") +
                " corrupt=" + std::to_string(p.corrupt_outputs ? 1 : 0) +
                " drop=" + std::to_string(p.drop_outputs ? 1 : 0) +
                " misorder=" + std::to_string(p.misorder_inputs ? 1 : 0) +
                " spontaneous=" + std::to_string(p.spontaneous_fail_signals ? 1 : 0) +
                " spontaneous_interval_us=" + std::to_string(p.spontaneous_interval) +
                " delay_us=" + std::to_string(p.extra_processing_delay) +
                " probability=" + fmt_double(p.probability) +
                " active_from_us=" + std::to_string(p.active_from);
            return s;
        }
        case Kind::kDelaySurge:
            return "delay_surge" + at + " extra_us=" + std::to_string(e.surge_extra) +
                   " until_us=" + std::to_string(e.surge_until);
        case Kind::kPartition: {
            s = "partition" + at + " groups=";
            for (std::size_t g = 0; g < e.groups.size(); ++g) {
                if (g) s += "|";
                for (std::size_t i = 0; i < e.groups[g].size(); ++i) {
                    if (i) s += ",";
                    s += std::to_string(e.groups[g][i]);
                }
            }
            return s;
        }
        case Kind::kHealPartition:
            return "heal_partition" + at;
        case Kind::kDropProbability:
            return "drop" + at + " probability=" + fmt_double(e.drop_probability);
        case Kind::kBurst:
            return "burst" + at + " member=" + std::to_string(e.member) +
                   " messages=" + std::to_string(e.burst_messages);
        case Kind::kFireTimeouts:
            return "fire_timeouts" + at;
        case Kind::kLoad:
            return "load" + at + " rate=" + fmt_double(e.load_spec.rate) +
                   " duration_us=" + std::to_string(e.load_spec.duration) +
                   " payload=" + std::to_string(e.load_spec.payload);
        case Kind::kRecoverMember:
            return "recover" + at + " member=" + std::to_string(e.member);
    }
    return "?";
}

// --- parsing helpers --------------------------------------------------------

std::string trim(const std::string& s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) --e;
    return s.substr(b, e - b);
}

bool parse_bool(const std::string& s, bool& out) {
    if (s == "0") out = false;
    else if (s == "1") out = true;
    else return false;
    return true;
}

/// Splits "k1=v1 k2=v2 ..." into a map; returns false on malformed or
/// repeated tokens.
bool kv_pairs(const std::string& text, std::map<std::string, std::string>& out) {
    std::size_t pos = 0;
    while (pos < text.size()) {
        while (pos < text.size() && text[pos] == ' ') ++pos;
        if (pos >= text.size()) break;
        const std::size_t sp = text.find(' ', pos);
        const std::string token =
            text.substr(pos, sp == std::string::npos ? std::string::npos : sp - pos);
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0) return false;
        if (!out.emplace(token.substr(0, eq), token.substr(eq + 1)).second) return false;
        pos = sp == std::string::npos ? text.size() : sp + 1;
    }
    return true;
}

using Err = Result<ReproSpec>;

/// Takes a required field out of a parsed event's pairs, so whatever is
/// left once the event is read is a token its kind does not have.
bool take(std::map<std::string, std::string>& kv, const char* key, std::string& out) {
    const auto it = kv.find(key);
    if (it == kv.end()) return false;
    out = std::move(it->second);
    kv.erase(it);
    return true;
}

/// Reads an event of `kind` from its pairs, taking each field it reads.
bool parse_event_fields(const std::string& kind, std::map<std::string, std::string>& kv,
                        ScenarioEvent& e, std::string& error) {
    std::string v;
    const auto need_i64 = [&](const char* key, std::int64_t& out) {
        if (!take(kv, key, v) || !parse_i64(v, out)) {
            error = "event '" + kind + "': bad or missing " + key;
            return false;
        }
        return true;
    };
    // Fail loudly on out-of-range or sign-violating values instead of
    // truncating/wrapping into a silently different scenario (the codec's
    // whole contract). Every numeric event field is semantically
    // non-negative (times, durations, member indices, counts, sizes).
    const auto need_non_negative = [&](const char* key, std::int64_t& out) {
        if (!need_i64(key, out)) return false;
        if (out < 0) {
            error = "event '" + kind + "': " + key + " must be >= 0";
            return false;
        }
        return true;
    };
    const auto need_int = [&](const char* key, int& out) {
        std::int64_t wide = 0;
        if (!need_non_negative(key, wide)) return false;
        if (wide > INT32_MAX) {
            error = "event '" + kind + "': " + key + " out of range";
            return false;
        }
        out = static_cast<int>(wide);
        return true;
    };
    // A probability outside [0, 1] (or NaN) would be read by the fault
    // injector as "never" or "always" without a word.
    const auto need_probability = [&](const char* key, double& out) {
        if (!take(kv, key, v) || !parse_double(v, out)) {
            error = "event '" + kind + "': bad or missing " + key;
            return false;
        }
        if (!(out >= 0.0 && out <= 1.0)) {
            error = "event '" + kind + "': " + key + " must be in [0, 1]";
            return false;
        }
        return true;
    };
    const auto need_bool = [&](const char* key, bool& out) {
        if (!take(kv, key, v) || !parse_bool(v, out)) {
            error = "event '" + kind + "': bad or missing " + key;
            return false;
        }
        return true;
    };

    std::int64_t at = 0;
    if (!need_non_negative("at", at)) return false;

    if (kind == "crash") {
        int member = 0;
        if (!need_int("member", member)) return false;
        e = ScenarioEvent::crash(at, member);
        return true;
    }
    if (kind == "fault") {
        int member = 0;
        if (!need_int("member", member)) return false;
        if (!take(kv, "node", v) || (v != "leader" && v != "follower")) {
            error = "event 'fault': node must be leader|follower";
            return false;
        }
        const auto node = v == "leader" ? scenario::PairNode::kLeader
                                        : scenario::PairNode::kFollower;
        fs::FaultPlan plan;
        if (!need_bool("corrupt", plan.corrupt_outputs)) return false;
        if (!need_bool("drop", plan.drop_outputs)) return false;
        if (!need_bool("misorder", plan.misorder_inputs)) return false;
        if (!need_bool("spontaneous", plan.spontaneous_fail_signals)) return false;
        if (!need_non_negative("spontaneous_interval_us", plan.spontaneous_interval)) {
            return false;
        }
        if (!need_non_negative("delay_us", plan.extra_processing_delay)) return false;
        if (!need_probability("probability", plan.probability)) return false;
        if (!need_non_negative("active_from_us", plan.active_from)) return false;
        e = ScenarioEvent::fault(at, member, node, plan);
        return true;
    }
    if (kind == "delay_surge") {
        std::int64_t extra = 0;
        std::int64_t until = 0;
        if (!need_non_negative("extra_us", extra) || !need_non_negative("until_us", until)) {
            return false;
        }
        e = ScenarioEvent::delay_surge(at, extra, until);
        return true;
    }
    if (kind == "partition") {
        if (!take(kv, "groups", v)) {
            error = "event 'partition': missing groups";
            return false;
        }
        std::vector<std::vector<int>> groups(1);
        std::string num;
        for (const char c : v + "|") {
            if (c == ',' || c == '|') {
                // A '|' right after a delimiter closes an empty group (a
                // degenerate but serializable partition); an empty member
                // between commas is still an error.
                if (num.empty() && c == ',') {
                    error = "event 'partition': bad member ''";
                    return false;
                }
                if (!num.empty()) {
                    std::int64_t member = 0;
                    if (!parse_i64(num, member) || member < 0 || member > INT32_MAX) {
                        error = "event 'partition': bad member '" + num + "'";
                        return false;
                    }
                    groups.back().push_back(static_cast<int>(member));
                    num.clear();
                }
                if (c == '|') groups.emplace_back();
            } else {
                num += c;
            }
        }
        groups.pop_back();  // the sentinel '|' opened one empty group
        e = ScenarioEvent::partition(at, std::move(groups));
        return true;
    }
    if (kind == "heal_partition") {
        e = ScenarioEvent::heal_partition(at);
        return true;
    }
    if (kind == "drop") {
        double p = 0;
        if (!need_probability("probability", p)) return false;
        e = ScenarioEvent::drop(at, p);
        return true;
    }
    if (kind == "burst") {
        int member = 0;
        int messages = 0;
        if (!need_int("member", member) || !need_int("messages", messages)) return false;
        e = ScenarioEvent::burst(at, member, messages);
        return true;
    }
    if (kind == "fire_timeouts") {
        e = ScenarioEvent::fire_timeouts(at);
        return true;
    }
    if (kind == "recover") {
        int member = 0;
        if (!need_int("member", member)) return false;
        e = ScenarioEvent::recover(at, member);
        return true;
    }
    if (kind == "load") {
        scenario::LoadSpec spec;
        std::int64_t payload = 0;
        if (!take(kv, "rate", v) || !parse_double(v, spec.rate) || !std::isfinite(spec.rate) ||
            spec.rate <= 0) {
            error = "event 'load': rate must be a finite number > 0";
            return false;
        }
        if (!need_non_negative("duration_us", spec.duration) ||
            !need_non_negative("payload", payload)) {
            return false;
        }
        spec.payload = static_cast<std::size_t>(payload);
        e = ScenarioEvent::load(at, spec);
        return true;
    }
    error = "unknown event kind '" + kind + "'";
    return false;
}

bool parse_event(const std::string& body, ScenarioEvent& e, std::string& error) {
    const std::size_t sp = body.find(' ');
    const std::string kind = body.substr(0, sp);
    std::map<std::string, std::string> kv;
    if (sp != std::string::npos && !kv_pairs(body.substr(sp + 1), kv)) {
        error = "malformed event tokens: " + body;
        return false;
    }
    if (!parse_event_fields(kind, kv, e, error)) return false;
    if (!kv.empty()) {
        error = "event '" + kind + "': unknown token '" + kv.begin()->first + "'";
        return false;
    }
    return true;
}

}  // namespace

std::string to_spec(const Scenario& s, const std::string& expect_violation) {
    std::string out;
    out += "# failsig scenario spec — re-run with: explore_cli --replay <this file>\n";
    out += std::string("format = ") + kSpecFormat + "\n";
    out += "name = " + s.name + "\n";
    out += std::string("system = ") + scenario::name_of(s.system) + "\n";
    out += "group_size = " + std::to_string(s.group_size) + "\n";
    out += "seed = " + std::to_string(s.seed) + "\n";
    out += "tie_break_seed = " + std::to_string(s.tie_break_seed) + "\n";
    out += "threads_per_node = " + std::to_string(s.threads_per_node) + "\n";
    out += "deadline_us = " + std::to_string(s.deadline) + "\n";
    out += "settle_us = " + std::to_string(s.settle) + "\n";
    out += "msgs_per_member = " + std::to_string(s.workload.msgs_per_member) + "\n";
    out += "payload_size = " + std::to_string(s.workload.payload_size) + "\n";
    out += "send_interval_us = " + std::to_string(s.workload.send_interval) + "\n";
    out += std::string("service = ") + newtop::name_of(s.workload.service) + "\n";
    out += "batch_max_requests = " + std::to_string(s.batch.max_requests) + "\n";
    out += "batch_max_bytes = " + std::to_string(s.batch.max_bytes) + "\n";
    out += "batch_flush_after_us = " + std::to_string(s.batch.flush_after) + "\n";
    out += "start_suspectors = " + std::to_string(s.start_suspectors ? 1 : 0) + "\n";
    out += "suspector_ping_us = " + std::to_string(s.suspector.ping_interval) + "\n";
    out += "suspector_timeout_us = " + std::to_string(s.suspector.suspect_timeout) + "\n";
    out += std::string("placement = ") +
           (s.placement == fsnewtop::Placement::kFull ? "full" : "collocated") + "\n";
    // FS-NewTOP timing-bound parameters (fs::FsConfig): behavior-bearing, so
    // the spec must carry them — a reproducer replayed under different
    // δ/κ/σ bounds is a different scenario.
    out += "fs_delta_us = " + std::to_string(s.fs_config.delta) + "\n";
    out += "fs_kappa = " + fmt_double(s.fs_config.kappa) + "\n";
    out += "fs_sigma = " + fmt_double(s.fs_config.sigma) + "\n";
    out += "fs_t1_us = " + std::to_string(s.fs_config.t1) + "\n";
    out += "fs_t2_us = " + std::to_string(s.fs_config.t2) + "\n";
    out += "fs_compare_slack_us = " + std::to_string(s.fs_config.compare_slack) + "\n";
    out += "fs_order_link_mac = " + std::to_string(s.fs_config.order_link_mac ? 1 : 0) + "\n";
    // Written only when set: pre-recovery specs (and their byte-level
    // fixtures) never carried the key, and 0 is its documented default.
    if (s.checkpoint_interval != 0) {
        out += "checkpoint_interval = " + std::to_string(s.checkpoint_interval) + "\n";
    }
    if (!expect_violation.empty()) out += "expect_violation = " + expect_violation + "\n";
    for (const auto& e : s.timeline) out += "event = " + event_line(e) + "\n";
    return out;
}

Result<ReproSpec> parse_spec(const std::string& text) {
    ReproSpec spec;
    Scenario& s = spec.scenario;
    bool saw_format = false;
    std::set<std::string> seen_keys;  // every header key but `event` is set once
    std::size_t line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const std::string raw =
            text.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos);
        pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
        ++line_no;
        const std::string line = trim(raw);
        if (line.empty() || line[0] == '#') continue;

        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            return Err::err("spec line " + std::to_string(line_no) + ": expected key = value");
        }
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key != "event" && !seen_keys.insert(key).second) {
            return Err::err("spec line " + std::to_string(line_no) + ": repeated key '" + key +
                            "'");
        }
        const auto bad = [&](const char* what) {
            return Err::err("spec line " + std::to_string(line_no) + ": bad " +
                            std::string(what) + " '" + value + "'");
        };
        // Every duration and every FS timing factor is >= 0; a NaN factor
        // would reach an integer cast in the FS timers.
        const auto read_us = [&](Duration& out) { return parse_i64(value, out) && out >= 0; };
        const auto read_factor = [&](double& out) {
            return parse_double(value, out) && std::isfinite(out) && out >= 0;
        };

        std::uint64_t u64 = 0;
        std::int64_t i64 = 0;
        if (key == "format") {
            if (value != kSpecFormat) return bad("format (want failsig-scenario-spec-v1)");
            saw_format = true;
        } else if (key == "name") {
            s.name = value;
        } else if (key == "system") {
            if (!system_from(value, s.system)) return bad("system");
        } else if (key == "group_size") {
            if (!parse_i64(value, i64) || i64 < 1 || i64 > INT32_MAX) return bad("group_size");
            s.group_size = static_cast<int>(i64);
        } else if (key == "seed") {
            if (!parse_u64(value, u64)) return bad("seed");
            s.seed = u64;
        } else if (key == "tie_break_seed") {
            if (!parse_u64(value, u64)) return bad("tie_break_seed");
            s.tie_break_seed = u64;
        } else if (key == "threads_per_node") {
            if (!parse_i64(value, i64) || i64 < 1 || i64 > INT32_MAX) {
                return bad("threads_per_node");
            }
            s.threads_per_node = static_cast<int>(i64);
        } else if (key == "deadline_us") {
            if (!read_us(s.deadline)) return bad("deadline_us");
        } else if (key == "settle_us") {
            if (!read_us(s.settle)) return bad("settle_us");
        } else if (key == "msgs_per_member") {
            if (!parse_i64(value, i64) || i64 < 0 || i64 > INT32_MAX) {
                return bad("msgs_per_member");
            }
            s.workload.msgs_per_member = static_cast<int>(i64);
        } else if (key == "payload_size") {
            if (!parse_u64(value, u64)) return bad("payload_size");
            s.workload.payload_size = static_cast<std::size_t>(u64);
        } else if (key == "send_interval_us") {
            if (!read_us(s.workload.send_interval)) return bad("send_interval_us");
        } else if (key == "service") {
            if (!service_from(value, s.workload.service)) return bad("service");
        } else if (key == "batch_max_requests") {
            if (!parse_u64(value, u64)) return bad("batch_max_requests");
            s.batch.max_requests = static_cast<std::size_t>(u64);
        } else if (key == "batch_max_bytes") {
            if (!parse_u64(value, u64)) return bad("batch_max_bytes");
            s.batch.max_bytes = static_cast<std::size_t>(u64);
        } else if (key == "batch_flush_after_us") {
            if (!read_us(s.batch.flush_after)) return bad("batch_flush_after_us");
        } else if (key == "start_suspectors") {
            if (!parse_bool(value, s.start_suspectors)) return bad("start_suspectors");
        } else if (key == "suspector_ping_us") {
            if (!read_us(s.suspector.ping_interval)) return bad("suspector_ping_us");
        } else if (key == "suspector_timeout_us") {
            if (!read_us(s.suspector.suspect_timeout)) return bad("suspector_timeout_us");
        } else if (key == "placement") {
            if (value == "full") s.placement = fsnewtop::Placement::kFull;
            else if (value == "collocated") s.placement = fsnewtop::Placement::kCollocated;
            else return bad("placement (want full|collocated)");
        } else if (key == "fs_delta_us") {
            if (!read_us(s.fs_config.delta)) return bad("fs_delta_us");
        } else if (key == "fs_kappa") {
            if (!read_factor(s.fs_config.kappa)) return bad("fs_kappa");
        } else if (key == "fs_sigma") {
            if (!read_factor(s.fs_config.sigma)) return bad("fs_sigma");
        } else if (key == "fs_t1_us") {
            if (!read_us(s.fs_config.t1)) return bad("fs_t1_us");
        } else if (key == "fs_t2_us") {
            if (!read_us(s.fs_config.t2)) return bad("fs_t2_us");
        } else if (key == "fs_compare_slack_us") {
            if (!read_us(s.fs_config.compare_slack)) return bad("fs_compare_slack_us");
        } else if (key == "fs_order_link_mac") {
            if (!parse_bool(value, s.fs_config.order_link_mac)) {
                return bad("fs_order_link_mac");
            }
        } else if (key == "checkpoint_interval") {
            if (!parse_u64(value, u64)) return bad("checkpoint_interval");
            s.checkpoint_interval = u64;
        } else if (key == "expect_violation") {
            spec.expect_violation = value;
        } else if (key == "event") {
            scenario::ScenarioEvent e;
            std::string error;
            if (!parse_event(value, e, error)) {
                return Err::err("spec line " + std::to_string(line_no) + ": " + error);
            }
            s.timeline.push_back(std::move(e));
        } else {
            return Err::err("spec line " + std::to_string(line_no) + ": unknown key '" +
                            key + "'");
        }
    }
    if (!saw_format) return Err::err("spec: missing 'format = failsig-scenario-spec-v1'");
    return spec;
}

}  // namespace failsig::explore
