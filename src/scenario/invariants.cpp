#include "scenario/invariants.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "app/kv_store.hpp"

namespace failsig::scenario {

namespace {

std::vector<int> correct_members(const Scenario& s) {
    const auto faulted = s.faulted_members();
    std::vector<int> out;
    for (int i = 0; i < s.group_size; ++i) {
        if (!faulted.contains(i)) out.push_back(i);
    }
    return out;
}

bool totally_ordered(const Scenario& s) {
    if (s.system == SystemKind::kPbft) return true;
    return s.workload.service == newtop::ServiceType::kSymmetricTotalOrder ||
           s.workload.service == newtop::ServiceType::kAsymmetricTotalOrder;
}

std::vector<std::uint32_t> initial_view(int n) {
    std::vector<std::uint32_t> v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i);
    return v;
}

std::vector<std::uint32_t> final_view(
    const std::vector<std::vector<std::vector<std::uint32_t>>>& views, int member, int n) {
    const auto& mine = views[static_cast<std::size_t>(member)];
    return mine.empty() ? initial_view(n) : mine.back();
}

bool has_partition(const Scenario& s) {
    return std::any_of(s.timeline.begin(), s.timeline.end(), [](const ScenarioEvent& e) {
        return e.kind == ScenarioEvent::Kind::kPartition;
    });
}

std::set<int> recovered_members(const Scenario& s) {
    std::set<int> out;
    for (const auto& e : s.timeline) {
        if (e.kind == ScenarioEvent::Kind::kRecoverMember) out.insert(e.member);
    }
    return out;
}

/// Parses one "key=<decimal>" token out of a KvStore::state_string detail
/// line ("applied=N digest=HEX checkpoints=..."); digest values are hex.
bool parse_state_field(const std::string& detail, const std::string& key, int base,
                       std::uint64_t& out) {
    const auto pos = detail.find(key + "=");
    if (pos == std::string::npos) return false;
    const char* begin = detail.c_str() + pos + key.size() + 1;
    char* end = nullptr;
    out = std::strtoull(begin, &end, base);
    return end != begin;
}

std::string view_to_string(const std::vector<std::uint32_t>& v) {
    std::string s = "{";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) s += ",";
        s += std::to_string(v[i]);
    }
    return s + "}";
}

// --- agreement -------------------------------------------------------------

class AgreementInvariant final : public Invariant {
public:
    [[nodiscard]] std::string name() const override { return "agreement"; }
    [[nodiscard]] bool applicable(const Scenario&) const override { return true; }

    [[nodiscard]] InvariantResult check(const Scenario& s, const Trace& t) const override {
        const auto deliveries = t.deliveries_by_member(s.group_size);
        const auto members = correct_members(s);
        if (totally_ordered(s)) {
            // Prefix agreement: any two correct members' delivery sequences
            // must agree on their common prefix (one may lag the other at
            // the instant the run was cut off).
            for (std::size_t a = 0; a < members.size(); ++a) {
                for (std::size_t b = a + 1; b < members.size(); ++b) {
                    const auto& da = deliveries[static_cast<std::size_t>(members[a])];
                    const auto& db = deliveries[static_cast<std::size_t>(members[b])];
                    const std::size_t common = std::min(da.size(), db.size());
                    for (std::size_t k = 0; k < common; ++k) {
                        if (da[k] != db[k]) {
                            return {name(), false,
                                    "members " + std::to_string(members[a]) + " and " +
                                        std::to_string(members[b]) + " disagree at position " +
                                        std::to_string(k) + " (" + da[k] + " vs " + db[k] + ")"};
                        }
                    }
                }
            }
            return {name(), true, {}};
        }
        // FIFO/causal/unreliable: per-sender sequence numbers must be
        // strictly increasing at every correct member.
        for (const int m : members) {
            std::map<std::string, std::uint64_t> last_seq;
            for (const auto& entry : deliveries[static_cast<std::size_t>(m)]) {
                const auto colon = entry.find(':');
                const std::string sender = entry.substr(0, colon);
                const std::uint64_t seq = std::stoull(entry.substr(colon + 1));
                const auto it = last_seq.find(sender);
                if (it != last_seq.end() && seq <= it->second) {
                    return {name(), false,
                            "member " + std::to_string(m) + " violated per-sender FIFO for sender " +
                                sender + " (seq " + std::to_string(seq) + " after " +
                                std::to_string(it->second) + ")"};
                }
                last_seq[sender] = seq;
            }
        }
        return {name(), true, {}};
    }
};

// --- validity ---------------------------------------------------------------

class ValidityInvariant final : public Invariant {
public:
    [[nodiscard]] std::string name() const override { return "validity"; }
    [[nodiscard]] bool applicable(const Scenario& s) const override { return s.fault_free(); }

    [[nodiscard]] InvariantResult check(const Scenario& s, const Trace& t) const override {
        std::set<std::string> sent;
        for (const auto& e : t.events()) {
            if (e.kind == TraceEvent::Kind::kSent) {
                sent.insert(std::to_string(e.sender) + ":" + std::to_string(e.seq));
            }
        }
        const auto deliveries = t.deliveries_by_member(s.group_size);
        for (int m = 0; m < s.group_size; ++m) {
            const auto& mine = deliveries[static_cast<std::size_t>(m)];
            const std::set<std::string> got(mine.begin(), mine.end());
            if (got.size() != mine.size()) {
                return {name(), false, "member " + std::to_string(m) + " delivered a duplicate"};
            }
            if (got != sent) {
                return {name(), false,
                        "member " + std::to_string(m) + " delivered " +
                            std::to_string(got.size()) + " of " + std::to_string(sent.size()) +
                            " sent messages"};
            }
        }
        return {name(), true, {}};
    }
};

// --- view convergence --------------------------------------------------------

class ViewConvergenceInvariant final : public Invariant {
public:
    [[nodiscard]] std::string name() const override { return "view-convergence"; }
    [[nodiscard]] bool applicable(const Scenario& s) const override {
        // PBFT has no group-membership views; partitions legitimately leave
        // disjoint sub-views behind.
        return s.system != SystemKind::kPbft && !has_partition(s);
    }

    [[nodiscard]] InvariantResult check(const Scenario& s, const Trace& t) const override {
        const auto views = t.views_by_member(s.group_size);
        const auto members = correct_members(s);
        if (members.empty()) return {name(), true, {}};
        const auto reference = final_view(views, members.front(), s.group_size);
        for (const int m : members) {
            const auto mine = final_view(views, m, s.group_size);
            if (mine != reference) {
                return {name(), false,
                        "member " + std::to_string(m) + " ended in view " + view_to_string(mine) +
                            " but member " + std::to_string(members.front()) + " ended in " +
                            view_to_string(reference)};
            }
        }
        return {name(), true, {}};
    }
};

// --- no delivery from excluded members ---------------------------------------

class NoDeliveryFromExcludedInvariant final : public Invariant {
public:
    [[nodiscard]] std::string name() const override { return "no-delivery-from-excluded"; }
    [[nodiscard]] bool applicable(const Scenario& s) const override {
        return s.system != SystemKind::kPbft;
    }

    [[nodiscard]] InvariantResult check(const Scenario& s, const Trace& t) const override {
        std::map<std::pair<std::uint32_t, std::uint64_t>, TimePoint> sent_at;
        for (const auto& e : t.events()) {
            if (e.kind == TraceEvent::Kind::kSent) sent_at[{e.sender, e.seq}] = e.at;
        }
        // Per observing member: the instant each sender was first excluded,
        // and — when the rejoin protocol re-admitted it into a later view —
        // the instant it was readmitted. Messages multicast inside the
        // [excluded, readmitted) window must never be delivered; messages
        // from a readmitted sender's fresh incarnation are legitimate again.
        std::vector<std::map<std::uint32_t, TimePoint>> excluded_at(
            static_cast<std::size_t>(s.group_size));
        std::vector<std::map<std::uint32_t, TimePoint>> readmitted_at(
            static_cast<std::size_t>(s.group_size));
        for (const auto& e : t.events()) {
            if (e.member < 0 || e.member >= s.group_size) continue;
            auto& excluded = excluded_at[static_cast<std::size_t>(e.member)];
            auto& readmitted = readmitted_at[static_cast<std::size_t>(e.member)];
            if (e.kind == TraceEvent::Kind::kViewInstalled) {
                for (int m = 0; m < s.group_size; ++m) {
                    const auto id = static_cast<std::uint32_t>(m);
                    const bool in_view = std::find(e.view_members.begin(), e.view_members.end(),
                                                   id) != e.view_members.end();
                    if (!in_view && !excluded.contains(id)) {
                        excluded[id] = e.at;
                    } else if (in_view && excluded.contains(id) && !readmitted.contains(id)) {
                        readmitted[id] = e.at;
                    }
                }
            } else if (e.kind == TraceEvent::Kind::kDelivered) {
                const auto ex = excluded.find(e.sender);
                if (ex == excluded.end()) continue;
                const auto sent = sent_at.find({e.sender, e.seq});
                if (sent == sent_at.end()) continue;
                const auto back = readmitted.find(e.sender);
                if (back != readmitted.end() && sent->second >= back->second) continue;
                if (sent->second > ex->second) {
                    return {name(), false,
                            "member " + std::to_string(e.member) + " delivered " +
                                std::to_string(e.sender) + ":" + std::to_string(e.seq) +
                                " multicast at t=" + std::to_string(sent->second) +
                                " after excluding its sender at t=" +
                                std::to_string(ex->second)};
                }
            }
        }
        return {name(), true, {}};
    }
};

// --- no false exclusion -------------------------------------------------------

class NoFalseExclusionInvariant final : public Invariant {
public:
    [[nodiscard]] std::string name() const override { return "no-false-exclusion"; }
    [[nodiscard]] bool applicable(const Scenario& s) const override {
        // With a real partition, excluding unreachable (yet healthy) members
        // is correct behaviour; without one, every exclusion must point at a
        // genuinely faulted member. PBFT has no membership views.
        return s.system != SystemKind::kPbft && !has_partition(s);
    }

    [[nodiscard]] InvariantResult check(const Scenario& s, const Trace& t) const override {
        const auto faulted = s.faulted_members();
        const auto views = t.views_by_member(s.group_size);
        for (const int observer : correct_members(s)) {
            for (const auto& view : views[static_cast<std::size_t>(observer)]) {
                for (int m = 0; m < s.group_size; ++m) {
                    const auto id = static_cast<std::uint32_t>(m);
                    const bool in_view =
                        std::find(view.begin(), view.end(), id) != view.end();
                    if (!in_view && !faulted.contains(m)) {
                        return {name(), false,
                                "member " + std::to_string(observer) +
                                    " excluded healthy member " + std::to_string(m) +
                                    " (view " + view_to_string(view) +
                                    "): a suspicion was false"};
                    }
                }
            }
        }
        return {name(), true, {}};
    }
};

// --- fail-signal implies actual fault ----------------------------------------

class FailSignalImpliesFaultInvariant final : public Invariant {
public:
    [[nodiscard]] std::string name() const override { return "fail-signal-implies-fault"; }
    [[nodiscard]] bool applicable(const Scenario& s) const override {
        return s.system == SystemKind::kFsNewTop;
    }

    [[nodiscard]] InvariantResult check(const Scenario& s, const Trace& t) const override {
        const auto faulted = s.faulted_members();
        for (const auto& e : t.events()) {
            if (e.kind != TraceEvent::Kind::kFailSignal &&
                e.kind != TraceEvent::Kind::kMiddlewareFailure) {
                continue;
            }
            if (!faulted.contains(e.member)) {
                return {name(), false,
                        "pair of healthy member " + std::to_string(e.member) +
                            " fail-signalled (" + e.detail + ")"};
            }
        }
        return {name(), true, {}};
    }
};

// --- rejoined state matches survivors ----------------------------------------

/// After a crash -> recover -> rejoin episode, the rejoined member's
/// replicated KV state (checkpoint transfer + committed suffix) must equal
/// every survivor's: same applied count, same chain digest. Evaluated over
/// the end-of-run kAppState records, which only recovery scenarios emit.
class RejoinedStateInvariant final : public Invariant {
public:
    [[nodiscard]] std::string name() const override {
        return "rejoined-state-matches-survivors";
    }
    [[nodiscard]] bool applicable(const Scenario& s) const override {
        return s.has_recovery() && totally_ordered(s);
    }

    [[nodiscard]] InvariantResult check(const Scenario& s, const Trace& t) const override {
        std::map<int, const TraceEvent*> state_of;
        for (const auto& e : t.events()) {
            if (e.kind == TraceEvent::Kind::kAppState) state_of[e.member] = &e;
        }
        std::set<int> compare(recovered_members(s));
        for (const int m : correct_members(s)) compare.insert(m);

        const TraceEvent* reference = nullptr;
        int reference_member = -1;
        for (const int m : compare) {
            const auto it = state_of.find(m);
            if (it == state_of.end()) {
                return {name(), false,
                        "member " + std::to_string(m) + " has no app state record " +
                            "(rejoin did not complete)"};
            }
            std::uint64_t applied = 0;
            std::uint64_t digest = 0;
            if (!parse_state_field(it->second->detail, "applied", 10, applied) ||
                !parse_state_field(it->second->detail, "digest", 16, digest)) {
                return {name(), false,
                        "member " + std::to_string(m) + " app state unparsable: " +
                            it->second->detail};
            }
            if (reference == nullptr) {
                reference = it->second;
                reference_member = m;
                continue;
            }
            std::uint64_t ref_applied = 0;
            std::uint64_t ref_digest = 0;
            parse_state_field(reference->detail, "applied", 10, ref_applied);
            parse_state_field(reference->detail, "digest", 16, ref_digest);
            if (applied != ref_applied || digest != ref_digest) {
                return {name(), false,
                        "member " + std::to_string(m) + " app state (" + it->second->detail +
                            ") diverges from member " + std::to_string(reference_member) +
                            " (" + reference->detail + ")"};
            }
        }
        return {name(), true, {}};
    }
};

// --- KV linearizability against the committed prefix -------------------------

/// A correct member's KV store must be exactly the fold of its own delivered
/// prefix: replaying the member's trace deliveries through a fresh KvStore
/// must land on the recorded (applied, digest) pair. This is the read-path
/// linearizability claim — reads serve the committed prefix, nothing more,
/// nothing less. Recovered members are exempt (their state legitimately
/// contains requests delivered while they were down, via the checkpoint
/// transfer); the rejoined-state checker covers them.
class KvLinearizabilityInvariant final : public Invariant {
public:
    [[nodiscard]] std::string name() const override { return "kv-linearizability"; }
    [[nodiscard]] bool applicable(const Scenario& s) const override {
        if (!s.has_recovery() || !totally_ordered(s)) return false;
        // Replay reconstructs payload bytes from the (sender, seq) tags and
        // the declared payload size; a load phase with a different payload
        // size would make sends indistinguishable.
        return std::all_of(s.timeline.begin(), s.timeline.end(), [&](const ScenarioEvent& e) {
            return e.kind != ScenarioEvent::Kind::kLoad ||
                   e.load_spec.payload == s.workload.payload_size;
        });
    }

    [[nodiscard]] InvariantResult check(const Scenario& s, const Trace& t) const override {
        std::map<int, const TraceEvent*> state_of;
        for (const auto& e : t.events()) {
            if (e.kind == TraceEvent::Kind::kAppState) state_of[e.member] = &e;
        }
        const auto recovered = recovered_members(s);
        for (const int m : correct_members(s)) {
            if (recovered.contains(m)) continue;
            const auto it = state_of.find(m);
            if (it == state_of.end()) continue;
            app::KvStore replay;
            for (const auto& e : t.events()) {
                if (e.kind != TraceEvent::Kind::kDelivered || e.member != m) continue;
                replay.apply(workload_payload(e.sender, static_cast<std::uint32_t>(e.seq),
                                              s.workload.payload_size));
            }
            std::uint64_t applied = 0;
            std::uint64_t digest = 0;
            if (!parse_state_field(it->second->detail, "applied", 10, applied) ||
                !parse_state_field(it->second->detail, "digest", 16, digest)) {
                return {name(), false,
                        "member " + std::to_string(m) + " app state unparsable: " +
                            it->second->detail};
            }
            if (replay.applied() != applied || replay.digest() != digest) {
                return {name(), false,
                        "member " + std::to_string(m) + " KV state (applied=" +
                            std::to_string(applied) + ") is not the fold of its delivered " +
                            "prefix (replay applied=" + std::to_string(replay.applied()) +
                            "): reads would not be linearizable"};
            }
        }
        return {name(), true, {}};
    }
};

}  // namespace

const std::vector<std::unique_ptr<Invariant>>& builtin_invariants() {
    static const auto* checkers = [] {
        auto* list = new std::vector<std::unique_ptr<Invariant>>();
        list->push_back(std::make_unique<AgreementInvariant>());
        list->push_back(std::make_unique<ValidityInvariant>());
        list->push_back(std::make_unique<ViewConvergenceInvariant>());
        list->push_back(std::make_unique<NoDeliveryFromExcludedInvariant>());
        list->push_back(std::make_unique<NoFalseExclusionInvariant>());
        list->push_back(std::make_unique<FailSignalImpliesFaultInvariant>());
        list->push_back(std::make_unique<RejoinedStateInvariant>());
        list->push_back(std::make_unique<KvLinearizabilityInvariant>());
        return list;
    }();
    return *checkers;
}

std::vector<InvariantResult> evaluate(const Scenario& scenario, const Trace& trace) {
    std::vector<const Invariant*> checkers;
    for (const auto& inv : builtin_invariants()) checkers.push_back(inv.get());
    return evaluate(scenario, trace, checkers);
}

std::vector<InvariantResult> evaluate(const Scenario& scenario, const Trace& trace,
                                      const std::vector<const Invariant*>& checkers) {
    std::vector<InvariantResult> results;
    for (const auto* checker : checkers) {
        if (checker->applicable(scenario)) results.push_back(checker->check(scenario, trace));
    }
    return results;
}

bool all_passed(const std::vector<InvariantResult>& results) {
    return std::all_of(results.begin(), results.end(),
                       [](const InvariantResult& r) { return r.passed; });
}

const InvariantResult* find_result(const std::vector<InvariantResult>& results,
                                   const std::string& name) {
    for (const auto& r : results) {
        if (r.name == name) return &r;
    }
    return nullptr;
}

}  // namespace failsig::scenario
