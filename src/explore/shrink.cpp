#include "explore/shrink.hpp"

#include <algorithm>
#include <utility>

#include "scenario/runner.hpp"

namespace failsig::explore {

namespace {

using scenario::Invariant;
using scenario::InvariantResult;
using scenario::Scenario;
using scenario::ScenarioEvent;

}  // namespace

std::vector<InvariantResult> run_and_evaluate(const Scenario& s,
                                              const std::vector<const Invariant*>& checkers,
                                              std::string* trace_out) {
    try {
        const auto report = scenario::run_scenario(s);
        if (trace_out != nullptr) *trace_out = report.trace.canonical();
        if (checkers.empty()) return report.invariants;
        return scenario::evaluate(report.scenario, report.trace, checkers);
    } catch (const scenario::ScenarioRejected&) {
        // A shrink candidate the deployment cannot express (e.g. only the
        // placement-changing context was removed): not a failure.
        if (trace_out != nullptr) trace_out->clear();
        return {};
    }
}

bool still_fails(const Scenario& s, const std::string& invariant,
                 const std::vector<const Invariant*>& checkers, int* oracle_runs) {
    if (oracle_runs != nullptr) ++*oracle_runs;
    const auto results = run_and_evaluate(s, checkers);
    const auto* verdict = scenario::find_result(results, invariant);
    return verdict != nullptr && !verdict->passed;
}

namespace {

/// Applies `mutate` to a copy of `current`; keeps the copy when the failure
/// survives. Returns true when the candidate was accepted.
template <typename Fn>
bool try_step(Scenario& current, const std::string& invariant,
              const std::vector<const Invariant*>& checkers, int& runs, Fn mutate) {
    Scenario candidate = current;
    mutate(candidate);
    if (!still_fails(candidate, invariant, checkers, &runs)) return false;
    current = std::move(candidate);
    return true;
}

/// Erases timeline event `i`. A crash takes the same member's next recover
/// with it: a recover of a live member is an arc no grammar draws.
void erase_event(Scenario& s, std::size_t i) {
    const auto at = s.timeline.begin() + static_cast<std::ptrdiff_t>(i);
    if (at->kind == ScenarioEvent::Kind::kCrashMember) {
        const auto recover = std::find_if(at + 1, s.timeline.end(), [&](const ScenarioEvent& e) {
            return e.kind == ScenarioEvent::Kind::kRecoverMember && e.member == at->member;
        });
        if (recover != s.timeline.end()) s.timeline.erase(recover);
    }
    s.timeline.erase(s.timeline.begin() + static_cast<std::ptrdiff_t>(i));
}

/// Phase 2: event removal to a fixpoint. After this returns, removing any
/// single remaining event (a crash together with its recover) makes the
/// violation vanish (1-minimality).
void remove_events(Scenario& current, const std::string& invariant,
                   const std::vector<const Invariant*>& checkers, int& runs) {
    bool removed = true;
    while (removed) {
        removed = false;
        for (std::size_t i = 0; i < current.timeline.size(); ++i) {
            if (try_step(current, invariant, checkers, runs,
                         [i](Scenario& c) { erase_event(c, i); })) {
                removed = true;
                break;  // indices shifted; rescan from the front
            }
        }
    }
}

/// Phase 3: simplify surviving events field-by-field. Each accepted step
/// strictly reduces the event's "surface" (fewer flags, smaller numbers),
/// so the loop terminates.
void simplify_events(Scenario& current, const std::string& invariant,
                     const std::vector<const Invariant*>& checkers, int& runs) {
    for (std::size_t i = 0; i < current.timeline.size(); ++i) {
        // NOTE: an accepted try_step replaces `current` wholesale, so the
        // event must be re-read through the index after every attempt —
        // holding a reference across attempts is a use-after-free (ASan
        // caught exactly that in an earlier version of this loop).
        const auto kind = current.timeline[i].kind;
        if (kind == ScenarioEvent::Kind::kFaultPlan) {
            const auto plan = [&]() -> const fs::FaultPlan& {
                return current.timeline[i].fault_plan;
            };
            const auto clear = [&](auto field) {
                try_step(current, invariant, checkers, runs,
                         [i, field](Scenario& c) { field(c.timeline[i].fault_plan); });
            };
            if (plan().corrupt_outputs) {
                clear([](fs::FaultPlan& p) { p.corrupt_outputs = false; });
            }
            if (plan().drop_outputs) {
                clear([](fs::FaultPlan& p) { p.drop_outputs = false; });
            }
            if (plan().misorder_inputs) {
                clear([](fs::FaultPlan& p) { p.misorder_inputs = false; });
            }
            if (plan().spontaneous_fail_signals) {
                clear([](fs::FaultPlan& p) { p.spontaneous_fail_signals = false; });
            }
            if (plan().extra_processing_delay > 0) {
                clear([](fs::FaultPlan& p) { p.extra_processing_delay = 0; });
            }
            if (plan().probability != 1.0) {
                clear([](fs::FaultPlan& p) { p.probability = 1.0; });
            }
        } else if (kind == ScenarioEvent::Kind::kBurst) {
            while (current.timeline[i].burst_messages > 1 &&
                   try_step(current, invariant, checkers, runs, [i](Scenario& c) {
                       c.timeline[i].burst_messages /= 2;
                   })) {
            }
        }
    }
}

/// Phase 4: shrink the background workload — try none at all, then halve to
/// a local minimum.
void shrink_workload(Scenario& current, const std::string& invariant,
                     const std::vector<const Invariant*>& checkers, int& runs) {
    if (current.workload.msgs_per_member == 0) return;
    if (try_step(current, invariant, checkers, runs,
                 [](Scenario& c) { c.workload.msgs_per_member = 0; })) {
        return;
    }
    while (current.workload.msgs_per_member > 1 &&
           try_step(current, invariant, checkers, runs, [](Scenario& c) {
               c.workload.msgs_per_member /= 2;
           })) {
    }
}

}  // namespace

ShrinkResult shrink(const Scenario& failing, const std::string& invariant,
                    const std::vector<const Invariant*>& checkers) {
    ShrinkResult result;
    Scenario current = failing;
    int runs = 0;

    // Phase 1: prefer the default FIFO schedule — a reproducer that fails
    // without the perturbation is strictly easier to reason about.
    if (current.tie_break_seed != 0) {
        try_step(current, invariant, checkers, runs,
                 [](Scenario& c) { c.tie_break_seed = 0; });
    }
    remove_events(current, invariant, checkers, runs);
    simplify_events(current, invariant, checkers, runs);
    shrink_workload(current, invariant, checkers, runs);
    // Workload shrinking can make previously load-bearing events redundant
    // (e.g. a burst that only mattered under full traffic); re-run removal
    // so the final scenario is 1-minimal again.
    remove_events(current, invariant, checkers, runs);

    result.minimal = std::move(current);
    result.invariants = run_and_evaluate(result.minimal, checkers, &result.trace);
    result.oracle_runs = runs + 1;
    return result;
}

}  // namespace failsig::explore
