// Delta-debugging trace shrinker.
//
// When the explorer finds a schedule/fault script that violates an
// invariant, the raw episode is rarely the story: most of its events are
// incidental. `shrink` minimizes a failing Scenario while preserving the
// *same* invariant violation, with the run itself as the oracle (runs are
// pure functions of the Scenario, so the oracle is deterministic):
//
//   1. drop the schedule perturbation (tie_break_seed = 0) if the failure
//      survives the default FIFO schedule;
//   2. remove timeline events one at a time to a fixpoint — the result is
//      1-minimal: removing ANY remaining event makes the violation vanish
//      (a crash is removed together with the same member's next recover,
//      so a shrunk timeline never recovers a live member);
//   3. simplify surviving events field-by-field (clear fault-plan flags,
//      zero extra delays, shrink burst sizes, force probability to 1);
//   4. shrink the background workload (fewer messages per member).
//
// Greedy one-at-a-time removal (not the classic logarithmic ddmin splits)
// is deliberate: episode timelines are small (grammar-budgeted), so the
// oracle-call count stays low and the fixpoint guarantees 1-minimality,
// which is the property tests and reproducer consumers actually rely on.
#pragma once

#include <string>
#include <vector>

#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"

namespace failsig::explore {

struct ShrinkResult {
    /// The minimized scenario: still violates `invariant`, and removing any
    /// remaining timeline event makes it pass.
    scenario::Scenario minimal;
    /// Invariant verdicts of the minimal scenario's run.
    std::vector<scenario::InvariantResult> invariants;
    /// Canonical trace of the minimal scenario's run (the evidence).
    std::string trace;
    /// Oracle invocations spent (diagnostic; reported, not bounded).
    int oracle_runs{0};
};

/// Runs `s` and evaluates `checkers` (empty = the builtin invariant set)
/// over its trace. A ScenarioRejected run yields an empty result vector —
/// callers treat "cannot run" as "does not fail".
std::vector<scenario::InvariantResult> run_and_evaluate(
    const scenario::Scenario& s, const std::vector<const scenario::Invariant*>& checkers,
    std::string* trace_out = nullptr);

/// True when the named invariant fails on `s` under `checkers`.
bool still_fails(const scenario::Scenario& s, const std::string& invariant,
                 const std::vector<const scenario::Invariant*>& checkers,
                 int* oracle_runs = nullptr);

/// Minimizes `failing`, preserving the failure of `invariant`. Precondition:
/// `still_fails(failing, invariant, checkers)` — callers pass a scenario the
/// explorer just saw fail.
ShrinkResult shrink(const scenario::Scenario& failing, const std::string& invariant,
                    const std::vector<const scenario::Invariant*>& checkers);

}  // namespace failsig::explore
