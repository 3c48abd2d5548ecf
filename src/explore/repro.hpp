// Scenario spec files: the explorer's reproducer currency.
//
// A minimal failing scenario found by the explorer is only useful if it can
// leave the process that found it. `to_spec` renders a scenario::Scenario
// (plus the invariant it violates) as a small, stable, line-oriented text
// file; `parse_spec` turns that file back into a runnable Scenario. Because
// a run is a pure function of its Scenario, shipping the spec ships the
// bug: `explore_cli --replay file.scenario` re-runs it to the identical
// trace and the identical invariant verdicts on any machine. The format is
// deliberately dumb — `key = value` lines and one `event = ...` line per
// timeline entry — so reproducers are hand-editable and diff-friendly, and
// round-trip byte-identically (to_spec(parse_spec(x)) == x). Each key and
// token, its format and its range are stated once, in scenario/fields.hpp.
#pragma once

#include <string>

#include "common/result.hpp"
#include "scenario/scenario.hpp"

namespace failsig::explore {

inline constexpr const char* kSpecFormat = "failsig-scenario-spec-v1";

/// A parsed spec: the scenario plus the explorer's recorded expectation.
struct ReproSpec {
    scenario::Scenario scenario;
    /// Name of the invariant this reproducer violates; empty when the spec
    /// is a plain scenario file with no recorded expectation.
    std::string expect_violation;
};

/// Renders a scenario (and optional expected violation) as spec text.
/// Field order is fixed, numbers are canonical, and the timeline appears in
/// its stored order — the output is a pure function of the inputs.
std::string to_spec(const scenario::Scenario& scenario,
                    const std::string& expect_violation = "");

/// Parses spec text. Unknown or repeated keys, malformed events, missing
/// event tokens and values outside their range (scenario::RangeCheck) are
/// errors naming the line, never best-effort guesses, so a typo in a
/// hand-edited reproducer fails loudly instead of silently running a
/// different scenario or crashing the run.
Result<ReproSpec> parse_spec(const std::string& text);

}  // namespace failsig::explore
