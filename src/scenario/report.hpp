// Report output for scenario runs and sweeps.
//
// One format for everything downstream: the scenario_runner example, the
// figure/ablation benches (--out), and future CI regression gates all emit
// the same JSON rendering of `ScenarioReport`s, so a result file is
// comparable no matter which binary produced it.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "scenario/runner.hpp"

namespace failsig::scenario {

/// Minimal JSON document builder (objects/arrays/fields); enough for the
/// report shapes here and the benches' custom tables without dragging in a
/// JSON library the container may not have.
class JsonWriter {
public:
    void begin_object();
    void end_object();
    void begin_array(const std::string& key = "");
    void end_array();
    void key(const std::string& k);
    void field(const std::string& k, const std::string& value);
    void field(const std::string& k, const char* value);
    void field(const std::string& k, double value);
    void field(const std::string& k, std::uint64_t value);
    void field(const std::string& k, std::int64_t value);
    void field(const std::string& k, int value);
    void field(const std::string& k, bool value);

    [[nodiscard]] std::string take();

private:
    void comma();
    void raw(const std::string& s);

    std::string out_;
    std::vector<bool> first_in_scope_{true};
    bool pending_key_{false};
};

/// Full machine-readable report: scenario spec summary, metrics, invariant
/// verdicts. The trace itself is summarised (event count), not inlined.
std::string to_json(const std::vector<ScenarioReport>& reports);

/// Writes `content` to `path`; returns false (and prints to stderr) on I/O
/// failure.
bool write_file(const std::string& path, const std::string& content);

/// Aggregated observability document ("failsig-metrics-doc-v1"): one entry
/// per run that collected metrics (reports without metrics_json are
/// skipped), each embedding its failsig-metrics-v1 snapshot verbatim.
/// Deterministic: entries follow report order, snapshots are sim-tick
/// stamped, so the document is byte-identical at any --jobs count.
std::string metrics_document(const std::vector<ScenarioReport>& reports);

/// Prints a one-line-per-report summary table to stdout.
void print_table(const std::vector<ScenarioReport>& reports);

}  // namespace failsig::scenario
