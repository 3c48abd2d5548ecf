#include "scenario/report.hpp"

#include <cinttypes>
#include <cstdio>

namespace failsig::scenario {

void JsonWriter::comma() {
    if (!first_in_scope_.back()) out_ += ",";
    first_in_scope_.back() = false;
}

void JsonWriter::raw(const std::string& s) { out_ += s; }

void JsonWriter::begin_object() {
    if (!pending_key_) comma();
    pending_key_ = false;
    raw("{");
    first_in_scope_.push_back(true);
}

void JsonWriter::end_object() {
    raw("}");
    first_in_scope_.pop_back();
}

void JsonWriter::begin_array(const std::string& k) {
    if (!k.empty()) key(k);
    if (!pending_key_) comma();
    pending_key_ = false;
    raw("[");
    first_in_scope_.push_back(true);
}

void JsonWriter::end_array() {
    raw("]");
    first_in_scope_.pop_back();
}

void JsonWriter::key(const std::string& k) {
    comma();
    raw("\"" + json_escape(k) + "\":");
    pending_key_ = true;
}

void JsonWriter::field(const std::string& k, const std::string& value) {
    key(k);
    pending_key_ = false;
    raw("\"" + json_escape(value) + "\"");
}

void JsonWriter::field(const std::string& k, const char* value) {
    field(k, std::string(value));
}

void JsonWriter::field(const std::string& k, double value) {
    key(k);
    pending_key_ = false;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    raw(buf);
}

void JsonWriter::field(const std::string& k, std::uint64_t value) {
    key(k);
    pending_key_ = false;
    raw(std::to_string(value));
}

void JsonWriter::field(const std::string& k, std::int64_t value) {
    key(k);
    pending_key_ = false;
    raw(std::to_string(value));
}

void JsonWriter::field(const std::string& k, int value) {
    field(k, static_cast<std::int64_t>(value));
}

void JsonWriter::field(const std::string& k, bool value) {
    key(k);
    pending_key_ = false;
    raw(value ? "true" : "false");
}

std::string JsonWriter::take() { return std::move(out_); }

namespace {

void write_report(JsonWriter& w, const ScenarioReport& report) {
    const Scenario& s = report.scenario;
    w.begin_object();
    w.field("scenario", s.name);
    w.field("system", name_of(s.system));
    w.field("group_size", s.group_size);
    w.field("seed", static_cast<std::uint64_t>(s.seed));
    // The seeds-axis coordinates; for sweep cells `seed` above is the
    // per-cell derived hash, so notebooks group/join on these instead of
    // parsing "/s<N>" out of the name.
    w.field("seed_axis", report.from_sweep ? report.seed_axis
                                           : static_cast<std::uint64_t>(s.seed));
    w.field("seed_index", report.from_sweep ? report.seed_index : std::uint64_t{0});
    w.field("status", report.skipped ? "skipped" : "ok");
    if (report.skipped) w.field("skip_reason", report.skip_reason);

    w.key("workload");
    w.begin_object();
    w.field("msgs_per_member", s.workload.msgs_per_member);
    w.field("payload_size", static_cast<std::uint64_t>(s.workload.payload_size));
    w.field("send_interval_us", static_cast<std::int64_t>(s.workload.send_interval));
    w.field("service", newtop::name_of(s.workload.service));
    w.field("batch_max_requests", static_cast<std::uint64_t>(s.batch.max_requests));
    w.end_object();

    w.begin_array("events");
    for (const auto& e : s.timeline) {
        w.begin_object();
        w.field("at_us", static_cast<std::int64_t>(e.at));
        w.field("event", e.describe());
        w.end_object();
    }
    w.end_array();

    const auto& m = report.metrics;
    w.key("metrics");
    w.begin_object();
    w.field("mean_latency_ms", m.mean_latency_ms);
    w.field("p95_latency_ms", m.p95_latency_ms);
    w.field("throughput_msg_s", m.throughput_msg_s);
    w.field("network_messages", m.network_messages);
    w.field("network_bytes", m.network_bytes);
    w.field("messages_sent", m.messages_sent);
    w.field("observed_deliveries", m.observed_deliveries);
    w.field("expected_deliveries", m.expected_deliveries);
    w.field("views_installed", m.views_installed);
    w.field("fail_signal_events", m.fail_signal_events);
    w.field("fail_signals", m.fail_signals);
    w.field("requests_submitted", m.requests_submitted);
    w.field("requests_batched", m.requests_batched);
    w.field("batches_formed", m.batches_formed);
    w.field("flushes_on_deadline", m.flushes_on_deadline);
    w.field("finished_at_us", static_cast<std::int64_t>(m.finished_at));
    w.end_object();

    w.begin_array("invariants");
    for (const auto& inv : report.invariants) {
        w.begin_object();
        w.field("name", inv.name);
        w.field("passed", inv.passed);
        if (!inv.detail.empty()) w.field("detail", inv.detail);
        w.end_object();
    }
    w.end_array();
    // Skipped cells never ran their checkers: omit the verdict rather than
    // let the vacuous empty-invariants "pass" inflate gate pass rates.
    if (!report.skipped) w.field("all_invariants_passed", report.all_invariants_passed());
    w.field("trace_events", static_cast<std::uint64_t>(report.trace.size()));
    w.end_object();
}

}  // namespace

std::string to_json(const std::vector<ScenarioReport>& reports) {
    JsonWriter w;
    w.begin_object();
    w.field("format", "failsig-scenario-report-v1");
    w.begin_array("reports");
    for (const auto& report : reports) write_report(w, report);
    w.end_array();
    w.end_object();
    return w.take() + "\n";
}

std::string metrics_document(const std::vector<ScenarioReport>& reports) {
    // Hand-assembled rather than JsonWriter-built: each per-run snapshot is
    // already a complete JSON object and must be embedded verbatim, byte for
    // byte, so the document stays diffable against single-run exports.
    std::string out = "{\n  \"format\": \"failsig-metrics-doc-v1\",\n  \"runs\": [";
    bool first = true;
    for (const auto& report : reports) {
        if (report.metrics_json.empty()) continue;
        if (!first) out += ",";
        first = false;
        out += "\n";
        out += report.metrics_json;
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

bool write_file(const std::string& path, const std::string& content) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "scenario: cannot open %s for writing\n", path.c_str());
        return false;
    }
    const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    if (written != content.size()) {
        std::fprintf(stderr, "scenario: short write to %s\n", path.c_str());
        return false;
    }
    return true;
}

void print_table(const std::vector<ScenarioReport>& reports) {
    std::printf("%-34s %-10s %4s %-10s %-10s %-11s %-6s %s\n", "scenario", "system", "n",
                "lat(ms)", "thru(m/s)", "deliveries", "fsig", "invariants");
    for (const auto& report : reports) {
        const auto& m = report.metrics;
        if (report.skipped) {
            std::printf("%-34s %-10s %4d %-10s %-10s %-11s %-6s skipped: %s\n",
                        report.scenario.name.c_str(), name_of(report.scenario.system),
                        report.scenario.group_size, "-", "-", "-", "-",
                        report.skip_reason.c_str());
            continue;
        }
        std::string verdict = report.all_invariants_passed() ? "all-pass" : "";
        if (verdict.empty()) {
            for (const auto& inv : report.invariants) {
                if (!inv.passed) {
                    if (!verdict.empty()) verdict += ",";
                    verdict += "FAIL:" + inv.name;
                }
            }
        }
        std::printf("%-34s %-10s %4d %-10.2f %-10.1f %5" PRIu64 "/%-5" PRIu64 " %-6s %s\n",
                    report.scenario.name.c_str(), name_of(report.scenario.system),
                    report.scenario.group_size, m.mean_latency_ms, m.throughput_msg_s,
                    m.observed_deliveries, m.expected_deliveries,
                    m.fail_signals ? "yes" : "no", verdict.c_str());
    }
}

}  // namespace failsig::scenario
