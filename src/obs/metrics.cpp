#include "obs/metrics.hpp"

#include <bit>

#include "common/json.hpp"

namespace failsig::obs {

std::size_t Histogram::index_of(std::uint64_t sample) {
    // sample >= 1. Values 1..3 map to indices 1..3; from 4 on, octave
    // k = floor(log2 v) contributes 4 sub-buckets at (k-2)*4 + (v >> (k-2)).
    if (sample < 4) return static_cast<std::size_t>(sample);
    const int octave = 63 - std::countl_zero(sample);
    return static_cast<std::size_t>(octave - 2) * kSubBuckets +
           static_cast<std::size_t>(sample >> (octave - 2));
}

std::uint64_t Histogram::lower_bound_of(std::size_t index) {
    if (index < 4) return index;
    const std::size_t group = index / kSubBuckets - 1;
    const std::size_t sub = index % kSubBuckets;
    return static_cast<std::uint64_t>(4 + sub) << group;
}

void Histogram::add(std::int64_t sample) {
    ++count_;
    sum_ += sample;
    if (count_ == 1) {
        min_ = max_ = sample;
    } else {
        if (sample < min_) min_ = sample;
        if (sample > max_) max_ = sample;
    }
    if (sample <= 0) {
        ++zero_;
        return;
    }
    const auto v = static_cast<std::uint64_t>(sample);
    if (v >= (1ull << kMaxOctave)) {
        ++overflow_;
        return;
    }
    if (bucket_counts_.empty()) bucket_counts_.assign(kBucketCount, 0);
    ++bucket_counts_[index_of(v)];
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Histogram::buckets() const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (std::size_t i = 0; i < bucket_counts_.size(); ++i) {
        if (bucket_counts_[i] != 0) out.emplace_back(lower_bound_of(i), bucket_counts_[i]);
    }
    return out;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counter_snapshot() const {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto& [name, c] : counters_) out.emplace_back(name, c.value());
    return out;
}

std::string MetricsRegistry::to_json(const std::string& scenario,
                                     TimePoint finished_at) const {
    // Metric names are dotted ASCII identifiers, but every string is escaped
    // so a stray quote can never produce invalid JSON.
    std::string out = "{\"format\":\"failsig-metrics-v1\",\"scenario\":\"" +
                      json_escape(scenario) + '"';
    out += ",\"finished_at_us\":" + std::to_string(finished_at);

    out += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        if (!first) out += ',';
        first = false;
        out += '"' + json_escape(name) + "\":" + std::to_string(c.value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : gauges_) {
        if (!first) out += ',';
        first = false;
        out += '"' + json_escape(name) + "\":" + std::to_string(g.value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms_) {
        if (!first) out += ',';
        first = false;
        out += '"' + json_escape(name) + "\":{\"count\":" + std::to_string(h.count()) +
               ",\"sum\":" + std::to_string(h.sum()) +
               ",\"min\":" + std::to_string(h.min()) +
               ",\"max\":" + std::to_string(h.max()) +
               ",\"zero\":" + std::to_string(h.zero_count()) +
               ",\"overflow\":" + std::to_string(h.overflow_count()) + ",\"buckets\":[";
        bool first_bucket = true;
        for (const auto& [lower, count] : h.buckets()) {
            if (!first_bucket) out += ',';
            first_bucket = false;
            out += '[' + std::to_string(lower) + ',' + std::to_string(count) + ']';
        }
        out += "]}";
    }
    out += "}}";
    return out;
}

}  // namespace failsig::obs
