// Metrics registry: named counters, gauges and log-linear histograms.
//
// The paper's argument is a *cost* comparison, and until now the repro could
// only total costs at the end of a run. This registry is the accumulation
// layer underneath the message-lifecycle spans (obs/span.hpp): hot-path
// increments are a single add through a cached pointer, and the snapshot is
// ordered by name, so the exported JSON is a pure function of the run —
// byte-identical across sweep worker counts. Timestamps are sim ticks,
// never wall clock, for the same reason.
//
// Instruments are registered on first use and owned by the registry;
// returned references stay valid for the registry's lifetime (storage is a
// std::map, which never invalidates element addresses), so hot paths look
// up once and increment through the reference.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace failsig::obs {

class Counter {
public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    [[nodiscard]] std::uint64_t value() const { return value_; }

private:
    std::uint64_t value_{0};
};

class Gauge {
public:
    void set(std::int64_t v) { value_ = v; }
    [[nodiscard]] std::int64_t value() const { return value_; }

private:
    std::int64_t value_{0};
};

/// Log-linear histogram over non-negative integer samples (microseconds,
/// queue depths). Layout (HdrHistogram-style, 4 sub-buckets per octave):
///   * one dedicated zero bucket (samples <= 0),
///   * indices 1..3 hold the exact values 1..3,
///   * from 4 on, each octave [2^k, 2^(k+1)) splits into 4 linear
///     sub-buckets — bucket index (k-2)*4 + (v >> (k-2)) — so relative
///     resolution stays ~25% at every magnitude,
///   * samples at or beyond 2^kMaxOctave land in one overflow bucket.
/// add() is branch + shift + increment: cheap enough to leave compiled in.
class Histogram {
public:
    static constexpr int kSubBuckets = 4;
    /// Samples >= 2^40 (~13 simulated days in us) overflow.
    static constexpr int kMaxOctave = 40;
    static constexpr std::size_t kBucketCount =
        static_cast<std::size_t>((kMaxOctave - 2) * kSubBuckets + kSubBuckets);

    void add(std::int64_t sample);

    /// Bucket index a positive sample lands in (exposed for the boundary
    /// tests; add() uses it internally).
    [[nodiscard]] static std::size_t index_of(std::uint64_t sample);
    /// Inclusive lower bound of bucket `index` (index >= 1).
    [[nodiscard]] static std::uint64_t lower_bound_of(std::size_t index);

    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] std::int64_t sum() const { return sum_; }
    [[nodiscard]] std::int64_t min() const { return count_ ? min_ : 0; }
    [[nodiscard]] std::int64_t max() const { return count_ ? max_ : 0; }
    [[nodiscard]] std::uint64_t zero_count() const { return zero_; }
    [[nodiscard]] std::uint64_t overflow_count() const { return overflow_; }
    /// (inclusive lower bound, count) for every non-empty log-linear bucket,
    /// ascending — the sparse rendering both exports use.
    [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets() const;

private:
    std::uint64_t count_{0};
    std::int64_t sum_{0};
    std::int64_t min_{0};
    std::int64_t max_{0};
    std::uint64_t zero_{0};
    std::uint64_t overflow_{0};
    std::vector<std::uint64_t> bucket_counts_;  ///< lazily sized to kBucketCount
};

/// Name-keyed instrument store. Names are dotted lowercase paths
/// ("span.stage.submit", "crypto.sign_us"); the unit is a suffix by
/// convention. Lookup is a map walk — hot paths call once and keep the
/// reference.
class MetricsRegistry {
public:
    Counter& counter(const std::string& name) { return counters_[name]; }
    Gauge& gauge(const std::string& name) { return gauges_[name]; }
    Histogram& histogram(const std::string& name) { return histograms_[name]; }

    /// Every counter as (name, value), name-ascending. The conformance
    /// and pinned-counter tests consume this directly.
    [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot() const;

    /// "failsig-metrics-v1" JSON object. `scenario` labels the run;
    /// `finished_at` is the sim tick the snapshot was taken at. Instruments
    /// are emitted name-ascending: same run => same bytes.
    [[nodiscard]] std::string to_json(const std::string& scenario,
                                      TimePoint finished_at) const;

private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
};

}  // namespace failsig::obs
