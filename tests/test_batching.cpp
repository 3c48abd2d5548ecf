// Batching-pipeline coverage: the Batch codec and Batcher accumulator in
// isolation, unbatching semantics on every protocol stack (a batch of b
// unbatches into b in-order deliveries), deadline flushes, counter
// consistency, invariants under open-loop load with and without faults, and
// the parallel-sweep byte-identity guarantee with the batch axis in play.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/batch.hpp"
#include "common/rng.hpp"
#include "deploy/deployment.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"

namespace {

using namespace failsig;

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(BatchCodec, RoundTripPreservesOrderAndBytes) {
    const std::vector<Bytes> requests = {bytes_of("alpha"), bytes_of(""), bytes_of("g\0mma"),
                                         Bytes(300, 0x7f)};
    const Bytes frame = Batch::encode(requests);
    ASSERT_TRUE(Batch::is_batch(frame));
    const auto decoded = Batch::decode(frame);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value(), requests);
}

TEST(BatchCodec, PlainPayloadIsNotABatch) {
    EXPECT_FALSE(Batch::is_batch(bytes_of("hello world")));
    EXPECT_FALSE(Batch::is_batch(Bytes{}));
    EXPECT_FALSE(Batch::is_batch(Bytes{0x01, 0x02}));
}

TEST(BatchCodec, MalformedFramesAreRejected) {
    const Bytes frame = Batch::encode({bytes_of("x"), bytes_of("y")});
    Bytes truncated(frame.begin(), frame.end() - 1);
    EXPECT_FALSE(Batch::decode(truncated).has_value());
    Bytes trailing = frame;
    trailing.push_back(0x00);
    EXPECT_FALSE(Batch::decode(trailing).has_value());
    EXPECT_FALSE(Batch::decode(bytes_of("not a batch")).has_value());
}

// ---------------------------------------------------------------------------
// Codec fuzzing (seeded corpus; the sanitizer CI job runs this under ASan,
// so an over-read is a crash, not a silent pass)
// ---------------------------------------------------------------------------

/// decode() must return a value or an error on EVERY input — never throw,
/// never read past the buffer. A poison allocation around the exact span
/// gives ASan a red zone adjacent to the final byte.
void expect_total_decode(const Bytes& input) {
    const auto result = Batch::decode(input);
    if (result.has_value()) {
        // Whatever decoded must re-encode to the identical frame (decode is
        // the inverse of encode on its accepting set).
        EXPECT_EQ(Batch::encode(result.value()), input);
    } else {
        EXPECT_FALSE(result.error().message.empty());
    }
}

TEST(BatchCodecFuzz, RandomGarbageNeverCrashesTheDecoder) {
    Rng rng(0xba7c4f00d);
    for (int round = 0; round < 2000; ++round) {
        Bytes noise(rng.uniform(96), 0);
        for (auto& byte : noise) byte = static_cast<std::uint8_t>(rng.uniform(256));
        // Half the corpus gets the real magic spliced in so decoding
        // proceeds past the first gate into count/length parsing.
        if (noise.size() >= 4 && rng.chance(0.5)) {
            const Bytes magic = Batch::encode({});
            std::copy(magic.begin(), magic.begin() + 4, noise.begin());
        }
        expect_total_decode(noise);
    }
}

TEST(BatchCodecFuzz, EveryTruncationOfAValidFrameDecodesToAnError) {
    Rng rng(0x7255c47e);
    for (int round = 0; round < 50; ++round) {
        std::vector<Bytes> requests(1 + rng.uniform(5));
        for (auto& request : requests) {
            request.resize(rng.uniform(40));
            for (auto& byte : request) byte = static_cast<std::uint8_t>(rng.uniform(256));
        }
        const Bytes frame = Batch::encode(requests);
        for (std::size_t cut = 0; cut < frame.size(); ++cut) {
            const Bytes truncated(frame.begin(),
                                  frame.begin() + static_cast<std::ptrdiff_t>(cut));
            EXPECT_FALSE(Batch::decode(truncated).has_value())
                << "prefix of length " << cut << " of a " << frame.size()
                << "-byte frame must not decode";
        }
        EXPECT_TRUE(Batch::decode(frame).has_value());
    }
}

TEST(BatchCodecFuzz, OversizedCountAndLengthFieldsAreErrorsNotOverReads) {
    const Bytes frame = Batch::encode({bytes_of("abc"), bytes_of("defg")});
    // Bump the count field (bytes 4..8): the decoder must hit end-of-buffer
    // while parsing the phantom request, not wander past the span.
    Bytes oversized_count = frame;
    oversized_count[4] = static_cast<std::uint8_t>(oversized_count[4] + 1);
    EXPECT_FALSE(Batch::decode(oversized_count).has_value());
    Bytes huge_count = frame;
    huge_count[4] = 0xff;
    huge_count[5] = 0xff;
    huge_count[6] = 0xff;
    huge_count[7] = 0x7f;
    EXPECT_FALSE(Batch::decode(huge_count).has_value());
    // Inflate the first request's length prefix (bytes 8..12) past the end.
    Bytes oversized_len = frame;
    oversized_len[8] = 0xff;
    oversized_len[9] = 0xff;
    EXPECT_FALSE(Batch::decode(oversized_len).has_value());
    // Corrupt the magic: cheap rejection before any structure is parsed.
    Bytes bad_magic = frame;
    bad_magic[0] ^= 0x01;
    EXPECT_FALSE(Batch::decode(bad_magic).has_value());
    EXPECT_FALSE(Batch::is_batch(bad_magic));
}

TEST(BatchCodecFuzz, RandomMutationsOfValidFramesDecodeTotally) {
    Rng rng(0x5eeded);
    const Bytes frame =
        Batch::encode({bytes_of("request-one"), bytes_of("r2"), Bytes(64, 0xab)});
    for (int round = 0; round < 2000; ++round) {
        Bytes mutated = frame;
        const int flips = 1 + static_cast<int>(rng.uniform(4));
        for (int f = 0; f < flips; ++f) {
            const std::size_t at = rng.uniform(mutated.size());
            mutated[at] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
        }
        expect_total_decode(mutated);
    }
}

// ---------------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------------

/// Captures flushes and deadline arms without a simulator.
struct BatcherProbe {
    std::vector<std::pair<Bytes, std::size_t>> flushed;
    std::vector<std::pair<Duration, std::function<void()>>> timers;

    Batcher::FlushFn flush_fn() {
        return [this](Bytes unit, std::size_t count) {
            flushed.emplace_back(std::move(unit), count);
        };
    }
    Batcher::Scheduler scheduler() {
        return [this](Duration delay, std::function<void()> fn) {
            timers.emplace_back(delay, std::move(fn));
        };
    }
};

TEST(Batcher, DisabledConfigPassesPayloadsThroughUnframed) {
    BatcherProbe probe;
    Batcher batcher(BatchConfig{}, probe.flush_fn(), probe.scheduler());
    batcher.submit(bytes_of("raw"));
    ASSERT_EQ(probe.flushed.size(), 1u);
    EXPECT_EQ(probe.flushed[0].first, bytes_of("raw"));  // no frame, no magic
    EXPECT_TRUE(probe.timers.empty());
    EXPECT_EQ(batcher.stats().requests_submitted, 1u);
    EXPECT_EQ(batcher.stats().requests_batched, 0u);
    EXPECT_EQ(batcher.stats().batches_formed, 0u);
}

TEST(Batcher, FlushesOnMaxRequests) {
    BatcherProbe probe;
    Batcher batcher(BatchConfig{.max_requests = 3}, probe.flush_fn(), probe.scheduler());
    batcher.submit(bytes_of("a"));
    batcher.submit(bytes_of("b"));
    EXPECT_TRUE(probe.flushed.empty());
    batcher.submit(bytes_of("c"));
    ASSERT_EQ(probe.flushed.size(), 1u);
    EXPECT_EQ(probe.flushed[0].second, 3u);
    const auto decoded = Batch::decode(probe.flushed[0].first);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value(),
              (std::vector<Bytes>{bytes_of("a"), bytes_of("b"), bytes_of("c")}));
    EXPECT_EQ(batcher.stats().batches_formed, 1u);
    EXPECT_EQ(batcher.stats().flushes_on_size, 1u);
    EXPECT_EQ(batcher.stats().flushes_on_deadline, 0u);
}

TEST(Batcher, FlushesOnMaxBytes) {
    BatcherProbe probe;
    Batcher batcher(BatchConfig{.max_requests = 100, .max_bytes = 10}, probe.flush_fn(),
                    probe.scheduler());
    batcher.submit(Bytes(6, 0x11));
    EXPECT_TRUE(probe.flushed.empty());
    batcher.submit(Bytes(6, 0x22));  // 12 bytes pending >= 10
    ASSERT_EQ(probe.flushed.size(), 1u);
    EXPECT_EQ(probe.flushed[0].second, 2u);
}

TEST(Batcher, DeadlineFlushesLoneRequestAndStaleTimerIsInert) {
    BatcherProbe probe;
    Batcher batcher(BatchConfig{.max_requests = 8, .flush_after = 5 * kMillisecond},
                    probe.flush_fn(), probe.scheduler());
    batcher.submit(bytes_of("lonely"));
    ASSERT_EQ(probe.timers.size(), 1u);
    EXPECT_EQ(probe.timers[0].first, 5 * kMillisecond);
    EXPECT_TRUE(probe.flushed.empty());
    probe.timers[0].second();  // deadline fires
    ASSERT_EQ(probe.flushed.size(), 1u);
    EXPECT_EQ(probe.flushed[0].second, 1u);
    EXPECT_EQ(batcher.stats().flushes_on_deadline, 1u);

    // A new batch flushes on size before its deadline; the stale timer must
    // not flush the next open batch early.
    for (int i = 0; i < 8; ++i) batcher.submit(bytes_of("s" + std::to_string(i)));
    ASSERT_EQ(probe.flushed.size(), 2u);
    batcher.submit(bytes_of("next-open"));
    ASSERT_EQ(probe.timers.size(), 3u);
    probe.timers[1].second();  // the size-flushed batch's dead timer
    EXPECT_EQ(probe.flushed.size(), 2u);  // nothing flushed
    EXPECT_EQ(batcher.pending(), 1u);
    probe.timers[2].second();  // the live batch's timer
    EXPECT_EQ(probe.flushed.size(), 3u);
    EXPECT_EQ(batcher.stats().requests_batched, batcher.stats().requests_submitted);
}

// ---------------------------------------------------------------------------
// Per-stack unbatching through the Deployment interface
// ---------------------------------------------------------------------------

BatchConfig test_batch(std::size_t max_requests) {
    BatchConfig cfg;
    cfg.max_requests = max_requests;
    cfg.flush_after = 5 * kMillisecond;
    return cfg;
}

/// Submits `count` payloads at member 0, runs to quiescence, and keeps the
/// deployment alive so tests can read its counters.
struct SubmissionRun {
    std::unique_ptr<deploy::Deployment> deployment;
    std::vector<std::vector<std::string>> delivered;  ///< per member, in order

    [[nodiscard]] BatchStats stats() const { return deployment->batch_stats(); }
};

SubmissionRun run_submissions(deploy::SystemKind system, int n, const BatchConfig& batch,
                              int count) {
    deploy::DeploymentSpec spec;
    spec.group_size = n;
    spec.batch = batch;
    auto d = deploy::make_deployment(system, spec);
    auto got = std::make_shared<std::vector<std::vector<std::string>>>(
        static_cast<std::size_t>(n));
    deploy::Observers obs;
    obs.delivered = [got](int member, const Bytes& payload) {
        (*got)[static_cast<std::size_t>(member)].push_back(string_of(payload));
    };
    d->attach(std::move(obs));
    for (int k = 0; k < count; ++k) d->submit(0, bytes_of("m" + std::to_string(k)));
    d->sim().run();
    return SubmissionRun{std::move(d), *got};
}

void expect_batch_unbatches_in_order(deploy::SystemKind system, int n) {
    const int b = 4;
    const auto run = run_submissions(system, n, test_batch(b), b);
    std::vector<std::string> expected;
    for (int k = 0; k < b; ++k) expected.push_back("m" + std::to_string(k));
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(run.delivered[static_cast<std::size_t>(i)], expected)
            << deploy::name_of(system) << " member " << i;
    }
    const BatchStats stats = run.stats();
    EXPECT_EQ(stats.requests_submitted, static_cast<std::uint64_t>(b));
    EXPECT_EQ(stats.requests_batched, static_cast<std::uint64_t>(b));
    EXPECT_EQ(stats.batches_formed, 1u);
    EXPECT_EQ(stats.flushes_on_size, 1u);
}

TEST(BatchingStacks, NewTopBatchUnbatchesInOrder) {
    expect_batch_unbatches_in_order(deploy::SystemKind::kNewTop, 3);
}

TEST(BatchingStacks, FsNewTopBatchUnbatchesInOrder) {
    expect_batch_unbatches_in_order(deploy::SystemKind::kFsNewTop, 3);
}

TEST(BatchingStacks, PbftBatchUnbatchesInOrder) {
    expect_batch_unbatches_in_order(deploy::SystemKind::kPbft, 4);
}

void expect_deadline_flush_delivers_lone_request(deploy::SystemKind system, int n) {
    const auto run = run_submissions(system, n, test_batch(8), 1);
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(run.delivered[static_cast<std::size_t>(i)], std::vector<std::string>{"m0"})
            << deploy::name_of(system) << " member " << i;
    }
    const BatchStats stats = run.stats();
    EXPECT_EQ(stats.flushes_on_deadline, 1u);
    EXPECT_EQ(stats.batches_formed, 1u);
    EXPECT_EQ(stats.requests_batched, 1u);
}

TEST(BatchingStacks, NewTopDeadlineFlushesLoneRequest) {
    expect_deadline_flush_delivers_lone_request(deploy::SystemKind::kNewTop, 3);
}

TEST(BatchingStacks, FsNewTopDeadlineFlushesLoneRequest) {
    expect_deadline_flush_delivers_lone_request(deploy::SystemKind::kFsNewTop, 3);
}

TEST(BatchingStacks, PbftDeadlineFlushesLoneRequest) {
    expect_deadline_flush_delivers_lone_request(deploy::SystemKind::kPbft, 4);
}

TEST(BatchingStacks, DisabledBatchingMatchesUnbatchedDeliveries) {
    // Same submissions with batching off: the wire is unframed and counters
    // stay zero, but the application observes the same in-order deliveries.
    const auto run = run_submissions(deploy::SystemKind::kNewTop, 3, BatchConfig{}, 4);
    std::vector<std::string> expected = {"m0", "m1", "m2", "m3"};
    for (int i = 0; i < 3; ++i) EXPECT_EQ(run.delivered[static_cast<std::size_t>(i)], expected);
    EXPECT_EQ(run.stats().batches_formed, 0u);
    EXPECT_EQ(run.stats().requests_submitted, 4u);
}

// ---------------------------------------------------------------------------
// Open-loop load generator + scenario-level batching
// ---------------------------------------------------------------------------

scenario::Scenario load_scenario(deploy::SystemKind system, int n, std::size_t batch) {
    scenario::Scenario s;
    s.name = "batch-load";
    s.system = system;
    s.group_size = n;
    s.seed = 7;
    s.workload.msgs_per_member = 0;  // all traffic comes from the load phase
    s.batch = test_batch(batch);
    scenario::LoadSpec load;
    load.rate = 200.0;
    load.duration = 300 * kMillisecond;
    load.payload = 16;
    s.timeline.push_back(scenario::ScenarioEvent::load(0, load));
    return s;
}

TEST(LoadGenerator, DeterministicArrivals) {
    const auto a = scenario::run_scenario(load_scenario(deploy::SystemKind::kNewTop, 3, 4));
    const auto b = scenario::run_scenario(load_scenario(deploy::SystemKind::kNewTop, 3, 4));
    EXPECT_GT(a.metrics.messages_sent, 20u);  // ~60 expected at 200/s x 0.3s
    EXPECT_EQ(a.trace.canonical(), b.trace.canonical());
    EXPECT_EQ(scenario::to_json({a}), scenario::to_json({b}));
}

TEST(LoadGenerator, RateScalesArrivalCount) {
    auto slow = load_scenario(deploy::SystemKind::kNewTop, 3, 1);
    auto fast = load_scenario(deploy::SystemKind::kNewTop, 3, 1);
    fast.timeline[0].load_spec.rate = 800.0;
    const auto r_slow = scenario::run_scenario(slow);
    const auto r_fast = scenario::run_scenario(fast);
    EXPECT_GT(r_fast.metrics.messages_sent, 2 * r_slow.metrics.messages_sent);
}

TEST(BatchingScenario, LoadFaultFreeInvariantsHoldOnEveryStack) {
    for (const auto system :
         {deploy::SystemKind::kNewTop, deploy::SystemKind::kFsNewTop,
          deploy::SystemKind::kPbft}) {
        const auto report = scenario::run_scenario(load_scenario(system, 4, 8));
        EXPECT_TRUE(report.all_invariants_passed())
            << deploy::name_of(system) << ": " << scenario::to_json({report});
        const auto& m = report.metrics;
        EXPECT_GT(m.messages_sent, 0u) << deploy::name_of(system);
        // Validity under load: every request delivered at every member.
        EXPECT_EQ(m.observed_deliveries, m.expected_deliveries) << deploy::name_of(system);
        // Counters match: everything submitted went through the pipeline
        // and every batch eventually flushed.
        EXPECT_EQ(m.requests_submitted, m.messages_sent) << deploy::name_of(system);
        EXPECT_EQ(m.requests_batched, m.requests_submitted) << deploy::name_of(system);
        // Batching genuinely coalesced: fewer ordered units than requests.
        EXPECT_GT(m.batches_formed, 0u) << deploy::name_of(system);
        EXPECT_LT(m.batches_formed, m.requests_submitted) << deploy::name_of(system);
    }
}

TEST(BatchingScenario, LoadPlusCrashKeepsAgreement) {
    auto s = load_scenario(deploy::SystemKind::kNewTop, 4, 8);
    s.name = "batch-load-crash";
    s.timeline.push_back(scenario::ScenarioEvent::crash(150 * kMillisecond, 3));
    const auto report = scenario::run_scenario(s);
    EXPECT_TRUE(report.all_invariants_passed()) << scenario::to_json({report});
    EXPECT_GT(report.metrics.observed_deliveries, 0u);
    // Every flushed batch is accounted; nothing is stuck in an accumulator.
    EXPECT_EQ(report.metrics.requests_batched, report.metrics.requests_submitted);
}

TEST(BatchingScenario, FsNewTopBatchingAmortizesSignatureVerifies) {
    // The acceptance measurement in miniature (the full pinned cell lives in
    // test_pinned_counters): same workload and seed, batch 8 vs 1 — the
    // signed FS protocol rounds per request drop by the batch factor.
    auto dense = load_scenario(deploy::SystemKind::kFsNewTop, 4, 1);
    dense.timeline[0].load_spec.rate = 2000.0;
    dense.timeline[0].load_spec.duration = 100 * kMillisecond;
    auto batched = dense;
    batched.batch = test_batch(8);
    const auto r1 = scenario::run_scenario(dense);
    const auto r8 = scenario::run_scenario(batched);
    EXPECT_EQ(r1.metrics.messages_sent, r8.metrics.messages_sent);
    EXPECT_GT(r1.metrics.verify_ops, 0u);
    EXPECT_GE(r1.metrics.verify_ops, 3 * r8.metrics.verify_ops)
        << "b1 verify_ops " << r1.metrics.verify_ops << " vs b8 "
        << r8.metrics.verify_ops;
}

// ---------------------------------------------------------------------------
// Sweep integration
// ---------------------------------------------------------------------------

TEST(BatchingSweep, BatchAxisReportsIdenticalAcrossJobs) {
    scenario::SweepSpec spec;
    spec.base.name = "batchsweep";
    spec.base.workload.msgs_per_member = 4;
    spec.base.workload.send_interval = 2 * kMillisecond;
    spec.systems = {deploy::SystemKind::kNewTop, deploy::SystemKind::kFsNewTop,
                    deploy::SystemKind::kPbft};
    spec.group_sizes = {3, 4};
    spec.seeds = {1, 2};
    spec.batch_sizes = {1, 4};

    spec.jobs = 1;
    const auto serial = scenario::run_sweep(spec);
    spec.jobs = 4;
    const auto parallel = scenario::run_sweep(spec);

    ASSERT_EQ(serial.size(), 3u * 2u * 2u * 2u);
    EXPECT_EQ(scenario::to_json(serial), scenario::to_json(parallel));

    // The batch axis shows up in cell names and configs.
    bool saw_b4 = false;
    for (const auto& report : serial) {
        if (report.scenario.name.find("/b4/") != std::string::npos) {
            saw_b4 = true;
            EXPECT_EQ(report.scenario.batch.max_requests, 4u);
        }
    }
    EXPECT_TRUE(saw_b4);
}

TEST(BatchingSweep, EmptyBatchAxisKeepsCellNames) {
    scenario::SweepSpec spec;
    spec.base.name = "plain";
    spec.base.workload.msgs_per_member = 2;
    spec.systems = {deploy::SystemKind::kNewTop};
    spec.group_sizes = {3};
    spec.seeds = {5};
    const auto reports = scenario::run_sweep(spec);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].scenario.name, "plain/NewTOP/n3/s5");
}

}  // namespace
