#include "obs/span.hpp"

namespace failsig::obs {

const char* stage_name(Stage stage) {
    switch (stage) {
        case Stage::kSubmit: return "submit";
        case Stage::kBatched: return "batched";
        case Stage::kEncoded: return "encoded";
        case Stage::kNetSend: return "net_send";
        case Stage::kReceive: return "receive";
        case Stage::kOrdered: return "ordered";
        case Stage::kDelivered: return "delivered";
    }
    return "?";
}

SpanTracker::SpanTracker(MetricsRegistry& metrics)
    : metrics_(metrics),
      batch_wait_us_(metrics.histogram("span.batch_wait_us")),
      send_latency_us_(metrics.histogram("span.send_latency_us")),
      order_latency_us_(metrics.histogram("span.order_latency_us")),
      e2e_latency_us_(metrics.histogram("span.e2e_latency_us")) {
    for (int s = 0; s < kStageCount; ++s) {
        stage_counts_[s] = &metrics.counter(std::string("span.stage.") +
                                            stage_name(static_cast<Stage>(s)));
    }
}

void SpanTracker::stamp(Stage stage, std::uint64_t key, int member, TimePoint now) {
    (void)member;  // per-member attribution lives in the flight recorder
    stage_counts_[static_cast<int>(stage)]->inc();
    if (stage == Stage::kSubmit) {
        // First submit wins: a duplicate payload (identical bytes resent)
        // keeps the earliest reference point.
        submit_at_.emplace(key, now);
        return;
    }
    const auto it = submit_at_.find(key);
    if (it == submit_at_.end()) return;  // protocol-internal or untracked
    const auto elapsed = static_cast<std::int64_t>(now - it->second);
    switch (stage) {
        case Stage::kBatched: batch_wait_us_.add(elapsed); break;
        case Stage::kNetSend: send_latency_us_.add(elapsed); break;
        case Stage::kOrdered: order_latency_us_.add(elapsed); break;
        case Stage::kDelivered: e2e_latency_us_.add(elapsed); break;
        default: break;  // encoded / receive: counted, no latency histogram
    }
}

void SpanTracker::link(std::uint64_t unit_key, std::uint64_t request_key, int member,
                       TimePoint now) {
    stamp(Stage::kBatched, request_key, member, now);
    const auto req = submit_at_.find(request_key);
    if (req == submit_at_.end()) return;
    const auto [it, inserted] = submit_at_.emplace(unit_key, req->second);
    if (!inserted && req->second < it->second) it->second = req->second;
}

std::uint64_t SpanTracker::stamps(Stage stage) const {
    return stage_counts_[static_cast<int>(stage)]->value();
}

}  // namespace failsig::obs
