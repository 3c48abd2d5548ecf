#include "obs/obs.hpp"

#include "common/bytes.hpp"
#include "sim/simulation.hpp"

namespace failsig::obs {

Obs::Obs()
    : spans_(metrics_),
      sign_us_(metrics_.histogram("crypto.sign_us")),
      verify_us_(metrics_.histogram("crypto.verify_us")),
      holdback_depth_hist_(metrics_.histogram("gc.holdback_depth")) {}

TimePoint Obs::now() const { return sim_ != nullptr ? sim_->now() : 0; }

void Obs::span(Stage stage, std::span<const std::uint8_t> payload, int member) {
    const TimePoint at = now();
    const std::uint64_t key = fnv1a(payload);
    spans_.stamp(stage, key, member, at);
    flight_.record(member, at,
                   std::string(stage_name(stage)) + " span=" + std::to_string(key));
}

void Obs::span_link(std::span<const std::uint8_t> unit,
                    std::span<const std::uint8_t> request, int member) {
    const TimePoint at = now();
    const std::uint64_t unit_key = fnv1a(unit);
    const std::uint64_t request_key = fnv1a(request);
    spans_.link(unit_key, request_key, member, at);
    if (unit_key != request_key) {  // passthrough links would spam the ring
        flight_.record(member, at,
                       "batched span=" + std::to_string(request_key) +
                           " into unit=" + std::to_string(unit_key));
    } else {
        flight_.record(member, at, "batched span=" + std::to_string(request_key));
    }
}

void Obs::note(int member, std::string what) {
    flight_.record(member, now(), std::move(what));
}

void Obs::crypto_sign(Duration simulated_cost) {
    sign_us_.add(static_cast<std::int64_t>(simulated_cost));
}

void Obs::crypto_verify(Duration simulated_cost) {
    verify_us_.add(static_cast<std::int64_t>(simulated_cost));
}

void Obs::holdback_depth(std::int64_t depth) { holdback_depth_hist_.add(depth); }

void Obs::flush_begin(int member) {
    flush_started_[member] = now();
    flight_.record(member, now(), "view flush begin");
}

void Obs::flush_end(int member) {
    const auto it = flush_started_.find(member);
    if (it == flush_started_.end()) return;  // install without a flush round
    if (flush_duration_us_ == nullptr) {
        flush_duration_us_ = &metrics_.histogram("view.flush_duration_us");
    }
    const TimePoint started = it->second;
    flush_started_.erase(it);
    flush_duration_us_->add(static_cast<std::int64_t>(now() - started));
    flight_.record(member, now(), "view flush end");
}

void Obs::flush_message() {
    if (flush_messages_ == nullptr) {
        flush_messages_ = &metrics_.counter("view.flush_messages");
    }
    flush_messages_->inc();
}

void Obs::flushed_deliveries(std::uint64_t n) {
    if (flushed_deliveries_ == nullptr) {
        flushed_deliveries_ = &metrics_.counter("view.flushed_deliveries");
    }
    flushed_deliveries_->inc(n);
}

std::string Obs::metrics_json(const std::string& scenario) const {
    return metrics_.to_json(scenario, now());
}

}  // namespace failsig::obs
