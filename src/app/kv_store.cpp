#include "app/kv_store.hpp"

#include "common/batch.hpp"

namespace failsig::app {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::string hex_of(std::uint64_t v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
        v >>= 4;
    }
    return out;
}

}  // namespace

std::size_t KvStore::apply(std::span<const std::uint8_t> unit) {
    if (Batch::is_batch(unit)) {
        auto requests = Batch::decode(unit);
        if (requests.has_value()) {
            for (const auto& request : requests.value()) apply_one(request);
            return requests.value().size();
        }
        // A frame that looks batched but does not decode is still one
        // ordered unit all replicas saw identically: fold it whole.
    }
    apply_one(unit);
    return 1;
}

void KvStore::apply_one(std::span<const std::uint8_t> request) {
    // Two independent FNV-1a chains in one pass over the request: the running
    // digest and the request's own key hash.
    std::uint64_t digest = digest_;
    std::uint64_t key_hash = kFnvBasis;
    for (const auto b : request) {
        digest = (digest ^ b) * kFnvPrime;
        key_hash = (key_hash ^ b) * kFnvPrime;
    }
    digest_ = digest;
    const auto key = static_cast<std::uint32_t>(key_hash % kKeySpace);
    store_[key] = digest_;
    ++applied_;
    if (checkpoint_interval_ != 0 && applied_ % checkpoint_interval_ == 0) take_checkpoint();
}

void KvStore::take_checkpoint() {
    checkpoints_.push_back(KvCheckpoint{applied_, digest_});
    while (checkpoints_.size() > kCheckpointHistory) checkpoints_.pop_front();
    ++checkpoints_taken_;
}

std::optional<std::uint64_t> KvStore::read(std::uint32_t key) const {
    const auto it = store_.find(key % kKeySpace);
    if (it == store_.end()) return std::nullopt;
    return it->second;
}

std::string KvStore::state_string() const {
    std::string out = "applied=" + std::to_string(applied_) + " digest=" + hex_of(digest_);
    out += " checkpoints=";
    bool first = true;
    for (const auto& cp : checkpoints_) {
        if (!first) out += ',';
        first = false;
        out += std::to_string(cp.applied) + ":" + hex_of(cp.digest);
    }
    return out;
}

Bytes KvStore::snapshot() const {
    ByteWriter w;
    w.reserve(4 + 8 + 8 + 8 + 4 + store_.size() * 12 + 4 + checkpoints_.size() * 16);
    w.u32(kSnapshotMagic);
    w.u64(applied_);
    w.u64(digest_);
    w.u64(checkpoints_taken_);
    w.u32(static_cast<std::uint32_t>(store_.size()));
    for (const auto& [key, value] : store_) {
        w.u32(key);
        w.u64(value);
    }
    w.u32(static_cast<std::uint32_t>(checkpoints_.size()));
    for (const auto& cp : checkpoints_) {
        w.u64(cp.applied);
        w.u64(cp.digest);
    }
    return w.take();
}

Result<bool> KvStore::restore(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        if (r.u32() != kSnapshotMagic) return Result<bool>::err("bad KV snapshot magic");
        const auto applied = r.u64();
        const auto digest = r.u64();
        const auto checkpoints_taken = r.u64();
        const auto store_count = r.u32();
        if (store_count > kKeySpace) return Result<bool>::err("implausible KV store size");
        std::map<std::uint32_t, std::uint64_t> store;
        for (std::uint32_t i = 0; i < store_count; ++i) {
            const auto key = r.u32();
            if (key >= kKeySpace) return Result<bool>::err("KV key out of key space");
            const auto value = r.u64();
            if (store.contains(key)) return Result<bool>::err("duplicate KV key");
            store.emplace(key, value);
        }
        const auto cp_count = r.u32();
        if (cp_count > kCheckpointHistory) {
            return Result<bool>::err("implausible KV checkpoint count");
        }
        std::deque<KvCheckpoint> checkpoints;
        for (std::uint32_t i = 0; i < cp_count; ++i) {
            KvCheckpoint cp;
            cp.applied = r.u64();
            cp.digest = r.u64();
            if (!checkpoints.empty() && cp.applied <= checkpoints.back().applied) {
                return Result<bool>::err("non-monotone KV checkpoint watermarks");
            }
            if (cp.applied > applied) return Result<bool>::err("KV checkpoint past applied");
            checkpoints.push_back(cp);
        }
        if (!r.done()) return Result<bool>::err("trailing bytes in KV snapshot");
        applied_ = applied;
        digest_ = digest;
        checkpoints_taken_ = checkpoints_taken;
        store_ = std::move(store);
        checkpoints_ = std::move(checkpoints);
        return true;
    } catch (const std::out_of_range&) {
        return Result<bool>::err("truncated KV snapshot");
    }
}

}  // namespace failsig::app
