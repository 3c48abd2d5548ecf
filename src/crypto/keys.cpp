#include "crypto/keys.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace failsig::crypto {

namespace {

class RsaSigner final : public Signer {
public:
    RsaSigner(std::string principal, RsaPrivateKey key)
        : principal_(std::move(principal)), key_(std::move(key)) {}

    [[nodiscard]] Bytes sign(std::span<const std::uint8_t> message) const override {
        return rsa_sign(key_, message, DigestAlgorithm::kMd5);
    }
    [[nodiscard]] const std::string& principal() const override { return principal_; }

private:
    std::string principal_;
    RsaPrivateKey key_;
};

class RsaVerifier final : public Verifier {
public:
    explicit RsaVerifier(RsaPublicKey key) : key_(std::move(key)) {}

    [[nodiscard]] bool verify(std::span<const std::uint8_t> message,
                              std::span<const std::uint8_t> signature) const override {
        return rsa_verify(key_, message, signature, DigestAlgorithm::kMd5);
    }

private:
    RsaPublicKey key_;
};

class HmacSigner final : public Signer {
public:
    HmacSigner(std::string principal, std::span<const std::uint8_t> key)
        : principal_(std::move(principal)), mac_(key) {}

    [[nodiscard]] Bytes sign(std::span<const std::uint8_t> message) const override {
        const auto tag = mac_.tag(message);
        return Bytes(tag.begin(), tag.end());
    }
    [[nodiscard]] const std::string& principal() const override { return principal_; }

private:
    std::string principal_;
    HmacSha256 mac_;
};

class HmacVerifier final : public Verifier {
public:
    explicit HmacVerifier(std::span<const std::uint8_t> key) : mac_(key) {}

    [[nodiscard]] bool verify(std::span<const std::uint8_t> message,
                              std::span<const std::uint8_t> signature) const override {
        return constant_time_equal(mac_.tag(message), signature);
    }

private:
    HmacSha256 mac_;
};

/// Feeds `data` to `h` with the u32 little-endian length prefix of
/// ByteWriter::bytes.
void update_prefixed(Sha256& h, std::span<const std::uint8_t> data) {
    const auto n = static_cast<std::uint32_t>(data.size());
    const std::uint8_t len[4] = {static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(n >> 8),
                                 static_cast<std::uint8_t>(n >> 16),
                                 static_cast<std::uint8_t>(n >> 24)};
    h.update(len);
    h.update(data);
}

}  // namespace

KeyService::KeyService(Backend backend, std::size_t rsa_bits, std::uint64_t seed)
    : backend_(backend), rsa_bits_(rsa_bits), rng_(seed) {}

void KeyService::add_entry(const std::string& name, std::unique_ptr<Signer> signer,
                           std::unique_ptr<Verifier> verifier) {
    entries_[name] = Entry{std::move(signer), std::move(verifier), next_epoch_++};
}

void KeyService::make_entry(const std::string& name) {
    if (backend_ == Backend::kRsa) {
        auto kp = rsa_generate(rsa_bits_, rng_);
        add_entry(name, std::make_unique<RsaSigner>(name, std::move(kp.priv)),
                  std::make_unique<RsaVerifier>(std::move(kp.pub)));
    } else {
        Bytes key(32);
        for (auto& b : key) b = static_cast<std::uint8_t>(rng_.next());
        add_entry(name, std::make_unique<HmacSigner>(name, key),
                  std::make_unique<HmacVerifier>(key));
    }
}

void KeyService::register_principal(const std::string& name) {
    if (entries_.contains(name)) return;
    make_entry(name);
}

void KeyService::rotate_principal(const std::string& name) { make_entry(name); }

std::string KeyService::link_principal(const std::string& a, const std::string& b) {
    const auto& lo = std::min(a, b);
    const auto& hi = std::max(a, b);
    return "link:" + lo + "|" + hi;
}

void KeyService::register_link(const std::string& a, const std::string& b) {
    const std::string name = link_principal(a, b);
    if (entries_.contains(name)) return;
    // Session keys are symmetric regardless of the signing backend: the MAC
    // trade-off only makes sense against asymmetric per-principal keys.
    Bytes key(32);
    for (auto& kb : key) kb = static_cast<std::uint8_t>(rng_.next());
    add_entry(name, std::make_unique<HmacSigner>(name, key), std::make_unique<HmacVerifier>(key));
}

bool KeyService::verify_cached(const std::string& name, std::span<const std::uint8_t> message,
                               std::span<const std::uint8_t> signature) const {
    const auto it = entries_.find(name);
    if (it == entries_.end()) return false;
    const Entry& entry = it->second;
    Sha256 h;
    update_prefixed(h, message);
    update_prefixed(h, signature);
    const MemoKey key{entry.epoch, h.finish()};
    {
        const std::lock_guard lock(memo_mutex_);
        if (const auto hit = memo_young_.find(key); hit != memo_young_.end()) {
            ++verify_cache_hits_;
            return hit->second;
        }
        if (const auto hit = memo_old_.find(key); hit != memo_old_.end()) {
            ++verify_cache_hits_;
            // Renew the verdict in the young generation; the stale copy is
            // dropped with the old one.
            const bool verdict = hit->second;
            remember(key, verdict);
            return verdict;
        }
        ++verify_ops_;
    }
    const bool ok = entry.verifier->verify(message, signature);
    const std::lock_guard lock(memo_mutex_);
    remember(key, ok);
    return ok;
}

void KeyService::remember(const MemoKey& key, bool verdict) const {
    if (memo_young_.size() >= kMemoWindow) {
        // Young retires to old and the previous old generation is dropped;
        // clear() keeps the bucket array for the next young generation.
        memo_old_.swap(memo_young_);
        memo_young_.clear();
    }
    memo_young_.emplace(key, verdict);
    memo_high_water_ = std::max(memo_high_water_, memo_young_.size() + memo_old_.size());
}

std::uint64_t KeyService::verify_ops() const {
    const std::lock_guard lock(memo_mutex_);
    return verify_ops_;
}

std::uint64_t KeyService::verify_cache_hits() const {
    const std::lock_guard lock(memo_mutex_);
    return verify_cache_hits_;
}

std::size_t KeyService::memo_high_water() const {
    const std::lock_guard lock(memo_mutex_);
    return memo_high_water_;
}

const Signer& KeyService::signer(const std::string& name) const {
    return *entries_.at(name).signer;
}

const Verifier& KeyService::verifier(const std::string& name) const {
    return *entries_.at(name).verifier;
}

bool KeyService::has_principal(const std::string& name) const { return entries_.contains(name); }

}  // namespace failsig::crypto
