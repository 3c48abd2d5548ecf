// Principal key management: maps named principals (e.g. "FSO:3", "GC:1") to
// signing and verification capabilities — assumption A5 of the paper
// ("a process of a correct node can sign the messages it sends and the signed
// message cannot be generated nor undetectably altered by ... another node").
//
// Two backends:
//  * kRsa  — real RSA signatures (the paper's scheme); slower, used by the
//            crypto benchmarks and when fidelity matters more than speed.
//  * kHmac — HMAC-SHA256 tags under per-principal secrets; fast, with real
//            tamper detection, used inside large simulated deployments where
//            RSA's CPU cost is charged in *simulated* time by the cost model.
#pragma once

#include <array>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/rsa.hpp"

namespace failsig::crypto {

/// Signs messages on behalf of one principal.
class Signer {
public:
    virtual ~Signer() = default;
    [[nodiscard]] virtual Bytes sign(std::span<const std::uint8_t> message) const = 0;
    [[nodiscard]] virtual const std::string& principal() const = 0;
};

/// Verifies signatures attributed to one principal.
class Verifier {
public:
    virtual ~Verifier() = default;
    [[nodiscard]] virtual bool verify(std::span<const std::uint8_t> message,
                                      std::span<const std::uint8_t> signature) const = 0;
};

/// Registry of principals and their keys.
class KeyService {
public:
    enum class Backend { kRsa, kHmac };

    /// `rsa_bits` only applies to the kRsa backend; `seed` makes key material
    /// reproducible.
    explicit KeyService(Backend backend, std::size_t rsa_bits = 512,
                        std::uint64_t seed = 0x5eedf00d);

    /// Creates keys for `name`; idempotent.
    void register_principal(const std::string& name);

    /// Regenerates `name`'s key material (epoch change / compromise) under
    /// a fresh key epoch, so no verdict memoized under the old key is ever
    /// returned again — a signature that verified under the old key must be
    /// re-checked under the new one. The stale verdicts age out of the memo.
    void rotate_principal(const std::string& name);

    /// Registers a pairwise HMAC session key shared by exactly {a, b},
    /// under `link_principal(a, b)` — the paper's MAC-authenticator
    /// trade-off: point-to-point traffic that needs no third-party
    /// verification can be authenticated at symmetric-crypto cost even when
    /// the backend signs everything else with RSA. Idempotent.
    void register_link(const std::string& a, const std::string& b);
    [[nodiscard]] static std::string link_principal(const std::string& a, const std::string& b);

    /// Throws std::out_of_range for unknown principals.
    [[nodiscard]] const Signer& signer(const std::string& name) const;
    [[nodiscard]] const Verifier& verifier(const std::string& name) const;
    [[nodiscard]] bool has_principal(const std::string& name) const;

    /// Verifies through a digest-keyed memo: a (principal, message,
    /// signature) triple that already verified costs one hash instead of a
    /// public-key operation. This is what makes relaying a double-signed
    /// envelope O(1) RSA verifies per (principal, digest) across all hops.
    /// The memo is bounded: a verdict reused within kMemoWindow later memo
    /// insertions (misses, and hits renewed from the old generation) is a
    /// hit; an older one is verified again.
    /// Safe to call from several threads at once (the TCP backend's node
    /// executors share one KeyService); registration and rotation are not.
    [[nodiscard]] bool verify_cached(const std::string& name,
                                     std::span<const std::uint8_t> message,
                                     std::span<const std::uint8_t> signature) const;

    /// Entries per memo generation. The memo keeps two generations, so it
    /// never holds more than 2 * kMemoWindow verdicts.
    static constexpr std::size_t kMemoWindow = 4096;

    [[nodiscard]] Backend backend() const { return backend_; }

    /// Real verifier invocations (memo misses) and memo hits, pinned in
    /// tests/test_pinned_counters.cpp. Every verify_cached() call on a known
    /// principal counts exactly once in one of the two.
    [[nodiscard]] std::uint64_t verify_ops() const;
    [[nodiscard]] std::uint64_t verify_cache_hits() const;
    /// Most verdicts the memo has held at once (at most 2 * kMemoWindow).
    [[nodiscard]] std::size_t memo_high_water() const;

private:
    /// The key epoch of the verifying entry plus the SHA-256 of
    /// (u32 len ‖ message ‖ u32 len ‖ signature); the length prefixes keep
    /// (m, s) and (m', s') with m‖s == m'‖s' apart.
    struct MemoKey {
        std::uint64_t epoch;
        std::array<std::uint8_t, 32> digest;
        bool operator==(const MemoKey&) const = default;
    };
    struct MemoKeyHash {
        std::size_t operator()(const MemoKey& k) const noexcept {
            std::size_t h;
            std::memcpy(&h, k.digest.data(), sizeof h);
            return h ^ k.epoch;
        }
    };
    using Memo = std::unordered_map<MemoKey, bool, MemoKeyHash>;

    struct Entry {
        std::unique_ptr<Signer> signer;
        std::unique_ptr<Verifier> verifier;
        /// Unique per entry, so replacing the entry (rotation) orphans every
        /// verdict memoized under the old key.
        std::uint64_t epoch;
    };

    void add_entry(const std::string& name, std::unique_ptr<Signer> signer,
                   std::unique_ptr<Verifier> verifier);
    void make_entry(const std::string& name);
    /// Records a verdict in the young generation. A full young generation
    /// first becomes the old one, and the previous old one is dropped.
    /// Caller holds memo_mutex_.
    void remember(const MemoKey& key, bool verdict) const;

    Backend backend_;
    std::size_t rsa_bits_;
    Rng rng_;
    std::unordered_map<std::string, Entry> entries_;
    std::uint64_t next_epoch_{0};
    /// Guards both generations and the counters; never held across a real
    /// verify.
    mutable std::mutex memo_mutex_;
    mutable Memo memo_young_;
    mutable Memo memo_old_;
    mutable std::size_t memo_high_water_{0};
    mutable std::uint64_t verify_ops_{0};
    mutable std::uint64_t verify_cache_hits_{0};
};

}  // namespace failsig::crypto
