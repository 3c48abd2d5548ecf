#include "crypto/envelope.hpp"

namespace failsig::crypto {

namespace {
/// Offset of the patched u32 index field: right after bytes(payload).
std::size_t index_offset(const Bytes& payload) { return 4 + payload.size(); }
}  // namespace

void SignedEnvelope::ensure_scratch() const {
    if (!scratch_.empty() && scratch_end_.size() == signatures_.size()) return;
    // Append any signature blocks not yet materialized (new signatures, or
    // an envelope freshly built by decode()), sizing the buffer once.
    std::size_t size = scratch_.empty() ? index_offset(payload_) + 4 : scratch_.size();
    for (std::size_t i = scratch_end_.size(); i < signatures_.size(); ++i) {
        size += 8 + signatures_[i].principal.size() + signatures_[i].signature.size();
    }
    ByteWriter w(std::move(scratch_));
    w.reserve(size);
    if (w.size() == 0) {
        w.bytes(payload_);
        w.u32(0);  // placeholder for the region index, patched per view
    }
    scratch_end_.reserve(signatures_.size());
    while (scratch_end_.size() < signatures_.size()) {
        const auto& block = signatures_[scratch_end_.size()];
        w.str(block.principal);
        w.bytes(block.signature);
        scratch_end_.push_back(w.size());
    }
    scratch_ = w.take();
}

std::span<const std::uint8_t> SignedEnvelope::region_view(std::size_t index) const {
    ensure_scratch();
    const std::size_t pos = index_offset(payload_);
    for (std::size_t i = 0; i < 4; ++i) {
        scratch_[pos + i] = static_cast<std::uint8_t>(index >> (8 * i));
    }
    const std::size_t len = index == 0 ? pos + 4 : scratch_end_[index - 1];
    return std::span<const std::uint8_t>(scratch_).first(len);
}

void SignedEnvelope::add_signature(const Signer& signer) {
    const auto region = region_view(signatures_.size());
    signatures_.push_back(SignatureBlock{signer.principal(), signer.sign(region)});
}

bool SignedEnvelope::verify_chain(const KeyService& keys) const {
    for (std::size_t i = 0; i < signatures_.size(); ++i) {
        const auto& block = signatures_[i];
        if (!keys.verify_cached(block.principal, region_view(i), block.signature)) return false;
    }
    return true;
}

bool SignedEnvelope::is_valid_double_signed(const KeyService& keys, const std::string& a,
                                            const std::string& b) const {
    if (signatures_.size() != 2) return false;
    const auto& first = signatures_[0].principal;
    const auto& second = signatures_[1].principal;
    const bool order_ok = (first == a && second == b) || (first == b && second == a);
    return order_ok && verify_chain(keys);
}

Bytes SignedEnvelope::encode() const {
    ByteWriter w;
    std::size_t size = 8 + payload_.size();
    for (const auto& block : signatures_) {
        size += 8 + block.principal.size() + block.signature.size();
    }
    w.reserve(size);
    w.bytes(payload_);
    w.u32(static_cast<std::uint32_t>(signatures_.size()));
    for (const auto& block : signatures_) {
        w.str(block.principal);
        w.bytes(block.signature);
    }
    return w.take();
}

Result<SignedEnvelope> SignedEnvelope::decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        SignedEnvelope env(r.bytes());
        const auto count = r.u32();
        if (count > 16) return Result<SignedEnvelope>::err("implausible signature count");
        env.signatures_.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            SignatureBlock block;
            block.principal = r.str();
            block.signature = r.bytes();
            env.signatures_.push_back(std::move(block));
        }
        if (!r.done()) return Result<SignedEnvelope>::err("trailing bytes in envelope");
        return env;
    } catch (const std::out_of_range&) {
        return Result<SignedEnvelope>::err("truncated envelope");
    }
}

}  // namespace failsig::crypto
