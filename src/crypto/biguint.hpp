// Arbitrary-precision unsigned integers and Montgomery modular arithmetic.
//
// This is the arithmetic substrate for the RSA implementation (the paper's
// signature scheme). It is deliberately small: schoolbook multiplication,
// binary long division (rare operations: key generation and padding
// reduction), and CIOS Montgomery multiplication for the hot modexp path.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace failsig::crypto {

class BigUint;

/// Quotient/remainder pair returned by BigUint::divmod.
struct BigUintDivMod;

/// Unsigned big integer, little-endian 64-bit limbs, always normalized
/// (no trailing zero limbs; zero is the empty limb vector).
class BigUint {
public:
    BigUint() = default;
    explicit BigUint(std::uint64_t v);

    static BigUint from_bytes_be(std::span<const std::uint8_t> data);
    static BigUint from_hex(std::string_view hex);

    /// Big-endian bytes, left-padded with zeros to at least `min_size`.
    [[nodiscard]] Bytes to_bytes_be(std::size_t min_size = 0) const;
    [[nodiscard]] std::string to_hex() const;

    [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
    [[nodiscard]] bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
    [[nodiscard]] std::size_t bit_length() const;
    [[nodiscard]] bool bit(std::size_t i) const;
    [[nodiscard]] std::size_t limb_count() const { return limbs_.size(); }
    [[nodiscard]] std::uint64_t limb(std::size_t i) const {
        return i < limbs_.size() ? limbs_[i] : 0;
    }

    friend bool operator==(const BigUint& a, const BigUint& b) { return a.limbs_ == b.limbs_; }
    friend std::strong_ordering operator<=>(const BigUint& a, const BigUint& b);

    friend BigUint operator+(const BigUint& a, const BigUint& b);
    /// Requires a >= b; throws std::underflow_error otherwise.
    friend BigUint operator-(const BigUint& a, const BigUint& b);
    friend BigUint operator*(const BigUint& a, const BigUint& b);
    friend BigUint operator<<(const BigUint& a, std::size_t bits);
    friend BigUint operator>>(const BigUint& a, std::size_t bits);

    /// Long division; throws std::domain_error on divide-by-zero.
    [[nodiscard]] BigUintDivMod divmod(const BigUint& divisor) const;
    [[nodiscard]] BigUint mod(const BigUint& m) const;

private:
    void normalize();

    std::vector<std::uint64_t> limbs_;
};

struct BigUintDivMod {
    BigUint quotient;
    BigUint remainder;
};

/// Modular inverse of `a` modulo `m` (extended Euclid).
/// Throws std::domain_error when gcd(a, m) != 1.
BigUint mod_inverse(const BigUint& a, const BigUint& m);

/// Montgomery context for a fixed odd modulus; provides fast modexp.
class Montgomery {
public:
    /// `modulus` must be odd and > 1; throws std::domain_error otherwise.
    explicit Montgomery(BigUint modulus);

    [[nodiscard]] const BigUint& modulus() const { return n_; }

    /// (base ^ exponent) mod modulus.
    [[nodiscard]] BigUint modexp(const BigUint& base, const BigUint& exponent) const;

    /// (a * b) mod modulus — via Montgomery domain round-trip.
    [[nodiscard]] BigUint modmul(const BigUint& a, const BigUint& b) const;

private:
    using Limbs = std::vector<std::uint64_t>;

    [[nodiscard]] Limbs to_limbs(const BigUint& v) const;
    [[nodiscard]] BigUint from_limbs(const Limbs& v) const;
    /// CIOS Montgomery product: returns (a * b * R^-1) mod n.
    [[nodiscard]] Limbs mont_mul(const Limbs& a, const Limbs& b) const;

    BigUint n_;
    Limbs n_limbs_;
    std::uint64_t n0inv_{0};  // -n^{-1} mod 2^64
    Limbs r1_;                // R mod n (Montgomery form of 1)
    Limbs r2_;                // R^2 mod n
};

}  // namespace failsig::crypto
