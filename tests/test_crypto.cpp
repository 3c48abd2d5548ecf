// Unit tests for the crypto substrate: digests against published test
// vectors, the dispatched SHA-256 kernel against the portable one, bignum
// arithmetic properties, RSA round-trips and tamper rejection, HMAC vectors,
// the verify memo's counters and bound (also under concurrent callers), and
// signed-envelope chains.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/biguint.hpp"
#include "crypto/envelope.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keys.hpp"
#include "crypto/md5.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

namespace failsig::crypto {
namespace {

Bytes B(std::string_view s) { return bytes_of(s); }

// ---------------------------------------------------------------------------
// MD5 (RFC 1321 test suite)
// ---------------------------------------------------------------------------

TEST(Md5, EmptyString) { EXPECT_EQ(to_hex(md5(B(""))), "d41d8cd98f00b204e9800998ecf8427e"); }

TEST(Md5, Abc) { EXPECT_EQ(to_hex(md5(B("abc"))), "900150983cd24fb0d6963f7d28e17f72"); }

TEST(Md5, MessageDigest) {
    EXPECT_EQ(to_hex(md5(B("message digest"))), "f96b697d7cb7938d525a2f31aaf161d0");
}

TEST(Md5, Alphabet) {
    EXPECT_EQ(to_hex(md5(B("abcdefghijklmnopqrstuvwxyz"))), "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Md5, AlphaNum) {
    EXPECT_EQ(to_hex(md5(B("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"))),
              "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(Md5, EightyDigits) {
    EXPECT_EQ(to_hex(md5(B("1234567890123456789012345678901234567890123456789012345678901234"
                           "5678901234567890"))),
              "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
    const Bytes data = B("the quick brown fox jumps over the lazy dog repeatedly and often");
    Md5 h;
    // Feed in awkward chunk sizes straddling block boundaries.
    std::size_t pos = 0;
    const std::size_t chunks[] = {1, 7, 13, 64, 3, 100};
    for (const auto c : chunks) {
        if (pos >= data.size()) break;
        const std::size_t take = std::min(c, data.size() - pos);
        h.update(std::span(data).subspan(pos, take));
        pos += take;
    }
    if (pos < data.size()) h.update(std::span(data).subspan(pos));
    const auto incremental = h.finish();
    EXPECT_EQ(to_hex(incremental), to_hex(Md5::hash(data)));
}

TEST(Md5, ExactBlockBoundary) {
    const Bytes data(64, 0x61);  // exactly one block of 'a'
    const Bytes data2(128, 0x61);
    EXPECT_NE(to_hex(Md5::hash(data)), to_hex(Md5::hash(data2)));
    // Spot value: md5 of 64 'a's.
    EXPECT_EQ(to_hex(md5(data)), "014842d480b571495a4a0363793f7367");
}

TEST(Md5, ResetReusesHasher) {
    Md5 h;
    h.update(B("garbage that must not leak into the second digest"));
    (void)h.finish();
    h.reset();
    h.update(B("abc"));
    const auto digest = h.finish();
    EXPECT_EQ(to_hex(Bytes(digest.begin(), digest.end())), "900150983cd24fb0d6963f7d28e17f72");
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 vectors)
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyString) {
    EXPECT_EQ(to_hex(sha256(B(""))),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(to_hex(sha256(B("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(to_hex(sha256(B("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
    const Bytes data(1000000, 0x61);
    EXPECT_EQ(to_hex(sha256(data)),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
    Bytes data(777);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 31);
    Sha256 h;
    h.update(std::span(data).subspan(0, 100));
    h.update(std::span(data).subspan(100, 500));
    h.update(std::span(data).subspan(600));
    const auto digest = h.finish();
    EXPECT_EQ(to_hex(Bytes(digest.begin(), digest.end())), to_hex(sha256(data)));
}

TEST(Sha256, FinishPadsAcrossTheLengthBoundary) {
    // 55 bytes fit padding and length in one block; 56..63 need a second.
    EXPECT_EQ(to_hex(sha256(Bytes(55, 0x61))),
              "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
    EXPECT_EQ(to_hex(sha256(Bytes(56, 0x61))),
              "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
    EXPECT_EQ(to_hex(sha256(Bytes(64, 0x61))),
              "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

Bytes random_bytes(Rng& rng, std::size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
    return out;
}

// SHA-256 of `data` computed without Sha256: padded by hand (FIPS 180-4
// §5.1.1) and compressed by the portable kernel alone.
std::array<std::uint8_t, Sha256::kDigestSize> portable_digest(std::span<const std::uint8_t> data) {
    Bytes padded(data.begin(), data.end());
    padded.push_back(0x80);
    while (padded.size() % Sha256::kBlockSize != 56) padded.push_back(0);
    const std::uint64_t bits = data.size() * 8;
    for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    detail::sha256_blocks_portable(state, padded.data(), padded.size() / Sha256::kBlockSize);
    std::array<std::uint8_t, Sha256::kDigestSize> out{};
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<std::uint8_t>(state[i / 4] >> (8 * (3 - i % 4)));
    }
    return out;
}

TEST(Sha256, DispatchedKernelMatchesPortableAtEveryLengthAndSplit) {
    Rng rng(4231);
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
    lengths.push_back(4096 + 17);
    for (const std::size_t n : lengths) {
        const Bytes data = random_bytes(rng, n);
        // update() at seeded random split points, so every buffered/whole-block
        // path and every block offset is crossed.
        Sha256 h;
        std::size_t pos = 0;
        while (pos < n) {
            const std::size_t take = std::min<std::size_t>(1 + rng.uniform(150), n - pos);
            h.update(std::span(data).subspan(pos, take));
            pos += take;
        }
        EXPECT_EQ(h.finish(), portable_digest(data)) << "length " << n;
    }
}

TEST(Sha256, BlocksMatchesPortableFromArbitraryStates) {
    Rng rng(180);
    for (const std::size_t n : {1u, 2u, 3u, 17u, 64u}) {
        const Bytes data = random_bytes(rng, n * Sha256::kBlockSize);
        std::uint32_t dispatched[8], portable[8];
        for (int i = 0; i < 8; ++i) dispatched[i] = portable[i] = static_cast<std::uint32_t>(rng.next());
        Sha256::blocks(dispatched, data.data(), n);
        detail::sha256_blocks_portable(portable, data.data(), n);
        for (int i = 0; i < 8; ++i) EXPECT_EQ(dispatched[i], portable[i]) << n << " blocks, word " << i;
    }
}

TEST(Sha256, ResetAfterFinishStartsOver) {
    Sha256 h;
    h.update(Bytes(100, 0x01));
    (void)h.finish();
    h.reset();
    h.update(B("abc"));
    EXPECT_EQ(to_hex(h.finish()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ---------------------------------------------------------------------------
// HMAC (RFC 4231 / RFC 2202 vectors)
// ---------------------------------------------------------------------------

// The same vectors through the precomputed-pad path: one HmacSha256 object
// per key, several tags from it, none disturbing the saved pad states.
TEST(Hmac, PrecomputedPadsMatchRfc4231) {
    const HmacSha256 case1(Bytes(20, 0x0b));
    const HmacSha256 case2(B("Jefe"));
    const HmacSha256 long_key(Bytes(131, 0xaa));
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(to_hex(case1.tag(B("Hi There"))),
                  "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
        EXPECT_EQ(to_hex(case2.tag(B("what do ya want for nothing?"))),
                  "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
        EXPECT_EQ(to_hex(long_key.tag(B("Test Using Larger Than Block-Size Key - Hash Key First"))),
                  "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    }
}

TEST(Hmac, PrecomputedPadsMatchOneShotAtManyLengths) {
    Rng rng(2104);
    const Bytes key = random_bytes(rng, 32);
    const HmacSha256 mac(key);
    for (std::size_t n = 0; n <= 200; n += 7) {
        const Bytes data = random_bytes(rng, n);
        const auto t = mac.tag(data);
        EXPECT_EQ(Bytes(t.begin(), t.end()), hmac_sha256(key, data)) << "length " << n;
    }
}

TEST(Hmac, Sha256Rfc4231Case1) {
    const Bytes key(20, 0x0b);
    EXPECT_EQ(to_hex(hmac_sha256(key, B("Hi There"))),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Sha256Rfc4231Case2) {
    EXPECT_EQ(to_hex(hmac_sha256(B("Jefe"), B("what do ya want for nothing?"))),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Sha256LongKeyIsHashedFirst) {
    const Bytes key(131, 0xaa);
    EXPECT_EQ(to_hex(hmac_sha256(key, B("Test Using Larger Than Block-Size Key - Hash Key First"))),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DifferentKeysDifferentTags) {
    const Bytes k1(32, 0x01), k2(32, 0x02);
    EXPECT_NE(to_hex(hmac_sha256(k1, B("m"))), to_hex(hmac_sha256(k2, B("m"))));
}

// ---------------------------------------------------------------------------
// BigUint arithmetic
// ---------------------------------------------------------------------------

TEST(BigUint, ZeroProperties) {
    const BigUint z;
    EXPECT_TRUE(z.is_zero());
    EXPECT_EQ(z.bit_length(), 0u);
    EXPECT_EQ(z.to_hex(), "0");
    EXPECT_EQ(z + z, z);
    EXPECT_EQ(z * BigUint{12345}, z);
}

TEST(BigUint, HexRoundTrip) {
    const auto v = BigUint::from_hex("deadbeefcafebabe0123456789abcdef00ff");
    EXPECT_EQ(v.to_hex(), "deadbeefcafebabe0123456789abcdef00ff");
}

TEST(BigUint, BytesRoundTrip) {
    Bytes b = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
    const auto v = BigUint::from_bytes_be(b);
    EXPECT_EQ(v.to_bytes_be(9), b);
    // Padding grows on the left.
    Bytes padded = v.to_bytes_be(12);
    EXPECT_EQ(padded.size(), 12u);
    EXPECT_EQ(padded[0], 0);
    EXPECT_EQ(padded[3], 0x01);
}

TEST(BigUint, AddSubInverse) {
    Rng rng(42);
    for (int i = 0; i < 50; ++i) {
        Bytes ab(1 + rng.uniform(40)), bb(1 + rng.uniform(40));
        for (auto& x : ab) x = static_cast<std::uint8_t>(rng.next());
        for (auto& x : bb) x = static_cast<std::uint8_t>(rng.next());
        const auto a = BigUint::from_bytes_be(ab);
        const auto b = BigUint::from_bytes_be(bb);
        EXPECT_EQ((a + b) - b, a);
        EXPECT_EQ((a + b) - a, b);
    }
}

TEST(BigUint, SubUnderflowThrows) {
    EXPECT_THROW(BigUint{1} - BigUint{2}, std::underflow_error);
}

TEST(BigUint, MulDivProperty) {
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        Bytes ab(1 + rng.uniform(32)), bb(1 + rng.uniform(16));
        for (auto& x : ab) x = static_cast<std::uint8_t>(rng.next());
        for (auto& x : bb) x = static_cast<std::uint8_t>(rng.next());
        const auto a = BigUint::from_bytes_be(ab);
        const auto b = BigUint::from_bytes_be(bb);
        if (b.is_zero()) continue;
        const auto [q, r] = a.divmod(b);
        EXPECT_EQ(q * b + r, a);
        EXPECT_LT(r, b);
    }
}

TEST(BigUint, DivByZeroThrows) {
    EXPECT_THROW(BigUint{5}.divmod(BigUint{}), std::domain_error);
}

TEST(BigUint, ShiftRoundTrip) {
    const auto v = BigUint::from_hex("123456789abcdef0fedcba9876543210");
    for (std::size_t s : {1u, 7u, 63u, 64u, 65u, 130u}) {
        EXPECT_EQ((v << s) >> s, v) << "shift " << s;
    }
}

TEST(BigUint, KnownMultiplication) {
    // 0xffffffffffffffff^2 = 0xfffffffffffffffe0000000000000001
    const auto v = BigUint::from_hex("ffffffffffffffff");
    EXPECT_EQ((v * v).to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigUint, Comparison) {
    EXPECT_LT(BigUint{1}, BigUint{2});
    EXPECT_LT(BigUint::from_hex("ffffffffffffffff"), BigUint::from_hex("10000000000000000"));
    EXPECT_EQ(BigUint{7}, BigUint{7});
}

TEST(BigUint, ModInverse) {
    // 3 * 4 = 12 = 1 mod 11
    EXPECT_EQ(mod_inverse(BigUint{3}, BigUint{11}), BigUint{4});
    EXPECT_THROW(mod_inverse(BigUint{6}, BigUint{9}), std::domain_error);
}

TEST(BigUint, ModInverseLarge) {
    Rng rng(99);
    const BigUint m = BigUint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff");
    for (int i = 0; i < 10; ++i) {
        Bytes ab(20);
        for (auto& x : ab) x = static_cast<std::uint8_t>(rng.next());
        const auto a = BigUint::from_bytes_be(ab);
        if (a.is_zero()) continue;
        BigUint inv;
        try {
            inv = mod_inverse(a, m);
        } catch (const std::domain_error&) {
            continue;
        }
        EXPECT_EQ((a * inv).mod(m), BigUint{1});
    }
}

// ---------------------------------------------------------------------------
// Montgomery modexp
// ---------------------------------------------------------------------------

TEST(Montgomery, SmallKnownValues) {
    const Montgomery m(BigUint{97});
    EXPECT_EQ(m.modexp(BigUint{5}, BigUint{3}), BigUint{125 % 97});
    EXPECT_EQ(m.modexp(BigUint{2}, BigUint{96}), BigUint{1});  // Fermat
    EXPECT_EQ(m.modexp(BigUint{7}, BigUint{0}), BigUint{1});
}

TEST(Montgomery, EvenModulusRejected) {
    EXPECT_THROW(Montgomery(BigUint{10}), std::domain_error);
    EXPECT_THROW(Montgomery(BigUint{1}), std::domain_error);
}

TEST(Montgomery, MatchesNaiveForRandomInputs) {
    Rng rng(1234);
    for (int trial = 0; trial < 20; ++trial) {
        // Random odd modulus up to 128 bits.
        Bytes mb(16);
        for (auto& x : mb) x = static_cast<std::uint8_t>(rng.next());
        mb.back() |= 1;
        mb.front() |= 0x80;
        const auto mod = BigUint::from_bytes_be(mb);
        const Montgomery mont(mod);

        Bytes ab(8), eb(2);
        for (auto& x : ab) x = static_cast<std::uint8_t>(rng.next());
        for (auto& x : eb) x = static_cast<std::uint8_t>(rng.next());
        const auto base = BigUint::from_bytes_be(ab);
        const auto exp = BigUint::from_bytes_be(eb);

        // Naive square-and-multiply using divmod.
        BigUint naive{1};
        for (std::size_t i = exp.bit_length(); i-- > 0;) {
            naive = (naive * naive).mod(mod);
            if (exp.bit(i)) naive = (naive * base).mod(mod);
        }
        EXPECT_EQ(mont.modexp(base, exp), naive) << "trial " << trial;
    }
}

TEST(Montgomery, ModMul) {
    const Montgomery m(BigUint::from_hex("100000000000000000000000000000001"));  // odd? ends in 1
    const auto a = BigUint::from_hex("fedcba9876543210");
    const auto b = BigUint::from_hex("123456789abcdef");
    EXPECT_EQ(m.modmul(a, b), (a * b).mod(m.modulus()));
}

// ---------------------------------------------------------------------------
// Primality and RSA
// ---------------------------------------------------------------------------

TEST(Prime, KnownSmallPrimes) {
    Rng rng(5);
    for (std::uint64_t p : {2ull, 3ull, 5ull, 101ull, 65537ull, 2147483647ull}) {
        EXPECT_TRUE(is_probable_prime(BigUint{p}, rng)) << p;
    }
}

TEST(Prime, KnownComposites) {
    Rng rng(6);
    for (std::uint64_t c : {1ull, 4ull, 100ull, 65535ull, 561ull /*Carmichael*/,
                            341ull /*pseudoprime base 2*/}) {
        EXPECT_FALSE(is_probable_prime(BigUint{c}, rng)) << c;
    }
}

TEST(Prime, MersennePrime127) {
    Rng rng(7);
    const auto m127 = (BigUint{1} << 127) - BigUint{1};
    EXPECT_TRUE(is_probable_prime(m127, rng));
    const auto m128 = (BigUint{1} << 128) - BigUint{1};
    EXPECT_FALSE(is_probable_prime(m128, rng));
}

TEST(Rsa, GenerateSignVerify512) {
    Rng rng(2026);
    const auto kp = rsa_generate(512, rng);
    EXPECT_EQ(kp.pub.bits, 512u);
    EXPECT_EQ(kp.pub.n.bit_length(), 512u);

    const Bytes msg = B("total order is announced");
    const Bytes sig = rsa_sign(kp.priv, msg);
    EXPECT_EQ(sig.size(), 64u);
    EXPECT_TRUE(rsa_verify(kp.pub, msg, sig));
}

TEST(Rsa, TamperedMessageRejected) {
    Rng rng(2027);
    const auto kp = rsa_generate(512, rng);
    const Bytes msg = B("pay 100 to carol");
    const Bytes sig = rsa_sign(kp.priv, msg);
    Bytes tampered = msg;
    tampered[4] ^= 0x01;
    EXPECT_FALSE(rsa_verify(kp.pub, tampered, sig));
}

TEST(Rsa, TamperedSignatureRejected) {
    Rng rng(2028);
    const auto kp = rsa_generate(512, rng);
    const Bytes msg = B("view change 7");
    Bytes sig = rsa_sign(kp.priv, msg);
    sig[10] ^= 0x80;
    EXPECT_FALSE(rsa_verify(kp.pub, msg, sig));
}

TEST(Rsa, WrongKeyRejected) {
    Rng rng(2029);
    const auto kp1 = rsa_generate(512, rng);
    const auto kp2 = rsa_generate(512, rng);
    const Bytes msg = B("m");
    const Bytes sig = rsa_sign(kp1.priv, msg);
    EXPECT_FALSE(rsa_verify(kp2.pub, msg, sig));
}

TEST(Rsa, Sha256DigestModeWorks) {
    Rng rng(2030);
    const auto kp = rsa_generate(512, rng);
    const Bytes msg = B("sha mode");
    const Bytes sig = rsa_sign(kp.priv, msg, DigestAlgorithm::kSha256);
    EXPECT_TRUE(rsa_verify(kp.pub, msg, sig, DigestAlgorithm::kSha256));
    // Digest algorithm is bound into the padding: cross-verification fails.
    EXPECT_FALSE(rsa_verify(kp.pub, msg, sig, DigestAlgorithm::kMd5));
}

TEST(Rsa, WrongSizeSignatureRejected) {
    Rng rng(2031);
    const auto kp = rsa_generate(512, rng);
    EXPECT_FALSE(rsa_verify(kp.pub, B("m"), Bytes(63, 0)));
    EXPECT_FALSE(rsa_verify(kp.pub, B("m"), Bytes(65, 0)));
    EXPECT_FALSE(rsa_verify(kp.pub, B("m"), Bytes{}));
}

TEST(Rsa, DifferentBitsizes) {
    Rng rng(2032);
    for (const std::size_t bits : {256u, 384u, 768u}) {
        const auto kp = rsa_generate(bits, rng);
        EXPECT_EQ(kp.pub.n.bit_length(), bits);
        const Bytes msg = B("size sweep");
        EXPECT_TRUE(rsa_verify(kp.pub, msg, rsa_sign(kp.priv, msg)));
    }
}

// ---------------------------------------------------------------------------
// KeyService & SignedEnvelope
// ---------------------------------------------------------------------------

class KeyServiceTest : public ::testing::TestWithParam<crypto::KeyService::Backend> {};

TEST_P(KeyServiceTest, SignVerifyRoundTrip) {
    KeyService keys(GetParam(), 512, 1);
    keys.register_principal("FSO:1");
    const Bytes msg = B("hello");
    const Bytes sig = keys.signer("FSO:1").sign(msg);
    EXPECT_TRUE(keys.verifier("FSO:1").verify(msg, sig));
    Bytes bad = msg;
    bad[0] ^= 1;
    EXPECT_FALSE(keys.verifier("FSO:1").verify(bad, sig));
}

TEST_P(KeyServiceTest, PrincipalsAreIsolated) {
    KeyService keys(GetParam(), 512, 2);
    keys.register_principal("a");
    keys.register_principal("b");
    const Bytes msg = B("m");
    const Bytes sig_a = keys.signer("a").sign(msg);
    EXPECT_FALSE(keys.verifier("b").verify(msg, sig_a));
}

TEST_P(KeyServiceTest, RegisterIsIdempotent) {
    KeyService keys(GetParam(), 512, 3);
    keys.register_principal("x");
    const Bytes sig1 = keys.signer("x").sign(B("m"));
    keys.register_principal("x");  // must not rotate the key
    EXPECT_TRUE(keys.verifier("x").verify(B("m"), sig1));
}

TEST_P(KeyServiceTest, UnknownPrincipalThrows) {
    KeyService keys(GetParam(), 512, 4);
    EXPECT_THROW((void)keys.signer("ghost"), std::out_of_range);
    EXPECT_FALSE(keys.has_principal("ghost"));
}

INSTANTIATE_TEST_SUITE_P(Backends, KeyServiceTest,
                         ::testing::Values(crypto::KeyService::Backend::kHmac,
                                           crypto::KeyService::Backend::kRsa),
                         [](const auto& info) {
                             return info.param == crypto::KeyService::Backend::kHmac ? "Hmac"
                                                                                     : "Rsa";
                         });

// ---------------------------------------------------------------------------
// KeyService::verify_cached memo
// ---------------------------------------------------------------------------

TEST(VerifyCached, HitAfterMiss) {
    KeyService keys(KeyService::Backend::kHmac, 512, 20);
    keys.register_principal("p");
    const Bytes msg = B("ordered 7");
    const Bytes sig = keys.signer("p").sign(msg);
    EXPECT_TRUE(keys.verify_cached("p", msg, sig));
    EXPECT_EQ(keys.verify_ops(), 1u);
    EXPECT_EQ(keys.verify_cache_hits(), 0u);
    EXPECT_TRUE(keys.verify_cached("p", msg, sig));
    EXPECT_EQ(keys.verify_ops(), 1u);
    EXPECT_EQ(keys.verify_cache_hits(), 1u);
}

TEST(VerifyCached, TamperedSignatureIsMemoizedAsFalse) {
    KeyService keys(KeyService::Backend::kHmac, 512, 21);
    keys.register_principal("p");
    const Bytes msg = B("ordered 8");
    const Bytes sig = keys.signer("p").sign(msg);
    Bytes bad = sig;
    bad[3] ^= 0x10;
    EXPECT_FALSE(keys.verify_cached("p", msg, bad));
    EXPECT_FALSE(keys.verify_cached("p", msg, bad));
    EXPECT_EQ(keys.verify_ops(), 1u);
    EXPECT_EQ(keys.verify_cache_hits(), 1u);
    // The genuine signature is a different memo key: a fresh, true verify.
    EXPECT_TRUE(keys.verify_cached("p", msg, sig));
    EXPECT_EQ(keys.verify_ops(), 2u);
    // Moving a byte between message and signature is a different key too.
    Bytes shifted_msg = msg;
    shifted_msg.push_back(sig[0]);
    EXPECT_FALSE(keys.verify_cached("p", shifted_msg, std::span(sig).subspan(1)));
    EXPECT_EQ(keys.verify_ops(), 3u);
}

TEST(VerifyCached, RotationForcesReverify) {
    KeyService keys(KeyService::Backend::kHmac, 512, 22);
    keys.register_principal("p");
    keys.register_principal("q");
    const Bytes msg = B("view 3");
    const Bytes sig_p = keys.signer("p").sign(msg);
    const Bytes sig_q = keys.signer("q").sign(msg);
    EXPECT_TRUE(keys.verify_cached("p", msg, sig_p));
    EXPECT_TRUE(keys.verify_cached("q", msg, sig_q));
    keys.rotate_principal("p");
    // Old-key signature is re-checked under the new key, not served from the memo.
    EXPECT_FALSE(keys.verify_cached("p", msg, sig_p));
    EXPECT_EQ(keys.verify_ops(), 3u);
    EXPECT_EQ(keys.verify_cache_hits(), 0u);
    // Other principals keep their memo.
    EXPECT_TRUE(keys.verify_cached("q", msg, sig_q));
    EXPECT_EQ(keys.verify_cache_hits(), 1u);
    // Unknown principals fail without counting.
    EXPECT_FALSE(keys.verify_cached("ghost", msg, sig_p));
    EXPECT_EQ(keys.verify_ops() + keys.verify_cache_hits(), 4u);
}

TEST(VerifyCached, ConcurrentCallersCountEveryCallOnce) {
    KeyService keys(KeyService::Backend::kHmac, 512, 23);
    keys.register_principal("a");
    keys.register_principal("b");
    constexpr int kThreads = 4;
    constexpr int kCalls = 10000;
    constexpr int kMessages = 64;
    std::vector<Bytes> messages, sigs;
    for (int i = 0; i < kMessages; ++i) {
        messages.push_back(bytes_of("m" + std::to_string(i)));
        sigs.push_back(keys.signer(i % 2 == 0 ? "a" : "b").sign(messages.back()));
    }
    std::vector<int> wrong(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(static_cast<std::uint64_t>(100 + t));
            for (int c = 0; c < kCalls; ++c) {
                const auto i = static_cast<std::size_t>(rng.uniform(kMessages));
                // Every fourth call asks the wrong principal: a memoized false.
                const bool honest = rng.uniform(4) != 0;
                const std::string name = ((i % 2 == 0) == honest) ? "a" : "b";
                if (keys.verify_cached(name, messages[i], sigs[i]) != honest) ++wrong[t];
            }
        });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
    EXPECT_EQ(keys.verify_ops() + keys.verify_cache_hits(),
              static_cast<std::uint64_t>(kThreads * kCalls));
    // At most one miss per (principal, message) per racing thread.
    EXPECT_GE(keys.verify_ops(), static_cast<std::uint64_t>(kMessages));
    EXPECT_LE(keys.verify_ops(), static_cast<std::uint64_t>(2 * kMessages * kThreads));
}

/// `count` distinct messages "<tag><i>" and their signatures by `name`.
std::pair<std::vector<Bytes>, std::vector<Bytes>> signed_messages(const KeyService& keys,
                                                                  const std::string& name,
                                                                  const std::string& tag,
                                                                  std::size_t count) {
    std::vector<Bytes> messages, sigs;
    for (std::size_t i = 0; i < count; ++i) {
        messages.push_back(bytes_of(tag + std::to_string(i)));
        sigs.push_back(keys.signer(name).sign(messages.back()));
    }
    return {std::move(messages), std::move(sigs)};
}

TEST(VerifyCached, EvictsVerdictsOlderThanTwoGenerations) {
    KeyService keys(KeyService::Backend::kHmac, 512, 24);
    keys.register_principal("p");
    constexpr std::size_t kWindow = KeyService::kMemoWindow;
    const auto [messages, sigs] = signed_messages(keys, "p", "m", 2 * kWindow + 1);
    for (std::size_t i = 0; i < messages.size(); ++i) {
        ASSERT_TRUE(keys.verify_cached("p", messages[i], sigs[i]));
    }
    EXPECT_EQ(keys.verify_ops(), messages.size());
    EXPECT_EQ(keys.memo_high_water(), 2 * kWindow);

    // The first verdict fell out of the window: a real verify, still true.
    EXPECT_TRUE(keys.verify_cached("p", messages.front(), sigs.front()));
    EXPECT_EQ(keys.verify_ops(), messages.size() + 1);
    EXPECT_EQ(keys.verify_cache_hits(), 0u);
    // Eviction never turns a tampered copy into a memoized true.
    Bytes tampered = messages.front();
    tampered[0] ^= 0x01;
    EXPECT_FALSE(keys.verify_cached("p", tampered, sigs.front()));
    EXPECT_EQ(keys.verify_ops(), messages.size() + 2);
    // The newest verdict is still memoized.
    EXPECT_TRUE(keys.verify_cached("p", messages.back(), sigs.back()));
    EXPECT_EQ(keys.verify_cache_hits(), 1u);
    EXPECT_LE(keys.memo_high_water(), 2 * kWindow);
}

TEST(VerifyCached, ReuseWithinTheWindowAlwaysHits) {
    KeyService keys(KeyService::Backend::kHmac, 512, 25);
    keys.register_principal("p");
    constexpr std::size_t kWindow = KeyService::kMemoWindow;
    constexpr std::size_t kGap = 1000;
    const Bytes hot = B("hot");
    const Bytes hot_sig = keys.signer("p").sign(hot);
    ASSERT_TRUE(keys.verify_cached("p", hot, hot_sig));
    const auto [messages, sigs] = signed_messages(keys, "p", "m", 10 * kWindow);
    for (std::size_t i = 0; i < messages.size(); ++i) {
        ASSERT_TRUE(keys.verify_cached("p", messages[i], sigs[i]));
        if ((i + 1) % kGap != 0) continue;
        const auto hits = keys.verify_cache_hits();
        EXPECT_TRUE(keys.verify_cached("p", hot, hot_sig));
        EXPECT_EQ(keys.verify_cache_hits(), hits + 1) << "re-verify after fresh message " << i;
    }
    EXPECT_EQ(keys.verify_ops(), 1 + messages.size());
    EXPECT_EQ(keys.verify_cache_hits(), messages.size() / kGap);
}

TEST(VerifyCached, ConcurrentCallersPastTheBound) {
    KeyService keys(KeyService::Backend::kHmac, 512, 26);
    keys.register_principal("a");
    keys.register_principal("b");
    constexpr int kThreads = 4;
    constexpr std::size_t kMessages = 3 * KeyService::kMemoWindow;
    constexpr int kCalls = static_cast<int>(2 * kMessages);
    std::vector<Bytes> messages, sigs;
    for (std::size_t i = 0; i < kMessages; ++i) {
        messages.push_back(bytes_of("m" + std::to_string(i)));
        sigs.push_back(keys.signer(i % 2 == 0 ? "a" : "b").sign(messages.back()));
    }
    std::vector<int> wrong(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(static_cast<std::uint64_t>(200 + t));
            for (int c = 0; c < kCalls; ++c) {
                const auto i = static_cast<std::size_t>(rng.uniform(kMessages));
                // Every fourth call asks the wrong principal: a false verdict.
                const bool honest = rng.uniform(4) != 0;
                const std::string name = ((i % 2 == 0) == honest) ? "a" : "b";
                if (keys.verify_cached(name, messages[i], sigs[i]) != honest) ++wrong[t];
            }
        });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
    EXPECT_EQ(keys.verify_ops() + keys.verify_cache_hits(),
              static_cast<std::uint64_t>(kThreads) * kCalls);
    EXPECT_LE(keys.memo_high_water(), 2 * KeyService::kMemoWindow);
}

TEST(SignedEnvelope, DoubleSignedValidation) {
    KeyService keys(KeyService::Backend::kHmac, 512, 10);
    keys.register_principal("Compare");
    keys.register_principal("Compare'");

    SignedEnvelope env(B("output of p"));
    env.add_signature(keys.signer("Compare"));
    env.add_signature(keys.signer("Compare'"));

    EXPECT_TRUE(env.verify_chain(keys));
    EXPECT_TRUE(env.is_valid_double_signed(keys, "Compare", "Compare'"));
    // Order-agnostic: both (leader-first) and (follower-first) are valid.
    EXPECT_TRUE(env.is_valid_double_signed(keys, "Compare'", "Compare"));
}

TEST(SignedEnvelope, SingleSignatureIsNotDoubleSigned) {
    KeyService keys(KeyService::Backend::kHmac, 512, 11);
    keys.register_principal("Compare");
    SignedEnvelope env(B("x"));
    env.add_signature(keys.signer("Compare"));
    EXPECT_TRUE(env.verify_chain(keys));
    EXPECT_FALSE(env.is_valid_double_signed(keys, "Compare", "Compare'"));
}

TEST(SignedEnvelope, WrongPrincipalsRejected) {
    KeyService keys(KeyService::Backend::kHmac, 512, 12);
    keys.register_principal("a");
    keys.register_principal("b");
    keys.register_principal("c");
    SignedEnvelope env(B("x"));
    env.add_signature(keys.signer("a"));
    env.add_signature(keys.signer("c"));
    EXPECT_FALSE(env.is_valid_double_signed(keys, "a", "b"));
}

TEST(SignedEnvelope, EncodeDecodeRoundTrip) {
    KeyService keys(KeyService::Backend::kHmac, 512, 13);
    keys.register_principal("p1");
    keys.register_principal("p2");
    SignedEnvelope env(B("payload bytes"));
    env.add_signature(keys.signer("p1"));
    env.add_signature(keys.signer("p2"));

    const Bytes wire = env.encode();
    const auto decoded = SignedEnvelope::decode(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value().payload(), env.payload());
    EXPECT_TRUE(decoded.value().verify_chain(keys));
}

TEST(SignedEnvelope, PayloadTamperBreaksChain) {
    KeyService keys(KeyService::Backend::kHmac, 512, 14);
    keys.register_principal("p1");
    SignedEnvelope env(B("honest"));
    env.add_signature(keys.signer("p1"));
    Bytes wire = env.encode();
    wire[5] ^= 0xff;  // flip a payload byte
    const auto decoded = SignedEnvelope::decode(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_FALSE(decoded.value().verify_chain(keys));
}

TEST(SignedEnvelope, CountersignatureCoversFirstSignature) {
    // Swapping the first signature after countersigning must invalidate the
    // chain, because signature 2 covers signature block 1.
    KeyService keys(KeyService::Backend::kHmac, 512, 15);
    keys.register_principal("p1");
    keys.register_principal("p2");

    SignedEnvelope a(B("m"));
    a.add_signature(keys.signer("p1"));
    a.add_signature(keys.signer("p2"));

    SignedEnvelope b(B("m"));
    b.add_signature(keys.signer("p2"));  // different first signer
    ASSERT_TRUE(a.verify_chain(keys));

    // Graft b's first block onto a's second block via wire surgery:
    SignedEnvelope franken(B("m"));
    franken.add_signature(keys.signer("p2"));
    // now append a's second signature block verbatim by decoding a's wire
    Bytes wire_a = a.encode();
    auto decoded_a = SignedEnvelope::decode(wire_a);
    ASSERT_TRUE(decoded_a.has_value());
    // Rebuild manually: payload + [b's block, a's second block]
    ByteWriter w;
    w.bytes(B("m"));
    w.u32(2);
    w.str(franken.signatures()[0].principal);
    w.bytes(franken.signatures()[0].signature);
    w.str(decoded_a.value().signatures()[1].principal);
    w.bytes(decoded_a.value().signatures()[1].signature);
    const auto grafted = SignedEnvelope::decode(w.view());
    ASSERT_TRUE(grafted.has_value());
    EXPECT_FALSE(grafted.value().verify_chain(keys));
}

TEST(SignedEnvelope, DecodeRejectsGarbage) {
    EXPECT_FALSE(SignedEnvelope::decode(Bytes{1, 2, 3}).has_value());
    EXPECT_FALSE(SignedEnvelope::decode(Bytes{}).has_value());
    // Implausible signature count.
    ByteWriter w;
    w.bytes(Bytes{});
    w.u32(1000000);
    EXPECT_FALSE(SignedEnvelope::decode(w.view()).has_value());
}

}  // namespace
}  // namespace failsig::crypto
