// Deterministic random number generation for Monte-Carlo studies.
//
// Reproducibility rule: every stochastic experiment takes an explicit seed,
// and named child streams derived from one master seed stay independent of
// the order in which modules draw from them.
//
// Engine.  Rng draws from Lazy_mt19937_64, a lazily generated MT19937-64.
// Its contract is "same output as std::mt19937_64(seed)", bit for bit, so
// every normal / truncated_normal / uniform / index draw is the one the
// std engine would produce.  The Monte-Carlo loops give each sample its
// own Rng::stream and draw only a handful of values from it (an LE3
// sample: 5 truncated normals, ~6-7 engine outputs).  An eagerly seeded
// std::mt19937_64 pays for all 312 state words twice per stream: a
// 312-step seed chain, then a 312-word twist on the first draw.  Output
// j < 156 of the first block depends only on seed-chain words j, j+1 and
// j+156, so the lazy engine extends the chain and twists one word per
// draw.  Cost model: k <= 156 draws cost a (156 + k)-word seed chain plus
// k single-word twists; drawing output 156 finishes the chain and the
// second half of the first twist; later blocks regenerate whole, as std
// does.
//
// Lockstep seeding.  The seed chain is serial: word k is a 64-bit
// multiply of word k - 1, so one chain runs at the multiply's latency
// (~6 cycles a word), not its throughput.  Rng::streams opens
// Rng::stream_lanes consecutive substreams at once and builds their
// independent chains interleaved in one loop, so the latency is paid once
// per group instead of once per stream (a 172-word chain, 4-core x86-64
// Xeon VM: 370-400 ns alone, 115-140 ns per stream at 4 lanes).  Each
// chain is pre-built to 156 + Rng::prebuilt_draws words, the chain a
// stream needs for its first prebuilt_draws outputs; a stream that draws
// more extends it lazily, exactly as a stream opened alone does.
//
// Constructing an Rng only to read seed() (Rng(seed).child(name).seed())
// touches one state word.
//
// Platform pins.  child() hashes names with std::hash<std::string_view>,
// and the draws use libstdc++'s normal / uniform distributions; neither
// is specified by the standard.  Like the golden result hashes
// (tests/test_golden_results.cpp, an x86-64 glibc build), the streams are
// pinned to libstdc++.
#ifndef MPSRAM_UTIL_RNG_H
#define MPSRAM_UTIL_RNG_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string_view>

namespace mpsram::util {

/// MT19937-64 whose output sequence is exactly std::mt19937_64(seed)'s,
/// generated lazily (file comment).  A UniformRandomBitGenerator, so the
/// std distributions run on it unchanged.  Only the state words the
/// stream has reached are initialized (zero-filling the 2.5 KB state
/// would cost more than a sample's draws); the copy operations copy just
/// those, so no indeterminate word is ever read.
class Lazy_mt19937_64 {
public:
    using result_type = std::uint64_t;

    explicit Lazy_mt19937_64(result_type seed) { x_[0] = seed; }

    Lazy_mt19937_64(const Lazy_mt19937_64& other)
        : pos_(other.pos_), ready_(other.ready_), chain_(other.chain_)
    {
        std::copy_n(other.x_, chain_, x_);
    }

    Lazy_mt19937_64& operator=(const Lazy_mt19937_64& other)
    {
        if (this == &other) return *this;
        pos_ = other.pos_;
        ready_ = other.ready_;
        chain_ = other.chain_;
        std::copy_n(other.x_, chain_, x_);
        return *this;
    }

    /// Reseed engines[l] to seeds[l] for each of the Lanes lanes and
    /// build every seed chain to `words` words (1 <= words <= 312) in one
    /// interleaved loop: the lanes' chains are independent, so their
    /// multiplies overlap (file comment).  Each engine then continues
    /// exactly as Lazy_mt19937_64(seeds[l]) would.
    template <std::size_t Lanes>
    static void seed_lockstep(Lazy_mt19937_64* const* engines,
                              const result_type* seeds, std::size_t words)
    {
        result_type prev[Lanes];
        for (std::size_t l = 0; l < Lanes; ++l) {
            prev[l] = seeds[l];
            engines[l]->x_[0] = seeds[l];
            engines[l]->pos_ = 0;
            engines[l]->ready_ = 0;
            engines[l]->chain_ = words;
        }
        for (std::size_t k = 1; k < words; ++k) {
            for (std::size_t l = 0; l < Lanes; ++l) {
                prev[l] = chain_word(prev[l], k);
                engines[l]->x_[k] = prev[l];
            }
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()()
    {
        if (pos_ >= ready_) advance();
        result_type z = x_[pos_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        return z;
    }

private:
    static constexpr std::size_t n = 312;  // state words
    static constexpr std::size_t m = 156;  // twist offset
    static constexpr result_type upper_mask = ~result_type{0} << 31;
    static constexpr result_type lower_mask = ~upper_mask;

    /// New value of a state word from its old value, the old value of the
    /// word after it, and the word m positions away.
    static result_type twist(result_type word, result_type next,
                             result_type far)
    {
        const result_type y = (word & upper_mask) | (next & lower_mask);
        return far ^ (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ULL : 0);
    }

    /// Seed-chain word k from word k - 1.
    static result_type chain_word(result_type prev, std::size_t k)
    {
        return 6364136223846793005ULL * (prev ^ (prev >> 62)) +
               static_cast<result_type>(k);
    }

    /// Seed-chain words [chain_, end) from the word before them.
    void extend_chain(std::size_t end)
    {
        for (; chain_ < end; ++chain_) {
            x_[chain_] = chain_word(x_[chain_ - 1], chain_);
        }
    }

    /// Make output pos_ ready: one first-block word while pos_ < m, the
    /// rest of the first block at pos_ == m, a whole block at pos_ == n.
    void advance()
    {
        if (pos_ < m) {
            extend_chain(pos_ + m + 1);
            x_[pos_] = twist(x_[pos_], x_[pos_ + 1], x_[pos_ + m]);
            ready_ = pos_ + 1;
            return;
        }
        if (pos_ == n) {
            for (std::size_t k = 0; k < m; ++k) {
                x_[k] = twist(x_[k], x_[k + 1], x_[k + m]);
            }
            pos_ = 0;
        } else {
            extend_chain(n);
        }
        // Second half of the block, with the already-new first half.
        for (std::size_t k = m; k + 1 < n; ++k) {
            x_[k] = twist(x_[k], x_[k + 1], x_[k - m]);
        }
        x_[n - 1] = twist(x_[n - 1], x_[0], x_[m - 1]);
        ready_ = n;
    }

    result_type x_[n];      // words [0, chain_) are initialized
    std::size_t pos_ = 0;   // next output index in the block
    std::size_t ready_ = 0; // outputs [0, ready_) are twisted
    std::size_t chain_ = 1; // seed-chain words computed
};

/// Seedable random stream over Lazy_mt19937_64 with the distribution
/// helpers the variability models need.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

    /// Derive an independent child stream from this stream's seed and a
    /// name.  Uses splitmix64-style mixing of the hashed name so children
    /// with different names are decorrelated.
    Rng child(std::string_view name) const;

    /// Counter-based substream: the stream for element `index` of the
    /// experiment rooted at `seed`.  Depends only on (seed, index) — not
    /// on how many draws any other substream made — so a loop that gives
    /// sample i the stream `Rng::stream(seed, i)` produces bitwise
    /// identical results at any thread count and in any execution order.
    static Rng stream(std::uint64_t seed, std::uint64_t index);

    /// Substreams opened per lockstep seeding group (file comment).
    static constexpr std::size_t stream_lanes = 4;
    /// Engine outputs each stream opened by streams() can draw before its
    /// seed chain extends lazily: an LE3 sample's five truncated normals
    /// take ~6-8.
    static constexpr std::size_t prebuilt_draws = 16;

    /// Set out[j] to exactly Rng::stream(seed, first + j) for every j —
    /// same draws, no saved normal — seeding stream_lanes streams at a
    /// time in lockstep (file comment).  Reuses the streams' storage.
    static void streams(std::uint64_t seed, std::uint64_t first,
                        std::span<Rng> out);

    /// Standard normal draw (mean 0, sigma 1).
    double normal();

    /// Normal draw with given mean and sigma (sigma >= 0).
    double normal(double mean, double sigma);

    /// Normal draw truncated to [mean - k*sigma, mean + k*sigma] by
    /// rejection; models bounded process variation (a fab screens outliers).
    double truncated_normal(double mean, double sigma, double k);

    /// Uniform draw in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform integer in [0, n).
    std::uint64_t index(std::uint64_t n);

    std::uint64_t seed() const { return seed_; }

private:
    Lazy_mt19937_64 engine_;
    std::uint64_t seed_ = 0;
    std::normal_distribution<double> std_normal_{0.0, 1.0};
};

} // namespace mpsram::util

#endif // MPSRAM_UTIL_RNG_H
