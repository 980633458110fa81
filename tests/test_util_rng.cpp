#include "util/rng.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "mc/distribution.h"
#include "pattern/engine.h"
#include "tech/technology.h"
#include "util/contracts.h"
#include "util/numeric.h"
#include "util/stats.h"

namespace {

using mpsram::util::Lazy_mt19937_64;
using mpsram::util::Rng;
using mpsram::util::Running_stats;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Rng, SameSeedSameStream)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_DOUBLE_EQ(a.normal(), b.normal());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.normal() == b.normal()) ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, ChildStreamsAreDeterministic)
{
    const Rng parent(42);
    Rng c1 = parent.child("extraction");
    Rng c2 = parent.child("extraction");
    for (int i = 0; i < 50; ++i) {
        EXPECT_DOUBLE_EQ(c1.normal(), c2.normal());
    }
}

TEST(Rng, ChildStreamsWithDifferentNamesDecorrelate)
{
    const Rng parent(42);
    Rng a = parent.child("a");
    Rng b = parent.child("b");

    std::vector<double> xs(4000);
    std::vector<double> ys(4000);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        xs[i] = a.normal();
        ys[i] = b.normal();
    }
    EXPECT_NEAR(mpsram::util::correlation(xs, ys), 0.0, 0.06);
}

TEST(Rng, NormalMoments)
{
    Rng rng(5);
    Running_stats s;
    for (int i = 0; i < 40000; ++i) s.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.06);
    EXPECT_NEAR(s.stddev(), 3.0, 0.06);
}

TEST(Rng, NormalZeroSigmaIsDeterministic)
{
    Rng rng(5);
    EXPECT_DOUBLE_EQ(rng.normal(7.0, 0.0), 7.0);
}

TEST(Rng, NormalRejectsNegativeSigma)
{
    Rng rng(5);
    EXPECT_THROW(rng.normal(0.0, -1.0), mpsram::util::Precondition_error);
}

class TruncatedNormalTest : public ::testing::TestWithParam<double> {};

TEST_P(TruncatedNormalTest, SamplesStayWithinBounds)
{
    const double k = GetParam();
    Rng rng(17);
    const double mean = 1.0;
    const double sigma = 0.5;
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.truncated_normal(mean, sigma, k);
        EXPECT_GE(x, mean - k * sigma);
        EXPECT_LE(x, mean + k * sigma);
    }
}

INSTANTIATE_TEST_SUITE_P(TruncationWidths, TruncatedNormalTest,
                         ::testing::Values(1.0, 2.0, 3.0, 4.0));

TEST(Rng, TruncatedNormalZeroSigma)
{
    Rng rng(17);
    EXPECT_DOUBLE_EQ(rng.truncated_normal(3.0, 0.0, 3.0), 3.0);
}

TEST(Rng, UniformRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-2.0, 5.0);
        EXPECT_GE(x, -2.0);
        EXPECT_LT(x, 5.0);
    }
    EXPECT_THROW(rng.uniform(1.0, 1.0), mpsram::util::Precondition_error);
}

TEST(Rng, IndexRange)
{
    Rng rng(11);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 5000; ++i) {
        const auto idx = rng.index(10);
        ASSERT_LT(idx, 10u);
        ++seen[static_cast<std::size_t>(idx)];
    }
    for (int count : seen) EXPECT_GT(count, 300);  // roughly uniform
    EXPECT_THROW(rng.index(0), mpsram::util::Precondition_error);
}

TEST(RngStream, BitwiseDeterministicAtLargeIndices)
{
    // The counter-based substream contract the million-sample Monte-Carlo
    // tiers rely on: re-deriving the stream of any index — including far
    // past 10^6 — reproduces the identical draw sequence, independent of
    // what any other substream did in between.
    constexpr std::uint64_t seed = 20150609;
    for (const std::uint64_t index :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{999999},
          std::uint64_t{1000000}, std::uint64_t{10000000},
          std::uint64_t{1} << 40}) {
        Rng a = Rng::stream(seed, index);
        // Interleave unrelated work: burn draws on another substream.
        Rng noise = Rng::stream(seed, index + 7);
        for (int i = 0; i < 13; ++i) (void)noise.normal();
        Rng b = Rng::stream(seed, index);
        for (int i = 0; i < 20; ++i) {
            EXPECT_DOUBLE_EQ(a.normal(), b.normal()) << "index " << index;
        }
    }
}

TEST(RngStream, NeighborSubstreamsDecorrelateAtMillionIndices)
{
    // Substreams around index 10^6 behave like independent streams: the
    // first draw of stream i is uncorrelated with the first draw of
    // stream i+1, and their ensemble looks standard normal.
    constexpr std::uint64_t base = 1000000;
    constexpr int count = 4096;
    std::vector<double> first(count);
    Running_stats stats;
    for (int i = 0; i < count; ++i) {
        Rng rng = Rng::stream(42, base + static_cast<std::uint64_t>(i));
        first[static_cast<std::size_t>(i)] = rng.normal();
        stats.add(first[static_cast<std::size_t>(i)]);
    }
    EXPECT_NEAR(stats.mean(), 0.0, 0.06);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.06);
    std::vector<double> lagged(first.begin() + 1, first.end());
    first.pop_back();
    EXPECT_NEAR(mpsram::util::correlation(first, lagged), 0.0, 0.06);
}

TEST(RngStream, SeedsSeparateSubstreamFamilies)
{
    // Two different master seeds must not share substream draws even at
    // matching indices deep into the counter space.
    int same = 0;
    for (std::uint64_t i = 1000000; i < 1000100; ++i) {
        Rng a = Rng::stream(1, i);
        Rng b = Rng::stream(2, i);
        if (a.normal() == b.normal()) ++same;
    }
    EXPECT_EQ(same, 0);
}

// --- lockstep substreams: Rng::streams equals Rng::stream --------------------

/// One draw of the given kind, bit pattern (indices as they are).
std::uint64_t draw(Rng& rng, int kind)
{
    switch (kind) {
    case 0: return bits(rng.normal());
    case 1: return bits(rng.truncated_normal(0.5, 2.0, 1.5));
    case 2: return bits(rng.uniform(-1.0, 3.0));
    default: return rng.index(1000003);
    }
}

constexpr std::uint64_t block_seed = 20150609;
constexpr std::uint64_t block_first = 999983;

TEST(RngStreams, EveryStreamEqualsItsPerIndexStream)
{
    // Counts 1-9 cover a lone tail stream, one full lockstep group, and
    // groups plus a tail.  Draw lengths cross the pre-built chain (156 +
    // prebuilt_draws outputs), the first block's end (312) and a
    // regenerated block.  The streams are reused across every case, so a
    // reseed over drawn streams is exercised too.
    std::vector<Rng> block;
    for (std::size_t count = 1; count <= 9; ++count) {
        block.resize(count, Rng(7));
        for (const int length : {1, 12, 157, 313, 700}) {
            for (int kind = 0; kind < 4; ++kind) {
                Rng::streams(block_seed, block_first, block);
                for (std::size_t j = 0; j < count; ++j) {
                    Rng want = Rng::stream(block_seed, block_first + j);
                    ASSERT_EQ(block[j].seed(), want.seed());
                    for (int k = 0; k < length; ++k) {
                        ASSERT_EQ(draw(block[j], kind), draw(want, kind))
                            << "count " << count << " stream " << j
                            << " kind " << kind << " draw " << k;
                    }
                }
            }
        }
    }
}

TEST(RngStreams, CopiesTakenMidStreamContinueIdentically)
{
    std::vector<Rng> block(6, Rng(0));
    for (const int taken_at : {0, 1, 7, 16, 17, 100, 157, 400}) {
        Rng::streams(block_seed, block_first, block);
        for (std::size_t j = 0; j < block.size(); ++j) {
            Rng want = Rng::stream(block_seed, block_first + j);
            for (int k = 0; k < taken_at; ++k) {
                ASSERT_EQ(bits(block[j].normal()), bits(want.normal()));
            }
            Rng copy = block[j];
            for (int k = 0; k < 500; ++k) {
                const std::uint64_t expected = bits(want.normal());
                ASSERT_EQ(bits(copy.normal()), expected)
                    << "stream " << j << " copied at " << taken_at;
                ASSERT_EQ(bits(block[j].normal()), expected);
            }
        }
    }
}

TEST(RngStreams, ReseedingADrawnBlockCarriesNoSavedNormal)
{
    // An odd number of normals leaves the polar method's second value
    // saved; the reseeded stream must start from its own first draw.
    std::vector<Rng> block(5, Rng(0));
    Rng::streams(block_seed, 3, block);
    for (Rng& rng : block) (void)rng.normal();
    Rng::streams(block_seed, block_first, block);
    for (std::size_t j = 0; j < block.size(); ++j) {
        Rng want = Rng::stream(block_seed, block_first + j);
        for (int k = 0; k < 4; ++k) {
            ASSERT_EQ(bits(block[j].normal()), bits(want.normal()))
                << "stream " << j << " draw " << k;
        }
    }
}

// --- exact sequence: std::mt19937_64 is the oracle --------------------------

/// Seeds the exact-sequence tests run on: fixed corner seeds plus seeds
/// derived the way the Monte-Carlo loops derive them.
std::vector<std::uint64_t> oracle_seeds()
{
    std::vector<std::uint64_t> seeds{0, 1, 5489, ~std::uint64_t{0}};
    for (const std::uint64_t i : {std::uint64_t{0}, std::uint64_t{1},
                                  std::uint64_t{1000000}}) {
        seeds.push_back(Rng::stream(20150609, i).seed());
    }
    seeds.push_back(Rng(20150609).child("LELELE").seed());
    seeds.push_back(Rng(3).child("SADP").child("importance-tail").seed());
    return seeds;
}

TEST(LazyMt19937, OutputsEqualStdMt19937_64)
{
    // 1300 outputs cross the lazy first half (156), the end of the first
    // block (312) and three whole-block regenerations.
    for (const std::uint64_t seed : oracle_seeds()) {
        std::mt19937_64 oracle(seed);
        Lazy_mt19937_64 engine(seed);
        for (int j = 0; j < 1300; ++j) {
            ASSERT_EQ(engine(), oracle()) << "seed " << seed << " output " << j;
        }
    }
}

TEST(LazyMt19937, CopiesContinueIdentically)
{
    // Copies taken inside the lazy first half, at the 156 boundary, just
    // after it, and in a regenerated block continue bit for bit; so does
    // a copy assigned over an engine that is further along.
    for (const int taken_at : {0, 1, 100, 155, 156, 157, 311, 312, 400}) {
        Lazy_mt19937_64 original(5489);
        for (int j = 0; j < taken_at; ++j) (void)original();
        Lazy_mt19937_64 copy(original);
        Lazy_mt19937_64 assigned(7);
        for (int j = 0; j < 500; ++j) (void)assigned();
        assigned = original;
        for (int j = 0; j < 700; ++j) {
            const std::uint64_t want = original();
            ASSERT_EQ(copy(), want) << "copied at " << taken_at;
            ASSERT_EQ(assigned(), want) << "assigned at " << taken_at;
        }
    }
}

TEST(LazyMt19937, RngCopiesContinueIdentically)
{
    // An Rng copy also carries the normal distribution's cached second
    // polar draw, so it continues identically between the two halves.
    for (const int taken_at : {0, 3, 100, 156, 157, 400}) {
        Rng original = Rng::stream(11, 4);
        for (int j = 0; j < taken_at; ++j) (void)original.normal();
        Rng copy = original;
        for (int j = 0; j < 600; ++j) {
            ASSERT_EQ(bits(copy.normal()), bits(original.normal()))
                << "copied at " << taken_at;
        }
    }
}

TEST(LazyMt19937, DrawsEqualStdDistributions)
{
    // Every Rng draw equals the std distribution it wraps, driven by
    // std::mt19937_64: one shared normal_distribution (whose cached second
    // value carries across normal/truncated_normal calls), fresh uniform
    // distributions per call.  Each round takes ~12 engine outputs, so 150
    // rounds cross every boundary of the lazy engine.
    for (const std::uint64_t seed : oracle_seeds()) {
        Rng rng(seed);
        std::mt19937_64 oracle(seed);
        std::normal_distribution<double> normal(0.0, 1.0);
        for (int round = 0; round < 150; ++round) {
            ASSERT_EQ(bits(rng.normal()), bits(normal(oracle)));
            ASSERT_EQ(bits(rng.normal(2.0, 0.5)),
                      bits(2.0 + 0.5 * normal(oracle)));
            double z = normal(oracle);
            while (z < -1.0 || z > 1.0) z = normal(oracle);
            ASSERT_EQ(bits(rng.truncated_normal(1.0, 3.0, 1.0)),
                      bits(1.0 + 3.0 * z));
            ASSERT_EQ(bits(rng.uniform(-2.0, 5.0)),
                      bits(std::uniform_real_distribution<double>(-2.0, 5.0)(
                          oracle)));
            ASSERT_EQ(rng.index(10),
                      std::uniform_int_distribution<std::uint64_t>(0, 9)(
                          oracle));
            ASSERT_EQ(rng.index(~std::uint64_t{0}),
                      std::uniform_int_distribution<std::uint64_t>(
                          0, ~std::uint64_t{0} - 1)(oracle));
        }
    }
}

TEST(LazyMt19937, LatinHypercubeLongStreamMatchesStdReference)
{
    // One long stream: the Latin-hypercube pregeneration draws every
    // sample of the set from a single Rng, ~2.5k engine outputs for 256
    // LE3 samples.  Rebuilt here on std::mt19937_64, bit for bit.
    using namespace mpsram;
    const auto engine =
        pattern::make_engine(tech::Patterning_option::le3, tech::n10());
    mc::Distribution_options opts;
    opts.samples = 256;
    const std::uint64_t seed = Rng(opts.seed).child(engine->name()).seed();

    Rng rng(seed);
    const auto samples = mc::lhs_samples(*engine, rng, opts);

    std::mt19937_64 oracle(seed);
    const auto n = static_cast<std::size_t>(opts.samples);
    const double p_lo = util::normal_cdf(-opts.truncate_k);
    const double p_hi = util::normal_cdf(opts.truncate_k);
    std::vector<std::size_t> perm(n);
    ASSERT_EQ(samples.size(), n);
    for (std::size_t a = 0; a < engine->axes().size(); ++a) {
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        for (std::size_t i = n; i > 1; --i) {
            const auto j = std::uniform_int_distribution<std::uint64_t>(
                0, i - 1)(oracle);
            std::swap(perm[i - 1], perm[j]);
        }
        for (std::size_t i = 0; i < n; ++i) {
            const double u =
                std::uniform_real_distribution<double>(0.0, 1.0)(oracle);
            const double p =
                p_lo + (p_hi - p_lo) * ((static_cast<double>(perm[i]) + u) /
                                        static_cast<double>(n));
            const double want =
                engine->axes()[a].sigma * util::normal_quantile(p);
            ASSERT_EQ(bits(samples[i][a]), bits(want))
                << "axis " << a << " sample " << i;
        }
    }
}

} // namespace
