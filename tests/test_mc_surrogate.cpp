// The surrogate Monte-Carlo tier (mc/surrogate.h) on synthetic surfaces:
// cross-tier sample identity, streaming-vs-stored moment parity, bitwise
// thread determinism, and the importance-sampled tail quantiles against
// brute-force order statistics of the same surface.
#include "mc/surrogate.h"

#include <bit>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "mc/distribution.h"
#include "pattern/engine.h"
#include "sram/layout.h"
#include "tech/technology.h"
#include "util/contracts.h"
#include "util/numeric.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace mpsram;

/// Synthetic calibrated surfaces over an engine's axes: a known quadratic
/// metric (exactly representable, so the fit itself adds no error) plus
/// mild factor surfaces — no SPICE involved.
analytic::Yield_surfaces make_surfaces(
    const pattern::Patterning_engine& engine)
{
    const auto& axes = engine.axes();
    std::vector<double> half;
    for (const auto& axis : axes) half.push_back(3.0 * axis.sigma);

    const auto points = analytic::quadratic_design(half);
    std::vector<double> metric;
    std::vector<double> rvar;
    std::vector<double> cvar;
    for (const auto& p : points) {
        double m = 5.0;
        double r = 1.0;
        double c = 1.0;
        for (std::size_t a = 0; a < p.size(); ++a) {
            const double z = p[a] / half[a];
            m += 2.0 * z + 0.5 * z * z;
            r += 0.1 * z;
            c -= 0.05 * z;
        }
        metric.push_back(m);
        rvar.push_back(r);
        cvar.push_back(c);
    }
    analytic::Yield_surfaces s;
    s.metric = analytic::Response_surface::fit(points, metric, half);
    s.rvar = analytic::Response_surface::fit(points, rvar, half);
    s.cvar = analytic::Response_surface::fit(points, cvar, half);
    s.design_points = points.size();
    return s;
}

struct Fixture {
    tech::Technology t = tech::n10();
    std::unique_ptr<pattern::Patterning_engine> engine;
    analytic::Yield_surfaces surfaces;

    explicit Fixture(tech::Patterning_option option)
        : engine(pattern::make_engine(option, t)),
          surfaces(make_surfaces(*engine))
    {
    }
};

TEST(SurrogateDistribution, DrawsTheExactEnginesSamples)
{
    // Sample i must be the identical process sample the exact tiers draw:
    // re-derive the substream by hand and evaluate the surface directly.
    Fixture f(tech::Patterning_option::le3);
    mc::Distribution_options opts;
    opts.samples = 8;
    const auto dist =
        mc::surrogate_distribution(*f.engine, f.surfaces, opts);
    ASSERT_EQ(dist.tdp.size(), 8u);

    const std::uint64_t base_seed =
        util::Rng(opts.seed).child(f.engine->name()).seed();
    for (std::size_t i = 0; i < 8; ++i) {
        util::Rng rng = util::Rng::stream(base_seed, i);
        pattern::Process_sample x;
        for (const auto& axis : f.engine->axes()) {
            x.push_back(
                rng.truncated_normal(0.0, axis.sigma, opts.truncate_k));
        }
        EXPECT_DOUBLE_EQ(dist.tdp[i], f.surfaces.metric.value(x));
        EXPECT_DOUBLE_EQ(dist.rvar[i], f.surfaces.rvar.value(x));
        EXPECT_DOUBLE_EQ(dist.cvar[i], f.surfaces.cvar.value(x));
    }
}

/// Delegates to a real engine and records every sample the formula tier
/// realizes, in call order (the serial runner keeps it sample order).
class Recording_engine final : public pattern::Patterning_engine {
public:
    explicit Recording_engine(const pattern::Patterning_engine& inner)
        : inner_(inner)
    {
    }
    tech::Patterning_option option() const override
    {
        return inner_.option();
    }
    const std::vector<pattern::Variation_axis>& axes() const override
    {
        return inner_.axes();
    }
    geom::Wire_array decompose(geom::Wire_array nominal) const override
    {
        return inner_.decompose(std::move(nominal));
    }
    geom::Wire_array realize(const geom::Wire_array& decomposed,
                             std::span<const double> sample) const override
    {
        realized.emplace_back(sample.begin(), sample.end());
        return inner_.realize(decomposed, sample);
    }

    mutable std::vector<pattern::Process_sample> realized;

private:
    const pattern::Patterning_engine& inner_;
};

TEST(SurrogateDistribution, FormulaAndSurrogateTiersDrawIdenticalSamples)
{
    // For the same (seed, i) the exact tier (metric_distribution) and the
    // surrogate tier draw bitwise-identical process samples.  The exact
    // tier's samples are recorded at realize(); the surrogate's are read
    // back one axis at a time through an identity surface
    // value(x) = x[a] (unit scales, so the evaluation is exact).
    for (const auto option : tech::patterning_option_tokens.values) {
        Fixture f(option);
        const Recording_engine recorder(*f.engine);
        sram::Array_config cfg;
        cfg.word_lines = 16;
        const geom::Wire_array nominal =
            f.engine->decompose(sram::build_metal1_array(f.t, cfg));
        const std::size_t victim = sram::find_victim_wires(nominal, cfg).bl;
        const extract::Extractor extractor{f.t.metal1};

        mc::Distribution_options opts;
        opts.samples = 40;
        (void)mc::metric_distribution(
            recorder, extractor, nominal, victim,
            [](const geom::Wire_array&, const extract::Rc_variation&,
               const core::Run_context&) { return 0.0; },
            opts);
        ASSERT_EQ(recorder.realized.size(), 40u);

        const std::size_t d = f.engine->axes().size();
        for (std::size_t a = 0; a < d; ++a) {
            std::vector<double> coeffs(
                analytic::Response_surface::coefficient_count(d), 0.0);
            coeffs[1 + a] = 1.0;
            analytic::Yield_surfaces identity;
            identity.metric = analytic::Response_surface::restore(
                std::vector<double>(d, 1.0), coeffs);
            identity.rvar = identity.metric;
            identity.cvar = identity.metric;
            const auto dist =
                mc::surrogate_distribution(*f.engine, identity, opts);
            for (std::size_t i = 0; i < 40; ++i) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(dist.tdp[i]),
                          std::bit_cast<std::uint64_t>(
                              recorder.realized[i][a]))
                    << tech::to_string(option) << " axis " << a
                    << " sample " << i;
            }
        }
    }
}

TEST(SurrogateDistribution, StreamingMatchesStoredMoments)
{
    Fixture f(tech::Patterning_option::sadp);
    mc::Distribution_options stored;
    stored.samples = 50000;
    mc::Distribution_options streaming = stored;
    streaming.store_samples = false;

    const auto a = mc::surrogate_distribution(*f.engine, f.surfaces, stored);
    const auto b =
        mc::surrogate_distribution(*f.engine, f.surfaces, streaming);

    EXPECT_EQ(a.tdp.size(), 50000u);
    EXPECT_TRUE(b.tdp.empty());  // memory-flat: no sample vectors
    EXPECT_TRUE(b.rvar.empty());
    EXPECT_EQ(b.summary.count, 50000u);
    EXPECT_TRUE(util::bits_equal(a.summary.mean, b.summary.mean));
    EXPECT_TRUE(util::bits_equal(a.summary.stddev, b.summary.stddev));
    EXPECT_TRUE(util::bits_equal(a.summary.min, b.summary.min));
    EXPECT_TRUE(util::bits_equal(a.summary.max, b.summary.max));
    // The streamed quantiles are P-squared estimates: close, not exact.
    EXPECT_NEAR(b.summary.median, a.summary.median,
                0.02 * a.summary.stddev);
}

TEST(SurrogateDistribution, BitwiseIdenticalAcrossThreadCounts)
{
    Fixture f(tech::Patterning_option::le3);
    mc::Distribution_options base;
    base.samples = 20000;

    for (const bool store : {true, false}) {
        mc::Distribution_options serial = base;
        serial.store_samples = store;
        serial.runner = core::Runner_options{1};
        const auto reference =
            mc::surrogate_distribution(*f.engine, f.surfaces, serial);
        for (const int threads : {2, 8}) {
            mc::Distribution_options parallel = serial;
            parallel.runner = core::Runner_options{threads};
            const auto run = mc::surrogate_distribution(*f.engine,
                                                        f.surfaces, parallel);
            EXPECT_TRUE(run == reference)
                << "threads " << threads << " store " << store;
        }
    }
}

TEST(SurrogateDistribution, LatinHypercubeConvergesTighter)
{
    Fixture f(tech::Patterning_option::euv);
    mc::Distribution_options pr;
    pr.samples = 2000;
    mc::Distribution_options lhs = pr;
    lhs.sampling = mc::Sampling::latin_hypercube;

    const auto a = mc::surrogate_distribution(*f.engine, f.surfaces, pr);
    const auto b = mc::surrogate_distribution(*f.engine, f.surfaces, lhs);
    EXPECT_EQ(b.summary.count, 2000u);
    // Both see the same distribution; LHS just stratifies the draws.
    EXPECT_NEAR(b.summary.mean, a.summary.mean, 0.1 * a.summary.stddev);
}

TEST(SurrogateDistribution, RejectsMismatchedDimensions)
{
    Fixture euv(tech::Patterning_option::euv);
    Fixture le3(tech::Patterning_option::le3);
    mc::Distribution_options opts;
    opts.samples = 4;
    EXPECT_THROW(
        mc::surrogate_distribution(*le3.engine, euv.surfaces, opts),
        util::Precondition_error);
}

TEST(ImportanceTail, BitwiseIdenticalAcrossThreadCounts)
{
    Fixture f(tech::Patterning_option::le3);
    mc::Tail_options topts;
    topts.samples = 5000;

    mc::Distribution_options serial;
    serial.runner = core::Runner_options{1};
    const auto reference =
        mc::importance_tail(*f.engine, f.surfaces.metric, serial, topts);
    for (const int threads : {2, 8}) {
        mc::Distribution_options parallel;
        parallel.runner = core::Runner_options{threads};
        const auto run = mc::importance_tail(*f.engine, f.surfaces.metric,
                                             parallel, topts);
        ASSERT_EQ(run.quantiles.size(), reference.quantiles.size());
        EXPECT_TRUE(util::bits_equal(run.quantiles, reference.quantiles))
            << "threads " << threads;
        EXPECT_TRUE(util::bits_equal(run.ess, reference.ess));
        EXPECT_TRUE(util::bits_equal(run.weight_sum, reference.weight_sum));
    }
}

TEST(ImportanceTail, MatchesBruteForceOrderStatistics)
{
    // Same surface on both sides: the IS quantiles must agree with the
    // exact order statistics of a large plain Monte-Carlo run.
    Fixture f(tech::Patterning_option::sadp);
    mc::Distribution_options brute;
    brute.samples = 200000;
    auto dist = mc::surrogate_distribution(*f.engine, f.surfaces, brute);

    mc::Tail_options topts;
    topts.sigma_levels = {3.0, 4.0};
    const auto tail = mc::importance_tail(*f.engine, f.surfaces.metric,
                                          mc::Distribution_options{}, topts);

    // A defensively mixed proposal keeps the ESS a large fraction of the
    // draw count and the self-normalization near 1.
    EXPECT_GT(tail.ess, 0.25 * tail.samples);
    EXPECT_NEAR(tail.weight_sum / tail.samples, 1.0, 0.05);

    const double spread = dist.summary.stddev;
    const double exact3 =
        util::quantile(dist.tdp, util::normal_cdf(3.0));
    EXPECT_NEAR(tail.quantiles[0], exact3, 0.05 * spread);
}

TEST(ImportanceTail, Preconditions)
{
    Fixture f(tech::Patterning_option::euv);
    const mc::Distribution_options base;

    mc::Tail_options bad;
    bad.samples = 1;
    EXPECT_THROW(
        mc::importance_tail(*f.engine, f.surfaces.metric, base, bad),
        util::Precondition_error);

    bad = mc::Tail_options{};
    bad.sigma_levels.clear();
    EXPECT_THROW(
        mc::importance_tail(*f.engine, f.surfaces.metric, base, bad),
        util::Precondition_error);

    bad = mc::Tail_options{};
    bad.shift_sigma = base.truncate_k;  // shift outside the box
    EXPECT_THROW(
        mc::importance_tail(*f.engine, f.surfaces.metric, base, bad),
        util::Precondition_error);
}

} // namespace
