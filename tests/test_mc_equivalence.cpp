// The Monte-Carlo samplers against a per-sample reference loop written
// here: Rng::stream -> sample_gaussian_into -> a full-array realize_into ->
// Extractor::variation(nominal, realized, victim) -> the formula.  The
// library's loops may draw, realize and extract however they like (blocks
// of substreams, a victim window, a hoisted nominal RC), but every result
// bit must equal this loop's, at any sample count, thread count, sampling
// scheme and accumulation mode; and a sample that pinches any wire of the
// array off must fail exactly as the full-array realize does.
#include "mc/distribution.h"
#include "mc/surrogate.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analytic/response_surface.h"
#include "analytic/td_formula.h"
#include "analytic/tw_formula.h"
#include "core/session.h"
#include "pattern/engine.h"
#include "sram/layout.h"
#include "tech/technology.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace mpsram;

constexpr int word_lines = 64;
constexpr std::uint64_t seed = 424242;
constexpr int sample_counts[] = {1, 3, 4, 5, 9, 8193};
constexpr int thread_counts[] = {1, 2, 8};

core::Study_options uncached()
{
    core::Study_options opts;
    opts.cache.mode = core::Cache_mode::off;
    return opts;
}

/// One option's case geometry, built the way the session builds it.
struct Case {
    std::unique_ptr<pattern::Patterning_engine> engine;
    geom::Wire_array nominal;
    std::size_t victim = 0;
    analytic::Td_params td;
    analytic::Tw_params tw;

    Case(const core::Study_session& s, tech::Patterning_option option)
    {
        sram::Array_config cfg = s.options().array;
        cfg.word_lines = word_lines;
        engine = pattern::make_engine(option, s.technology());
        nominal = engine->decompose(sram::build_metal1_array(s.technology(),
                                                             cfg));
        victim = sram::find_victim_wires(nominal, cfg).bl;
        td = s.formula_params(word_lines);
        tw = s.tw_formula_params(word_lines);
    }
};

/// A fixed synthetic quadratic over the engine's axes: the surrogate tier
/// only evaluates surfaces, so their coefficients need no calibration.
analytic::Response_surface synthetic_surface(
    const pattern::Patterning_engine& engine, double offset)
{
    const std::size_t d = engine.axes().size();
    std::vector<double> scales;
    for (const auto& axis : engine.axes()) scales.push_back(3.0 * axis.sigma);
    std::vector<double> coeffs(
        analytic::Response_surface::coefficient_count(d));
    for (std::size_t k = 0; k < coeffs.size(); ++k) {
        coeffs[k] = offset + 0.37 * static_cast<double>(k % 5) -
                    0.11 * static_cast<double>(k);
    }
    return analytic::Response_surface::restore(std::move(scales),
                                               std::move(coeffs));
}

/// Per-sample values of the reference loop.
struct Reference {
    std::vector<double> tdp, twp, rvar, cvar;
    std::vector<double> sur_metric, sur_rvar, sur_cvar;
};

Reference reference_loop(const Case& c, const extract::Extractor& ex,
                         const analytic::Yield_surfaces& surfaces,
                         const mc::Distribution_options& opts)
{
    const std::uint64_t base =
        util::Rng(opts.seed).child(c.engine->name()).seed();
    std::vector<pattern::Process_sample> pregen;
    if (opts.sampling == mc::Sampling::latin_hypercube) {
        util::Rng rng(base);
        pregen = mc::lhs_samples(*c.engine, rng, opts);
    }
    Reference ref;
    pattern::Process_sample drawn;
    geom::Wire_array realized;
    for (int i = 0; i < opts.samples; ++i) {
        const auto index = static_cast<std::size_t>(i);
        const pattern::Process_sample* s = &drawn;
        if (opts.sampling == mc::Sampling::latin_hypercube) {
            s = &pregen[index];
        } else {
            util::Rng rng = util::Rng::stream(base, index);
            c.engine->sample_gaussian_into(rng, opts.truncate_k, drawn);
        }
        c.engine->realize_into(c.nominal, *s, realized);
        const extract::Rc_variation v =
            ex.variation(c.nominal, realized, c.victim);
        ref.tdp.push_back(
            analytic::tdp_percent(c.td, word_lines, v.r_factor, v.c_factor));
        ref.twp.push_back(
            analytic::twp_percent(c.tw, word_lines, v.r_factor, v.c_factor));
        ref.rvar.push_back(v.r_factor);
        ref.cvar.push_back(v.c_factor);
        ref.sur_metric.push_back(surfaces.metric.value(*s));
        ref.sur_rvar.push_back(surfaces.rvar.value(*s));
        ref.sur_cvar.push_back(surfaces.cvar.value(*s));
    }
    return ref;
}

/// The distribution the reference values accumulate to (the public,
/// serial accumulation loop; streaming keeps only the metric).
mc::Tdp_distribution expected(const std::vector<double>& metric,
                              const std::vector<double>& rvar,
                              const std::vector<double>& cvar,
                              mc::Distribution_options opts)
{
    opts.runner = core::Runner_options{1};
    return mc::accumulate_distribution(
        [&](std::size_t i, const core::Run_context&) {
            return mc::Sample_values{metric[i], rvar[i], cvar[i]};
        },
        opts);
}

struct Mode {
    mc::Sampling sampling;
    bool store;
};

constexpr Mode modes[] = {{mc::Sampling::pseudo_random, true},
                          {mc::Sampling::pseudo_random, false},
                          {mc::Sampling::latin_hypercube, true}};

TEST(McEquivalence, FormulaAndSurrogateTiersEqualTheReferenceLoop)
{
    const core::Study_session s(tech::n10(), uncached());
    for (const auto option : tech::patterning_option_tokens.values) {
        const Case c(s, option);
        analytic::Yield_surfaces surfaces;
        surfaces.metric = synthetic_surface(*c.engine, 1.5);
        surfaces.rvar = synthetic_surface(*c.engine, 1.0);
        surfaces.cvar = synthetic_surface(*c.engine, 0.9);
        for (const Mode mode : modes) {
            for (const int samples : sample_counts) {
                mc::Distribution_options opts;
                opts.samples = samples;
                opts.seed = seed;
                opts.sampling = mode.sampling;
                opts.store_samples = mode.store;
                const Reference ref =
                    reference_loop(c, s.extractor(), surfaces, opts);
                const mc::Tdp_distribution want_tdp =
                    expected(ref.tdp, ref.rvar, ref.cvar, opts);
                const mc::Tdp_distribution want_twp =
                    expected(ref.twp, ref.rvar, ref.cvar, opts);
                const mc::Tdp_distribution want_sur = expected(
                    ref.sur_metric, ref.sur_rvar, ref.sur_cvar, opts);

                for (const int threads : thread_counts) {
                    const std::string where =
                        std::string(c.engine->name()) + " " +
                        std::string(mc::sampling_tokens.name(mode.sampling)) +
                        (mode.store ? " stored" : " streaming") +
                        " samples=" + std::to_string(samples) +
                        " threads=" + std::to_string(threads);
                    opts.runner = core::Runner_options{threads};

                    EXPECT_EQ(mc::tdp_distribution(*c.engine, s.extractor(),
                                                   c.nominal, c.victim, c.td,
                                                   word_lines, opts),
                              want_tdp)
                        << "tdp_distribution " << where;

                    core::Query q(core::Metric::mc_twp);
                    q.with_case({option, word_lines, -1.0}).with_mc(opts);
                    q.twp_engine = core::Twp_engine::formula;
                    EXPECT_EQ(s.run(q).as<mc::Tdp_distribution>(0), want_twp)
                        << "mc_twp formula " << where;

                    EXPECT_EQ(mc::surrogate_distribution(*c.engine, surfaces,
                                                         opts),
                              want_sur)
                        << "surrogate_distribution " << where;
                }
            }
        }
    }
}

/// The error the full-array realize throws when a wire pinches off.
std::string pinch_message(tech::Patterning_option option)
{
    const std::string prefix = "postcondition violated: ";
    switch (option) {
    case tech::Patterning_option::le3:
        return prefix + "LE3 CD bias pinched a wire off";
    case tech::Patterning_option::sadp:
        return prefix + "SADP variation pinched a wire off";
    case tech::Patterning_option::euv:
        return prefix + "EUV CD bias pinched a wire off";
    }
    return "";
}

/// Run `body`; the Postcondition_error it throws, or "" if none.
template <class F>
std::string pinch_error(F&& body)
{
    try {
        body();
    } catch (const util::Postcondition_error& e) {
        return e.what();
    }
    return "";
}

TEST(McEquivalence, PinchingANonVictimWireFailsTheRun)
{
    // One wire far from the victim is drawn at 20% of the nominal width.
    // A 3-sigma CD budget of 60% of the width never pinches the others
    // but pinches that one in about a sixth of the samples, so the run
    // must fail as the full-array realize does; with the wire at its
    // drawn width it must pass.
    tech::Technology t = tech::n10();
    const double width = t.metal1.nominal_width;
    t.variability.cd_3sigma = 0.6 * width;
    t.variability.sadp_spacer_3sigma = 0.1 * width;
    const core::Study_session s(t, uncached());
    for (const auto option : tech::patterning_option_tokens.values) {
        Case c(s, option);
        ASSERT_GT(c.victim, 2u);
        mc::Distribution_options opts;
        opts.samples = 64;
        opts.seed = seed;
        const auto run = [&](int threads) {
            opts.runner = core::Runner_options{threads};
            (void)mc::tdp_distribution(*c.engine, s.extractor(), c.nominal,
                                       c.victim, c.td, word_lines, opts);
        };
        for (const int threads : thread_counts) {
            EXPECT_EQ(pinch_error([&] { run(threads); }), "")
                << c.engine->name() << " threads=" << threads;
        }
        c.nominal[0].width = 0.2 * width;
        for (const int threads : thread_counts) {
            EXPECT_EQ(pinch_error([&] { run(threads); }),
                      pinch_message(option))
                << c.engine->name() << " threads=" << threads;
        }
    }
}

TEST(McEquivalence, AProcessThatPinchesWiresFailsTheSessionQuery)
{
    // A CD budget wider than the drawn width: some mask, line class or
    // the single EUV bias pinches a wire in most samples.
    tech::Technology t = tech::n10();
    t.variability.cd_3sigma = 2.0 * t.metal1.nominal_width;
    const core::Study_session s(t, uncached());
    for (const auto option : tech::patterning_option_tokens.values) {
        for (const int threads : thread_counts) {
            mc::Distribution_options opts;
            opts.samples = 32;
            opts.seed = seed;
            opts.runner = core::Runner_options{threads};
            core::Query q(core::Metric::mc_tdp);
            q.with_case({option, word_lines, -1.0}).with_mc(opts);
            EXPECT_EQ(pinch_error([&] { (void)s.run(q); }),
                      pinch_message(option))
                << tech::to_string(option) << " threads=" << threads;
        }
    }
}

} // namespace
