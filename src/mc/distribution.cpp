#include "mc/distribution.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/check.h"
#include "util/contracts.h"
#include "util/numeric.h"
#include "util/rng.h"

namespace mpsram::mc {

std::vector<pattern::Process_sample> lhs_samples(
    const pattern::Patterning_engine& engine, util::Rng& rng,
    const Distribution_options& opts)
{
    const auto& axes = engine.axes();
    const auto n = static_cast<std::size_t>(opts.samples);

    // Truncation in probability space.
    const double p_lo = util::normal_cdf(-opts.truncate_k);
    const double p_hi = util::normal_cdf(opts.truncate_k);

    std::vector<pattern::Process_sample> out(
        n, pattern::Process_sample(axes.size(), 0.0));

    std::vector<std::size_t> perm(n);
    for (std::size_t a = 0; a < axes.size(); ++a) {
        std::iota(perm.begin(), perm.end(), 0);
        // Fisher-Yates with the study RNG (deterministic per seed).
        for (std::size_t i = n; i > 1; --i) {
            std::swap(perm[i - 1], perm[rng.index(i)]);
        }
        for (std::size_t i = 0; i < n; ++i) {
            const double u = rng.uniform(0.0, 1.0);
            const double p =
                p_lo + (p_hi - p_lo) *
                           ((static_cast<double>(perm[i]) + u) /
                            static_cast<double>(n));
            out[i][a] = axes[a].sigma * util::normal_quantile(p);
        }
    }
    return out;
}

namespace {

/// Samples per streaming block: the eval fan-out runs one block at a time
/// (parallel, write-own-slot) and the accumulators consume it serially in
/// sample order, so the block partition — a constant — never depends on
/// the thread count and the streamed summary stays bitwise deterministic.
constexpr std::size_t streaming_block = 8192;

util::Sample_summary poisoned_summary(std::size_t count)
{
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    return util::Sample_summary{count, nan, nan, nan, nan, nan, nan, nan};
}

} // namespace

Tdp_distribution accumulate_distribution(const Sample_eval& eval,
                                         const Distribution_options& opts)
{
    util::expects(opts.samples > 0, "sample count must be positive");
    util::expects(static_cast<bool>(eval), "sample evaluator must be set");
    const auto count = static_cast<std::size_t>(opts.samples);

    Tdp_distribution dist;
    if (opts.store_samples) {
        dist.tdp.resize(count);
        dist.rvar.resize(count);
        dist.cvar.resize(count);
        core::run_indexed(
            count,
            [&](std::size_t i, const core::Run_context& ctx) {
                const Sample_values v = eval(i, ctx);
                const std::size_t slot = core::checked_slot(ctx, count);
                dist.tdp[slot] = v.metric;
                dist.rvar[slot] = v.rvar;
                dist.cvar[slot] = v.cvar;
            },
            opts.runner);

        // A failed sample (NaN metric) must poison the whole summary, not
        // just the moments: selecting quantiles of a NaN-containing vector
        // is undefined and min/max would silently drop the failure, so the
        // NaN path never reaches util::summarize.
        const bool any_nan =
            std::any_of(dist.tdp.begin(), dist.tdp.end(),
                        [](double x) { return std::isnan(x); });
        dist.summary = any_nan ? poisoned_summary(dist.tdp.size())
                               : util::summarize(dist.tdp);
        return dist;
    }

    // Streaming mode: evaluate one fixed-size block at a time in parallel,
    // then fold it into the accumulators serially in sample order.  Memory
    // is O(streaming_block) regardless of the sample count.
    util::expects(opts.sampling == Sampling::pseudo_random,
                  "streaming accumulation requires pseudo-random sampling "
                  "(Latin-hypercube pregenerates every sample)");

    util::Running_stats stats;
    util::P2_quantile median(0.5);
    util::P2_quantile p01(0.01);
    util::P2_quantile p99(0.99);
    bool any_nan = false;

    std::vector<double> block(std::min(streaming_block, count));
    for (std::size_t begin = 0; begin < count; begin += streaming_block) {
        const std::size_t size = std::min(streaming_block, count - begin);
        core::run_indexed(
            size,
            [&](std::size_t i, const core::Run_context& ctx) {
                // Block-local slot; the SAMPLE index handed to eval is
                // begin + i, which is what its substream derives from.
                block[core::checked_slot(ctx, size)] =
                    eval(begin + i, ctx).metric;
            },
            opts.runner);
        for (std::size_t i = 0; i < size; ++i) {
            if (std::isnan(block[i])) {
                any_nan = true;
                continue;
            }
            stats.add(block[i]);
            median.add(block[i]);
            p01.add(block[i]);
            p99.add(block[i]);
        }
    }

    if (any_nan) {
        dist.summary = poisoned_summary(count);
    } else {
        dist.summary =
            util::Sample_summary{stats.count(), stats.mean(), stats.stddev(),
                                 stats.min(),   stats.max(),  median.result(),
                                 p01.result(),  p99.result()};
    }
    return dist;
}

Tdp_distribution metric_distribution(const pattern::Patterning_engine& engine,
                                     const extract::Extractor& extractor,
                                     const geom::Wire_array& nominal,
                                     std::size_t victim,
                                     const Sample_metric& metric,
                                     const Distribution_options& opts)
{
    util::expects(opts.samples > 0, "sample count must be positive");
    util::expects(victim < nominal.size(), "victim index out of range");
    util::expects(static_cast<bool>(metric), "sample metric must be set");

    // Root of this experiment's stream tree: per-sample substreams branch
    // off (base_seed, i), so the loop body is order-independent.
    const std::uint64_t base_seed =
        util::Rng(opts.seed).child(engine.name()).seed();

    // Latin-hypercube stratification couples samples across the whole set,
    // so its (cheap) sample construction stays serial; only the expensive
    // realization/extraction below is parallel.
    std::vector<pattern::Process_sample> pregen;
    if (opts.sampling == Sampling::latin_hypercube) {
        util::Rng rng(base_seed);
        pregen = lhs_samples(engine, rng, opts);
    }

    // Per-worker scratch: realize_into overwrites one geometry buffer per
    // worker instead of allocating a Wire_array (nets, colors, strings)
    // for every sample, and the process sample is drawn into a reused
    // vector.  Worker assignment never reaches the results, so the
    // determinism contract is untouched.
    struct Worker_buffers {
        pattern::Process_sample sample;
        geom::Wire_array realized;
    };
    std::vector<Worker_buffers> scratch(
        static_cast<std::size_t>(opts.runner.resolved_threads()));

    return accumulate_distribution(
        [&](std::size_t i, const core::Run_context& ctx) {
            // Substream contract: sample i draws from (base_seed, i) and
            // nothing else, so i must stay inside the experiment.
            MPSRAM_REQUIRE_INDEX(i, static_cast<std::size_t>(opts.samples));
            Worker_buffers& own =
                scratch[core::checked_worker(ctx, scratch.size())];
            const pattern::Process_sample* s = &own.sample;
            if (opts.sampling == Sampling::latin_hypercube) {
                s = &pregen[i];
            } else {
                util::Rng rng = util::Rng::stream(base_seed, i);
                engine.sample_gaussian_into(rng, opts.truncate_k,
                                            own.sample);
            }
            engine.realize_into(nominal, *s, own.realized);
            const extract::Rc_variation v =
                extractor.variation(nominal, own.realized, victim);
            return Sample_values{metric(own.realized, v, ctx), v.r_factor,
                                 v.c_factor};
        },
        opts);
}

Tdp_distribution tdp_distribution(const pattern::Patterning_engine& engine,
                                  const extract::Extractor& extractor,
                                  const geom::Wire_array& nominal,
                                  std::size_t victim,
                                  const analytic::Td_params& params, int n,
                                  const Distribution_options& opts)
{
    return metric_distribution(
        engine, extractor, nominal, victim,
        [&](const geom::Wire_array&, const extract::Rc_variation& v,
            const core::Run_context&) {
            return analytic::tdp_percent(params, n, v.r_factor, v.c_factor);
        },
        opts);
}

} // namespace mpsram::mc
