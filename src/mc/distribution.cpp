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

Sample_draws::Sample_draws(const pattern::Patterning_engine& engine,
                           const Distribution_options& opts)
    : engine_(engine),
      base_seed_(util::Rng(opts.seed).child(engine.name()).seed()),
      samples_(static_cast<std::size_t>(opts.samples)),
      truncate_k_(opts.truncate_k),
      blocks_(static_cast<std::size_t>(opts.runner.resolved_threads()))
{
    util::expects(opts.samples > 0, "sample count must be positive");
    // Latin-hypercube stratification couples samples across the whole
    // set, so its (cheap) sample construction stays serial.
    if (opts.sampling == Sampling::latin_hypercube) {
        util::Rng rng(base_seed_);
        pregen_ = lhs_samples(engine, rng, opts);
        return;
    }
    for (Stream_block& b : blocks_) {
        b.streams.assign(util::Rng::stream_lanes, util::Rng(0));
    }
}

const pattern::Process_sample& Sample_draws::operator()(
    std::size_t i, const core::Run_context& ctx)
{
    // Substream contract: sample i draws from (base_seed, i) and nothing
    // else, so i must stay inside the experiment.
    MPSRAM_REQUIRE_INDEX(i, samples_);
    if (!pregen_.empty()) return pregen_[i];

    Stream_block& b = blocks_[core::checked_worker(ctx, blocks_.size())];
    // i < first wraps to a huge lane, so it reopens too; so does a stream
    // already drawn from.
    std::size_t lane = i - b.first;
    if (lane >= b.open || ((b.taken >> lane) & 1u) != 0) {
        b.first = i;
        b.open = std::min(b.streams.size(), samples_ - i);
        b.taken = 0;
        util::Rng::streams(base_seed_, i,
                           std::span<util::Rng>(b.streams.data(), b.open));
        lane = 0;
    }
    b.taken |= 1u << lane;
    engine_.sample_gaussian_into(b.streams[lane], truncate_k_, b.sample);
    return b.sample;
}

Victim_window victim_window(const geom::Wire_array& nominal,
                            std::size_t victim)
{
    util::expects(victim < nominal.size(), "victim index out of range");
    const auto& all = nominal.wires();
    const std::size_t lo = victim > 0 ? victim - 1 : 0;
    const std::size_t hi = std::min(victim + 2, all.size());

    std::vector<geom::Wire> guard;
    for (const geom::Wire& w : all) {
        const auto same_class = [&](const geom::Wire& g) {
            return g.color == w.color && g.sadp == w.sadp;
        };
        const auto it = std::find_if(guard.begin(), guard.end(), same_class);
        if (it == guard.end()) {
            guard.push_back(w);
        } else if (w.width < it->width) {
            *it = w;
        }
    }

    Victim_window win{
        geom::Wire_array(std::vector<geom::Wire>(
            all.begin() + static_cast<std::ptrdiff_t>(lo),
            all.begin() + static_cast<std::ptrdiff_t>(hi))),
        victim - lo, geom::Wire_array(std::move(guard))};
    util::ensures(win.wires[win.victim].net == nominal[victim].net,
                  "victim window lost the victim wire");
    return win;
}

namespace {

/// The one sample loop of the exact samplers: draw sample i, realize the
/// guard (if any) and `source` into per-worker scratch, extract the victim
/// against its nominal RC, evaluate the metric.
template <class Metric>
Tdp_distribution sample_loop(const pattern::Patterning_engine& engine,
                             const extract::Extractor& extractor,
                             const geom::Wire_array& source,
                             std::size_t victim,
                             const geom::Wire_array& guard,
                             const extract::Wire_rc& nominal_rc,
                             const Metric& metric,
                             const Distribution_options& opts)
{
    Sample_draws draws(engine, opts);

    // Per-worker scratch: realize_into overwrites one geometry buffer per
    // worker instead of allocating a Wire_array (nets, colors, strings)
    // for every sample.  Worker assignment never reaches the results, so
    // the determinism contract is untouched.
    struct Worker_buffers {
        geom::Wire_array realized;
        geom::Wire_array guard;
    };
    std::vector<Worker_buffers> scratch(
        static_cast<std::size_t>(opts.runner.resolved_threads()));

    return accumulate_distribution(
        [&](std::size_t i, const core::Run_context& ctx) {
            const pattern::Process_sample& s = draws(i, ctx);
            Worker_buffers& own =
                scratch[core::checked_worker(ctx, scratch.size())];
            if (!guard.empty()) engine.realize_into(guard, s, own.guard);
            engine.realize_into(source, s, own.realized);
            const extract::Rc_variation v =
                extractor.variation(nominal_rc, own.realized, victim);
            return Sample_values{metric(own.realized, v, ctx), v.r_factor,
                                 v.c_factor};
        },
        opts);
}

} // namespace

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
    return sample_loop(engine, extractor, nominal, victim, geom::Wire_array{},
                       extractor.wire_rc(nominal, victim), metric, opts);
}

Tdp_distribution factor_distribution(const pattern::Patterning_engine& engine,
                                     const extract::Extractor& extractor,
                                     const geom::Wire_array& nominal,
                                     std::size_t victim,
                                     const Factor_metric& metric,
                                     const Distribution_options& opts)
{
    util::expects(opts.samples > 0, "sample count must be positive");
    util::expects(victim < nominal.size(), "victim index out of range");
    util::expects(static_cast<bool>(metric), "sample metric must be set");
    const Victim_window win = victim_window(nominal, victim);
    return sample_loop(
        engine, extractor, win.wires, win.victim, win.guard,
        extractor.wire_rc(nominal, victim),
        [&metric](const geom::Wire_array&, const extract::Rc_variation& v,
                  const core::Run_context&) { return metric(v); },
        opts);
}

Tdp_distribution tdp_distribution(const pattern::Patterning_engine& engine,
                                  const extract::Extractor& extractor,
                                  const geom::Wire_array& nominal,
                                  std::size_t victim,
                                  const analytic::Td_params& params, int n,
                                  const Distribution_options& opts)
{
    return factor_distribution(
        engine, extractor, nominal, victim,
        [&](const extract::Rc_variation& v) {
            return analytic::tdp_percent(params, n, v.r_factor, v.c_factor);
        },
        opts);
}

} // namespace mpsram::mc
