#include "mc/surrogate.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/contracts.h"
#include "util/numeric.h"
#include "util/rng.h"

namespace mpsram::mc {

Tdp_distribution surrogate_distribution(
    const pattern::Patterning_engine& engine,
    const analytic::Yield_surfaces& surfaces,
    const Distribution_options& opts)
{
    util::expects(opts.samples > 0, "sample count must be positive");
    util::expects(surfaces.metric.dimension() == engine.axes().size(),
                  "surrogate surface dimension must match the engine axes");

    // The exact tiers' draws: sample i of a given seed draws the same
    // process sample under either engine tier.
    Sample_draws draws(engine, opts);
    const bool fill_factors = opts.store_samples;
    return accumulate_distribution(
        [&](std::size_t i, const core::Run_context& ctx) {
            const pattern::Process_sample& s = draws(i, ctx);
            Sample_values v;
            v.metric = surfaces.metric.value(s);
            if (fill_factors) {
                v.rvar = surfaces.rvar.value(s);
                v.cvar = surfaces.cvar.value(s);
            }
            return v;
        },
        opts);
}

Tail_result importance_tail(const pattern::Patterning_engine& engine,
                            const analytic::Response_surface& surface,
                            const Distribution_options& base,
                            const Tail_options& topts)
{
    const auto& axes = engine.axes();
    const std::size_t d = axes.size();
    util::expects(surface.dimension() == d,
                  "tail surface dimension must match the engine axes");
    util::expects(topts.samples > 1, "tail sampling needs > 1 sample");
    util::expects(topts.shift_sigma > 0.0 &&
                      topts.shift_sigma < base.truncate_k,
                  "the proposal shift must sit inside the truncation box");
    util::expects(!topts.sigma_levels.empty(),
                  "tail sampling needs at least one sigma level");

    // Dominant fitted direction in standardized coordinates z_a = x_a /
    // sigma_a: the gradient of the surface pulled back through the axis
    // sigmas.  The proposal mean shifts shift_sigma along it.
    const std::vector<double> grad = surface.gradient_at_zero();
    std::vector<double> mu(d, 0.0);
    double norm2 = 0.0;
    for (std::size_t a = 0; a < d; ++a) {
        mu[a] = grad[a] * axes[a].sigma;
        norm2 += mu[a] * mu[a];
    }
    util::ensures(norm2 > 0.0,
                  "importance sampling needs a non-flat fitted surface");
    const double inv_norm = topts.shift_sigma / std::sqrt(norm2);
    for (double& m : mu) m *= inv_norm;

    // Per-axis truncation normalization of the target density.
    const double c_axis = 2.0 * util::normal_cdf(base.truncate_k) - 1.0;
    const double log_c =
        static_cast<double>(d) * std::log(c_axis);

    const std::uint64_t tail_seed = util::Rng(base.seed)
                                        .child(engine.name())
                                        .child("importance-tail")
                                        .seed();

    const auto count = static_cast<std::size_t>(topts.samples);
    std::vector<double> values(count, 0.0);
    std::vector<double> weights(count, 0.0);

    std::vector<pattern::Process_sample> scratch(
        static_cast<std::size_t>(base.runner.resolved_threads()),
        pattern::Process_sample(d, 0.0));

    core::run_indexed(
        count,
        [&](std::size_t i, const core::Run_context& ctx) {
            util::Rng rng = util::Rng::stream(tail_seed, i);
            pattern::Process_sample& x =
                scratch[core::checked_worker(ctx, scratch.size())];
            // Defensive mixture proposal: with probability 1/2 draw from
            // the target itself (the truncated process measure), else
            // from the shifted normal N(mu, I).  The likelihood ratio
            //   w = p / (p/2 + q/2),  q/p = exp(mu.z - |mu|^2/2) * c^d
            // is bounded by 2, so the bulk never starves the effective
            // sample size the way a pure shifted proposal does
            // (ESS ~ n / exp(|mu|^2)), while the shifted half still
            // populates the tail.
            const bool from_target = rng.uniform(0.0, 1.0) < 0.5;
            double log_qp = log_c;  // log(q/p), up to the box indicator
            bool inside = true;
            for (std::size_t a = 0; a < d; ++a) {
                const double z =
                    from_target
                        ? rng.truncated_normal(0.0, 1.0, base.truncate_k)
                        : rng.normal(mu[a], 1.0);
                inside = inside && std::fabs(z) <= base.truncate_k;
                log_qp += mu[a] * z - 0.5 * mu[a] * mu[a];
                x[a] = z * axes[a].sigma;
            }
            const std::size_t slot = core::checked_slot(ctx, count);
            values[slot] = surface.value(x);
            // Outside the box (possible only for shifted draws) the
            // target density is zero.
            weights[slot] =
                inside ? 1.0 / (0.5 + 0.5 * std::exp(log_qp)) : 0.0;
        },
        base.runner);

    // Serial reductions in fixed orders keep the result independent of
    // the thread count: weight sums in index order, the quantile walk in
    // (value, index) order.
    double w_sum = 0.0;
    double w_sq = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        w_sum += weights[i];
        w_sq += weights[i] * weights[i];
    }
    util::ensures(w_sum > 0.0,
                  "importance sampling: every proposal draw fell outside "
                  "the truncation box");

    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (values[a] != values[b]) return values[a] < values[b];
                  return a < b;
              });

    Tail_result result;
    result.sigma_levels = topts.sigma_levels;
    result.samples = topts.samples;
    result.weight_sum = w_sum;
    result.ess = w_sum * w_sum / w_sq;
    result.quantiles.reserve(topts.sigma_levels.size());
    for (const double level : topts.sigma_levels) {
        const double target = util::normal_cdf(level) * w_sum;
        double cum = 0.0;
        double q = values[order.back()];
        for (const std::size_t i : order) {
            cum += weights[i];
            if (cum >= target) {
                q = values[i];
                break;
            }
        }
        result.quantiles.push_back(q);
    }
    return result;
}

} // namespace mpsram::mc
