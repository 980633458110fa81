// Monte-Carlo tdp distribution (Section III-B): sample the patterning
// process, extract the victim's RC variation, evaluate the analytic
// formula, collect the tdp statistics (Fig. 5, Table IV).
#ifndef MPSRAM_MC_DISTRIBUTION_H
#define MPSRAM_MC_DISTRIBUTION_H

#include <cstdint>
#include <functional>
#include <vector>

#include "analytic/td_formula.h"
#include "core/runner.h"
#include "extract/extractor.h"
#include "geom/wire_array.h"
#include "pattern/engine.h"
#include "util/stats.h"
#include "util/token_table.h"

namespace mpsram::mc {

/// Sampling scheme for the Monte-Carlo loop.
enum class Sampling {
    pseudo_random,    ///< independent Gaussian draws per sample
    latin_hypercube,  ///< per-axis stratified quantiles, permuted
};

inline constexpr auto sampling_tokens = util::token_table<Sampling>(
    "sampling scheme", {{Sampling::pseudo_random, "pseudo_random"},
                        {Sampling::latin_hypercube, "latin_hypercube"}});

struct Distribution_options {
    int samples = 10000;
    std::uint64_t seed = 20150609;  ///< DATE 2015 vintage default
    /// Gaussian truncation of each variation axis (in sigmas); the paper
    /// quotes its process assumptions as 3-sigma bounds.
    double truncate_k = 3.0;
    /// Latin-hypercube sampling converges the sigma estimates of Table IV
    /// with ~10x fewer samples; pseudo-random remains the default for
    /// like-for-like comparison with the paper's Monte-Carlo method.
    Sampling sampling = Sampling::pseudo_random;
    /// Execution backend for the sample loop.  Sample i draws from the
    /// counter-based substream (seed, i), so the tdp/rvar/cvar vectors are
    /// bitwise identical at any thread count.
    core::Runner_options runner;
    /// Stored mode (default) materializes the per-sample tdp/rvar/cvar
    /// vectors and summarizes with exact order-statistic quantiles.
    /// Streaming mode (false) keeps the run memory-flat — no sample
    /// vectors, Running_stats moments plus P-squared quantile estimates
    /// accumulated blockwise in sample order — so 10^7-sample yield
    /// screens fit in O(block) memory.  Moments (count/mean/stddev/
    /// min/max) are bitwise identical between the two modes and at any
    /// thread count; the streamed median/p01/p99 are P-squared estimates,
    /// not exact order statistics.  Requires pseudo-random sampling
    /// (Latin-hypercube pregenerates every sample, defeating the point).
    bool store_samples = true;
};

struct Tdp_distribution {
    /// Metric value per sample.  For the read study this is tdp [%]; the
    /// generalized sampler records whatever the metric returns (the write
    /// study records twp), keeping the field name of the original
    /// workload.
    std::vector<double> tdp;
    std::vector<double> rvar;  ///< R factor per sample
    std::vector<double> cvar;  ///< C factor per sample
    util::Sample_summary summary;  ///< of tdp

    /// Bit-pattern comparison (util::bits_equal), so a deterministic run
    /// containing NaN samples (a non-flipping write) still equals its
    /// bitwise-identical re-run.
    bool operator==(const Tdp_distribution& o) const
    {
        return util::bits_equal(tdp, o.tdp) &&
               util::bits_equal(rvar, o.rvar) &&
               util::bits_equal(cvar, o.cvar) && summary == o.summary;
    }
};

/// Per-sample metric of the generalized sampler: maps a realized process
/// sample (geometry plus the victim's extracted R/C variation) to the
/// recorded value.  The read path evaluates the analytic tdp formula; the
/// write path runs a SPICE transient on a per-worker context.  Receives
/// the run context to key per-worker scratch on Run_context::worker; the
/// context must never influence the returned value.  May return NaN (a
/// failed sample poisons the summary instead of aborting the sweep).
using Sample_metric = std::function<double(
    const geom::Wire_array& realized, const extract::Rc_variation& v,
    const core::Run_context& ctx)>;

/// One evaluated sample of the generic accumulation loop.
struct Sample_values {
    double metric = 0.0;
    double rvar = 1.0;
    double cvar = 1.0;
};

/// Per-index sample evaluator: maps the sample's substream index (and the
/// run context, for per-worker scratch only) to its values.  Must depend
/// on the index alone — never on the worker or execution order.
using Sample_eval =
    std::function<Sample_values(std::size_t, const core::Run_context&)>;

/// Pregenerate the full Latin-hypercube sample set of the engine's axes:
/// each axis cut into opts.samples equal-probability strata of the
/// truncated normal, every stratum hit exactly once in an
/// axis-independent random order.  Shared by the exact and surrogate
/// samplers; the stratification couples samples across the whole set, so
/// construction is serial (and incompatible with streaming accumulation).
std::vector<pattern::Process_sample> lhs_samples(
    const pattern::Patterning_engine& engine, util::Rng& rng,
    const Distribution_options& opts);

/// The accumulation machinery shared by the exact samplers above and the
/// surrogate tier (mc/surrogate.h): evaluates `eval(i, ctx)` for every
/// sample index on `opts.runner` and produces the distribution — stored
/// or streaming per `opts.store_samples` (streaming discards the
/// per-sample rvar/cvar).  A NaN metric value poisons the summary in
/// either mode.  Bitwise identical at any thread count.
Tdp_distribution accumulate_distribution(const Sample_eval& eval,
                                         const Distribution_options& opts);

/// Generalized Monte-Carlo sampler: one metric value per process sample,
/// sharing the pseudo-random / Latin-hypercube sampling machinery and the
/// per-worker geometry scratch across every workload.  `nominal` must be
/// decomposed by the engine.  Sample i draws from the counter-based
/// substream (seed, i), so the result is bitwise identical at any thread
/// count.
Tdp_distribution metric_distribution(const pattern::Patterning_engine& engine,
                                     const extract::Extractor& extractor,
                                     const geom::Wire_array& nominal,
                                     std::size_t victim,
                                     const Sample_metric& metric,
                                     const Distribution_options& opts);

/// Run the Monte-Carlo read study for one option at array length n: the
/// generalized sampler with the analytic tdp formula as the metric.
Tdp_distribution tdp_distribution(const pattern::Patterning_engine& engine,
                                  const extract::Extractor& extractor,
                                  const geom::Wire_array& nominal,
                                  std::size_t victim,
                                  const analytic::Td_params& params, int n,
                                  const Distribution_options& opts);

} // namespace mpsram::mc

#endif // MPSRAM_MC_DISTRIBUTION_H
