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
#include "util/rng.h"
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

/// The process samples of one experiment, drawn identically by the exact
/// and surrogate samplers: sample i is row i of the pregenerated
/// Latin-hypercube set, or the truncated-Gaussian draw from substream
/// (base seed, i), where the base seed is
/// Rng(opts.seed).child(engine.name()).  Each worker opens its
/// substreams util::Rng::stream_lanes at a time with util::Rng::streams
/// (lockstep seeding, util/rng.h) and reopens when a sample index leaves
/// its block, so sample i draws exactly what Rng::stream(base, i) draws,
/// whichever worker asks and in whatever order: results depend on the
/// index alone.
class Sample_draws {
public:
    Sample_draws(const pattern::Patterning_engine& engine,
                 const Distribution_options& opts);

    /// Sample i (< opts.samples), in the calling worker's scratch; valid
    /// until that worker's next call.
    const pattern::Process_sample& operator()(std::size_t i,
                                              const core::Run_context& ctx);

private:
    /// One worker's open block: substreams [first, first + open) of the
    /// experiment, and which of them it has handed out.
    struct Stream_block {
        std::vector<util::Rng> streams;
        std::size_t first = 0;
        std::size_t open = 0;
        unsigned taken = 0;
        pattern::Process_sample sample;
    };
    static_assert(util::Rng::stream_lanes <= 32, "`taken` is 32 bits");

    const pattern::Patterning_engine& engine_;
    std::uint64_t base_seed_;
    std::size_t samples_;
    double truncate_k_;
    std::vector<pattern::Process_sample> pregen_;
    std::vector<Stream_block> blocks_;
};

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
/// decomposed by the engine.  Each sample realizes the whole array (the
/// SPICE metrics read it) and extracts the victim against its nominal
/// Wire_rc, computed once.  Sample i draws from the counter-based
/// substream (seed, i), so the result is bitwise identical at any thread
/// count.
Tdp_distribution metric_distribution(const pattern::Patterning_engine& engine,
                                     const extract::Extractor& extractor,
                                     const geom::Wire_array& nominal,
                                     std::size_t victim,
                                     const Sample_metric& metric,
                                     const Distribution_options& opts);

/// A metric of the victim's R/C variation factors alone (the analytic
/// td / tw formulas).
using Factor_metric = std::function<double(const extract::Rc_variation&)>;

/// The formula tier: metric_distribution for a metric that never reads
/// the realized geometry, bitwise equal to it, at the cost of the victim
/// rather than the array.
///
/// Victim window.  The victim's R/C reads only its own width and its
/// spacings to its two neighbours, and every engine realizes each wire
/// from its own drawn geometry, mask colour and SADP class alone.  So
/// each sample realizes a sub-array built once per distribution — the
/// victim and its neighbours, an edge victim still an edge — and
/// extracts it against the nominal victim's Wire_rc, computed once.
///
/// Guard.  A sample that pinches any wire of the full array off must
/// still throw the engine's error.  Every engine's pinch test is
/// fl(w + d) > 0 with d fixed by the wire's mask colour and SADP class
/// (for an SADP gap line, w - fl(dcd + 2 dsp)), which is monotone in the
/// drawn width w.  So each sample first realizes a guard sub-array of one
/// minimum-width wire per (mask colour, SADP class): it throws exactly
/// when some wire of the full array would, with the same error.
Tdp_distribution factor_distribution(const pattern::Patterning_engine& engine,
                                     const extract::Extractor& extractor,
                                     const geom::Wire_array& nominal,
                                     std::size_t victim,
                                     const Factor_metric& metric,
                                     const Distribution_options& opts);

/// The formula tier's per-distribution geometry (factor_distribution).
struct Victim_window {
    geom::Wire_array wires;  ///< the victim and its neighbours
    std::size_t victim = 0;  ///< the victim's index in `wires`
    geom::Wire_array guard;  ///< one minimum-width wire per class
};

/// The victim window and pinch guard of a decomposed array.
Victim_window victim_window(const geom::Wire_array& nominal,
                            std::size_t victim);

/// Run the Monte-Carlo read study for one option at array length n: the
/// formula tier with the analytic tdp formula as the metric.
Tdp_distribution tdp_distribution(const pattern::Patterning_engine& engine,
                                  const extract::Extractor& extractor,
                                  const geom::Wire_array& nominal,
                                  std::size_t victim,
                                  const analytic::Td_params& params, int n,
                                  const Distribution_options& opts);

} // namespace mpsram::mc

#endif // MPSRAM_MC_DISTRIBUTION_H
