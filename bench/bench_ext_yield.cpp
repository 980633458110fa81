// Extension experiment: million-sample yield through the surrogate engine
// tier (Tdp_engine::surrogate) — the bench that backs the tier's three
// promises with measured numbers and gates on them:
//
//   1. Throughput: a 10^6-sample mc_tdp distribution through the
//      calibrated response surface vs the extrapolated cost of the SPICE
//      engine (measured on a smaller same-seed run).  Gate: >= 100x
//      including the calibration wall (only enforced from 10^5 samples
//      up — below that the one-time calibration dominates by design).
//   2. Fidelity: same-seed surrogate-vs-SPICE mean/sigma agreement.  The
//      two engines draw IDENTICAL process samples (mc/surrogate.h), so
//      the comparison cancels Monte-Carlo noise and the gate bounds pure
//      model error: |d mean| <= 1% of sigma and |d sigma| <= 1% relative,
//      each plus twice its own paired-sample standard error (the
//      deviation estimates themselves wobble with the SPICE leg's size).
//   3. Tails: importance-sampled sigma-level quantiles vs the exact
//      order statistic of a large stored surrogate run — same surface on
//      both sides, so the gate (3-sigma quantile within 2%) checks the
//      defensive-mixture IS machinery, with the ESS diagnostic gated at
//      10% of the draw count.
//
// The thread-scaling grid runs the streaming (memory-flat) surrogate
// workload on a PRE-CALIBRATED session — calibration is paid before the
// grid so the timings measure the pure sample path — and the driver's
// bitwise determinism check covers the 1/2/4/hw-thread contract.
// Emits BENCH_yield.json.
//
//   $ ./bench_ext_yield [samples] [spice_samples]
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_driver.h"
#include "cli_args.h"
#include "core/session.h"
#include "mc/surrogate.h"
#include "pattern/engine.h"
#include "util/numeric.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace mpsram;

/// Same-seed model-error measurement: the engines draw identical process
/// samples, so the paired per-sample differences carry the surrogate's
/// model error alone.  The deviations still wobble with the finite SPICE
/// sample count, so each gate is the 1% budget plus twice the deviation's
/// own standard error (delta method on the paired samples) — a larger
/// SPICE leg tightens the gate toward a pure 1%.
struct Model_error {
    double mean_err_sigma = 0.0;  ///< |d mean| / sigma_spice
    double sigma_err_rel = 0.0;   ///< |sigma_surr / sigma_spice - 1|
    double mean_gate = 0.0;       ///< 0.01 + 2 SE of mean_err_sigma
    double sigma_gate = 0.0;      ///< 0.01 + 2 SE of sigma_err_rel
    bool within() const
    {
        return mean_err_sigma <= mean_gate && sigma_err_rel <= sigma_gate;
    }
};

Model_error model_error(const std::vector<double>& spice,
                        const std::vector<double>& surr,
                        const util::Sample_summary& sx,
                        const util::Sample_summary& ss)
{
    const std::size_t count = spice.size();
    Model_error e;
    e.mean_err_sigma = std::fabs(ss.mean - sx.mean) / sx.stddev;
    e.sigma_err_rel = std::fabs(ss.stddev / sx.stddev - 1.0);
    // SE of the mean deviation: std of the paired differences / sqrt(n);
    // SE of the sigma ratio: std of the paired centered-square
    // differences / (2 sigma_x^2 sqrt(n)), the first-order expansion of
    // sigma_s / sigma_x about 1.
    double var_diff = 0.0;
    double var_sq = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        const double diff = (surr[i] - ss.mean) - (spice[i] - sx.mean);
        var_diff += diff * diff;
        const double sq = (surr[i] - ss.mean) * (surr[i] - ss.mean) -
                          (spice[i] - sx.mean) * (spice[i] - sx.mean);
        var_sq += sq * sq;
    }
    var_diff /= static_cast<double>(count);
    // Center the squared differences about their mean (the variance gap).
    const double mean_sq = ss.stddev * ss.stddev - sx.stddev * sx.stddev;
    var_sq = var_sq / static_cast<double>(count) - mean_sq * mean_sq;
    const double root_n = std::sqrt(static_cast<double>(count));
    e.mean_gate =
        0.01 + 2.0 * std::sqrt(var_diff) / (sx.stddev * root_n);
    e.sigma_gate = 0.01 + 2.0 * std::sqrt(std::max(var_sq, 0.0)) /
                              (2.0 * sx.stddev * sx.stddev * root_n);
    return e;
}

/// Everything measured for one patterning option.
struct Option_report {
    std::string name;
    double calib_wall_s = 0.0;
    double holdout_rel = 0.0;
    int design_points = 0;
    double spice_per_sample_s = 0.0;
    double surrogate_wall_s = 0.0;  ///< streaming run at `samples`
    Model_error err;
    double speedup = 0.0;  ///< extrapolated SPICE / surrogate
    double speedup_with_calibration = 0.0;
    mc::Tail_result tail;
    double tail3_ref = 0.0;  ///< exact 3-sigma quantile (stored run)
    double tail3_err = 0.0;  ///< relative IS-vs-exact deviation
};

double timed(const std::function<void()>& work)
{
    const auto t0 = std::chrono::steady_clock::now();
    work();
    return bench::seconds_of(std::chrono::steady_clock::now() - t0);
}

} // namespace

int main(int argc, char** argv)
{
    const long samples =
        argc > 1 ? cli::number("samples", argv[1], 1L, 1L << 34) : 1000000;
    const int spice_samples =
        argc > 2 ? cli::number("spice_samples", argv[2], 2, 1 << 20) : 500;
    constexpr int n = 64;
    const int hw = util::Thread_pool::hardware_threads();
    // The speedup gate only binds once the calibration wall amortizes.
    const bool gate_speedup = samples >= 100000;

    std::cout << "Extension: surrogate-tier yield, 10x" << n << ", "
              << samples << " surrogate samples vs " << spice_samples
              << " SPICE samples per option\n\n";

    std::vector<Option_report> reports;
    bool agreement_ok = true;
    bool tails_ok = true;
    bool speedup_ok = true;
    {
        const core::Study_session session;
        const core::Runner_options parallel{hw};
        for (const auto option : tech::patterning_option_tokens.values) {
            Option_report rep;
            rep.name = std::string(tech::to_string(option));

            // --- calibration (timed; the one-time cost of the tier) ----------
            std::shared_ptr<const analytic::Yield_surfaces> surfaces;
            rep.calib_wall_s = timed([&] {
                surfaces = session.calibrated_surfaces(
                    core::Metric::mc_tdp, option, n, -1.0, std::nullopt,
                    std::nullopt, parallel);
            });
            rep.holdout_rel = surfaces->holdout_rel;
            rep.design_points = surfaces->design_points;

            // --- the SPICE leg: same-seed exact reference --------------------
            core::Query qx(core::Metric::mc_tdp);
            qx.with_case({option, n})
                .with_tdp_engine(core::Tdp_engine::spice);
            qx.mc.samples = spice_samples;
            qx.mc.runner = parallel;
            mc::Tdp_distribution spice_dist;
            const double spice_wall = timed([&] {
                spice_dist = session.run(qx).as<mc::Tdp_distribution>(0);
            });
            rep.spice_per_sample_s = spice_wall / spice_samples;

            // --- same-seed surrogate: pure model error -----------------------
            core::Query qs = qx;
            qs.with_tdp_engine(core::Tdp_engine::surrogate);
            const auto surr_small =
                session.run(qs).as<mc::Tdp_distribution>(0);
            rep.err = model_error(spice_dist.tdp, surr_small.tdp,
                                  spice_dist.summary, surr_small.summary);
            agreement_ok = agreement_ok && rep.err.within();

            // --- the full-sample streaming run (timed) -----------------------
            core::Query qf = qs;
            qf.mc.samples = static_cast<int>(samples);
            qf.mc.store_samples = false;
            rep.surrogate_wall_s =
                timed([&] { (void)session.run(qf); });
            const double spice_extrapolated =
                rep.spice_per_sample_s * static_cast<double>(samples);
            rep.speedup = spice_extrapolated / rep.surrogate_wall_s;
            rep.speedup_with_calibration =
                spice_extrapolated /
                (rep.surrogate_wall_s + rep.calib_wall_s);
            speedup_ok = speedup_ok && (!gate_speedup ||
                                        rep.speedup_with_calibration >= 100.0);

            // --- importance-sampled tails vs the exact order statistic -------
            const auto engine =
                pattern::make_engine(option, session.technology());
            const mc::Distribution_options base;  // engine-default seed
            rep.tail =
                mc::importance_tail(*engine, surfaces->metric, base,
                                    mc::Tail_options{});
            core::Query qr = qs;
            qr.mc.samples =
                static_cast<int>(std::min<long>(samples, 200000));
            auto ref = session.run(qr).as<mc::Tdp_distribution>(0);
            rep.tail3_ref = util::quantile(ref.tdp, util::normal_cdf(3.0));
            rep.tail3_err =
                std::fabs(rep.tail.quantiles[0] - rep.tail3_ref) /
                std::fabs(rep.tail3_ref);
            tails_ok = tails_ok && rep.tail3_err <= 0.02 &&
                       rep.tail.ess >=
                           0.1 * static_cast<double>(rep.tail.samples);

            reports.push_back(std::move(rep));
        }
    }

    // --- the science tables --------------------------------------------------
    {
        util::Table table({"option", "calib [s]", "holdout", "spice [s/sample]",
                           "surrogate [s]", "speedup", "incl calib"});
        for (const auto& r : reports) {
            table.add_row({r.name, util::fmt_fixed(r.calib_wall_s, 2),
                           util::fmt_fixed(100.0 * r.holdout_rel, 2) + "%",
                           util::fmt_fixed(r.spice_per_sample_s, 4),
                           util::fmt_fixed(r.surrogate_wall_s, 3),
                           util::fmt_fixed(r.speedup, 0) + "x",
                           util::fmt_fixed(r.speedup_with_calibration, 0) +
                               "x"});
        }
        std::cout << table.render() << '\n';
    }
    {
        util::Table table({"option", "|d mean|/sigma", "gate",
                           "|d sigma| rel", "gate", "tail 3s exact",
                           "tail 3s IS", "IS err", "ESS/samples"});
        for (const auto& r : reports) {
            table.add_row(
                {r.name,
                 util::fmt_fixed(100.0 * r.err.mean_err_sigma, 3) + "%",
                 util::fmt_fixed(100.0 * r.err.mean_gate, 2) + "%",
                 util::fmt_fixed(100.0 * r.err.sigma_err_rel, 3) + "%",
                 util::fmt_fixed(100.0 * r.err.sigma_gate, 2) + "%",
                 util::fmt_fixed(r.tail3_ref, 3) + "%",
                 util::fmt_fixed(r.tail.quantiles[0], 3) + "%",
                 util::fmt_fixed(100.0 * r.tail3_err, 3) + "%",
                 util::fmt_fixed(r.tail.ess /
                                     static_cast<double>(r.tail.samples),
                                 2)});
        }
        std::cout << table.render() << '\n'
                  << "Same-seed engines draw identical process samples, so\n"
                     "the mean/sigma deviations are pure surrogate model\n"
                     "error, gated at 1% plus twice the deviation's own\n"
                     "standard error (paired-sample delta method); the tail\n"
                     "comparison checks the importance sampler against the\n"
                     "exact order statistic of the same surface (gated at\n"
                     "2% on the 3-sigma quantile).\n\n";
    }

    // --- thread scaling: streaming surrogate on a pre-calibrated session -----
    // One shared session, both accuracy policies calibrated up front: the
    // grid then times the pure sample path (draw + quadratic eval +
    // streaming fold), and the driver checks the runs are bitwise
    // identical to the serial baseline at every thread count.
    const core::Study_session grid_session;
    for (const auto accuracy :
         {sram::Sim_accuracy::fast, sram::Sim_accuracy::reference}) {
        (void)grid_session.calibrated_surfaces(
            core::Metric::mc_tdp, tech::Patterning_option::le3, n, -1.0,
            accuracy, std::nullopt, core::Runner_options{hw});
    }
    bench::Scaling_config cfg;
    cfg.bench_name = "bench_ext_yield";
    cfg.workload = "le3_surrogate_streaming_yield";
    cfg.json_path = "BENCH_yield.json";
    cfg.sims_per_row = static_cast<double>(samples);
    cfg.run = [samples, &grid_session](int threads,
                                       sram::Sim_accuracy accuracy) {
        core::Query q(core::Metric::mc_tdp);
        q.with_case({tech::Patterning_option::le3, n})
            .with_tdp_engine(core::Tdp_engine::surrogate)
            .with_accuracy(accuracy);
        q.mc.samples = static_cast<int>(samples);
        q.mc.store_samples = false;
        q.mc.runner = core::Runner_options{threads};
        return grid_session.run(q);
    };
    const bench::Scaling_outcome outcome = bench::run_thread_scaling(cfg);

    // --- verdict + JSON ------------------------------------------------------
    if (!agreement_ok) {
        std::cout << "ERROR: surrogate-vs-SPICE agreement left the 1% "
                     "mean/sigma budget.\n";
    }
    if (!tails_ok) {
        std::cout << "ERROR: importance-sampled 3-sigma quantile off by "
                     "> 2% (or ESS collapsed below 10%).\n";
    }
    if (!speedup_ok) {
        std::cout << "ERROR: surrogate speedup (incl. calibration) under "
                     "the 100x gate.\n";
    }

    std::ostringstream options_json;
    options_json << "\"yield_options\": [";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto& r = reports[i];
        options_json << (i ? ", " : "") << "{\"option\": \"" << r.name
                     << "\", \"calibration_wall_s\": " << r.calib_wall_s
                     << ", \"holdout_rel\": " << r.holdout_rel
                     << ", \"design_points\": " << r.design_points
                     << ", \"spice_per_sample_s\": " << r.spice_per_sample_s
                     << ", \"surrogate_wall_s\": " << r.surrogate_wall_s
                     << ", \"speedup\": " << r.speedup
                     << ", \"speedup_with_calibration\": "
                     << r.speedup_with_calibration
                     << ", \"mean_err_sigma\": " << r.err.mean_err_sigma
                     << ", \"mean_gate\": " << r.err.mean_gate
                     << ", \"sigma_err_rel\": " << r.err.sigma_err_rel
                     << ", \"sigma_gate\": " << r.err.sigma_gate
                     << ", \"tail_sigma_levels\": [3, 4, 5, 6]"
                     << ", \"tail_quantiles\": [";
        for (std::size_t k = 0; k < r.tail.quantiles.size(); ++k) {
            options_json << (k ? ", " : "") << r.tail.quantiles[k];
        }
        options_json << "], \"tail_ess\": " << r.tail.ess
                     << ", \"tail3_exact\": " << r.tail3_ref
                     << ", \"tail3_err_rel\": " << r.tail3_err << "}";
    }
    options_json << "],";
    bench::write_bench_json(
        cfg, outcome, nullptr, nullptr, n,
        {"\"samples\": " + std::to_string(samples) + ",",
         "\"spice_samples\": " + std::to_string(spice_samples) + ",",
         "\"speedup_gated\": " +
             std::string(gate_speedup ? "true" : "false") + ",",
         options_json.str()});

    const bool ok = outcome.all_identical && agreement_ok && tails_ok &&
                    speedup_ok;
    return ok ? 0 : 1;
}
