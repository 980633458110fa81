// mc_yield: the Fig. 5 / Table IV Monte-Carlo distributions on two engine
// tiers, one thread.
//
//   formula    mc_tdp on stored samples for the Fig. 5 point (LE3 @ 8 nm
//              3-sigma overlay, 10x64) and the SADP / EUV rows: pattern
//              realize + victim extraction + the analytic td model per
//              sample (pattern, extract, analytic, mc, util.rng).
//   surrogate  mc_tdp with streaming samples at the Fig. 5 point: truncated
//              draws + the calibrated quadratic surface per sample.
//
// The surrogate is calibrated once per session, in the set-up (a SPICE
// design set at n = 64), so a spice change moves only setup_s here: the
// timed rounds run no SPICE.  Calibrating only the Fig. 5 point keeps a
// set-up near 6 s; the SADP / EUV surfaces would triple it.
//
// Correctness: each round's tables are bitwise equal to the first
// round's; the surrogate's mean and sigma stay close to the formula tier's
// (see check_tiers); and every set-up re-checks small fixed-seed runs of
// both tiers against the committed summaries in data/oracle.json.
//
// Traced, the calibration is one outside-in span around the public
// calibrated_surfaces() call on a fresh session; its fit count and
// held-out error come from the session and the surfaces it returns.  Its
// SPICE work runs inside the session, where no span reaches, so the
// spice.* metrics read 0 here: a spice change shows in setup_s and
// analytic.calibration_s, and layer by layer on fig4_read / write_sweep.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common.h"
#include "mc/distribution.h"
#include "mc/surrogate.h"
#include "sram/layout.h"
#include "core/serialize.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace mpsram;

constexpr int word_lines = 64;
constexpr double fig5_ol = 8e-9;  // LE3 3-sigma overlay budget [m]
// A round takes about 2 s: long enough that one slow moment of the host
// barely moves a round, so the slowest round (p99_ms) stays steady.
constexpr int formula_samples = 50000;
constexpr int surrogate_samples = 250000;
/// Fixed seed and size of the committed-summary check in the set-up.
constexpr std::uint64_t committed_seed = 20150609;
constexpr int committed_samples = 2000;
/// Set-ups per run (a calibration + the committed check, ~6.5 s each).
constexpr int setup_repeats = 3;

std::vector<core::Query_case> formula_cases()
{
    return {{tech::Patterning_option::le3, word_lines, fig5_ol},
            {tech::Patterning_option::sadp, word_lines, -1.0},
            {tech::Patterning_option::euv, word_lines, -1.0}};
}

core::Query mc_query(core::Tdp_engine engine, std::uint64_t seed,
                     int samples, bool store)
{
    core::Query q(core::Metric::mc_tdp);
    if (engine == core::Tdp_engine::formula) {
        for (const auto& c : formula_cases()) q.with_case(c);
    } else {
        q.with_case(formula_cases().front());
    }
    q.with_accuracy(sram::Sim_accuracy::fast)
        .with_solver(spice::Solver_policy::bypass)
        .with_tdp_engine(engine)
        .on(core::Runner_options{1});
    q.mc.samples = samples;
    q.mc.seed = seed;
    q.mc.store_samples = store;
    q.mc.runner = core::Runner_options{1};
    return q;
}

std::shared_ptr<const analytic::Yield_surfaces> fig5_surfaces(
    const core::Study_session& s)
{
    const core::Query_case c = formula_cases().front();
    return s.calibrated_surfaces(core::Metric::mc_tdp, c.option,
                                 c.word_lines, c.ol_3sigma,
                                 sram::Sim_accuracy::fast,
                                 spice::Solver_policy::bypass,
                                 core::Runner_options{1});
}

util::Json json_of_summary(const util::Sample_summary& s)
{
    util::Json j;
    j.set("count", static_cast<std::uint64_t>(s.count));
    j.set("mean", util::json_of_double(s.mean));
    j.set("stddev", util::json_of_double(s.stddev));
    j.set("min", util::json_of_double(s.min));
    j.set("max", util::json_of_double(s.max));
    j.set("median", util::json_of_double(s.median));
    j.set("p01", util::json_of_double(s.p01));
    j.set("p99", util::json_of_double(s.p99));
    return j;
}

/// Summaries of the committed fixed-seed runs: three formula rows, then
/// the surrogate row.
std::vector<util::Sample_summary> committed_runs(const core::Study_session& s)
{
    std::vector<util::Sample_summary> out;
    for (const auto engine :
         {core::Tdp_engine::formula, core::Tdp_engine::surrogate}) {
        const core::Result_table t = s.run(
            mc_query(engine, committed_seed, committed_samples, true));
        for (std::size_t i = 0; i < t.size(); ++i) {
            out.push_back(t.as<mc::Tdp_distribution>(i).summary);
        }
    }
    return out;
}

/// Relative 1e-9 (FP reassociation), not bits: the gate is for wrong
/// numbers, not for a reordered sum.
bool close(double a, double b)
{
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b)) +
                                  1e-15;
}

void check_committed(const Args& args, Report& report,
                     const core::Study_session& s)
{
    const util::Json oracle = load_oracle(args);
    const util::Json_array& want = oracle.at("mc_yield").as_array();
    const auto got = committed_runs(s);
    report.attempt(got.size());
    if (want.size() != got.size()) {
        report.fail("committed mc summaries: size mismatch");
        return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        const util::Json g = json_of_summary(got[i]);
        bool ok = true;
        for (const auto& [key, value] : want[i].as_object()) {
            ok = ok && close(util::double_of_json(g.at(key)),
                             util::double_of_json(value));
        }
        if (!ok) report.fail("committed mc summary " + std::to_string(i));
    }
}

/// Cross-tier agreement at the Fig. 5 point.  The two tiers model
/// different things — the analytic eq. 4 versus a surface fitted to
/// SPICE — so they agree closely but not to the surrogate's own 1% model
/// error: measured at this revision, the mean gap is under 1% of sigma
/// and the sigma gap 3-4%.  The gate holds the mean to 5% of sigma and
/// sigma to 5%; a broken tier misses both by far.
bool check_tiers(const util::Sample_summary& formula,
                 const util::Sample_summary& surrogate)
{
    return std::abs(surrogate.mean - formula.mean) <= 0.05 * formula.stddev &&
           std::abs(surrogate.stddev / formula.stddev - 1.0) <= 0.05;
}

/// The formula tier replayed through the layers' public functions, per
/// sample exactly as mc::metric_distribution evaluates it.
core::Result_table replay_formula(const core::Study_session& s,
                                  const core::Query& q)
{
    std::vector<core::Row_value> rows;
    for (const core::Query_case& c : q.cases) {
        tech::Technology t = s.technology();
        if (c.ol_3sigma >= 0.0) t.variability.le3_ol_3sigma = c.ol_3sigma;
        sram::Array_config cfg = s.options().array;
        cfg.word_lines = c.word_lines;
        std::unique_ptr<pattern::Patterning_engine> engine;
        geom::Wire_array nominal;
        sram::Victim_wires victims;
        {
            PB_SPAN(span, "pattern.decompose");
            engine = pattern::make_engine(c.option, t);
            nominal = engine->decompose(sram::build_metal1_array(t, cfg));
            victims = sram::find_victim_wires(nominal, cfg);
        }
        const analytic::Td_params params = s.formula_params(c.word_lines);
        const std::uint64_t base =
            util::Rng(q.mc.seed).child(engine->name()).seed();
        geom::Wire_array realized;
        PB_SPAN(span, "mc.formula");
        rows.emplace_back(mc::accumulate_distribution(
            [&](std::size_t i, const core::Run_context&) {
                pattern::Process_sample sample;
                {
                    PB_SPAN(rng_span, "util.rng");
                    util::Rng rng = util::Rng::stream(base, i);
                    sample = engine->sample_gaussian(rng, q.mc.truncate_k);
                }
                {
                    PB_SPAN(realize_span, "pattern.realize");
                    engine->realize_into(nominal, sample, realized);
                }
                extract::Rc_variation v;
                {
                    PB_SPAN(variation_span, "extract.variation");
                    v = s.extractor().variation(nominal, realized,
                                                victims.bl);
                }
                PB_SPAN(formula_span, "analytic.td_formula");
                return mc::Sample_values{
                    analytic::tdp_percent(params, c.word_lines, v.r_factor,
                                          v.c_factor),
                    v.r_factor, v.c_factor};
            },
            q.mc));
    }
    return core::Result_table(q.metric, q.cases, std::move(rows));
}

/// The surrogate tier replayed per sample as mc::surrogate_distribution
/// evaluates it (streaming: no R/C factor surfaces).
core::Result_table replay_surrogate(const core::Study_session& s,
                                    const core::Query& q)
{
    const core::Query_case c = q.cases.front();
    tech::Technology t = s.technology();
    if (c.ol_3sigma >= 0.0) t.variability.le3_ol_3sigma = c.ol_3sigma;
    const auto engine = pattern::make_engine(c.option, t);
    const auto surfaces = fig5_surfaces(s);
    const std::uint64_t base =
        util::Rng(q.mc.seed).child(engine->name()).seed();
    pattern::Process_sample own;
    PB_SPAN(span, "mc.surrogate");
    std::vector<core::Row_value> rows{mc::accumulate_distribution(
        [&](std::size_t i, const core::Run_context&) {
            {
                PB_SPAN(rng_span, "util.rng");
                util::Rng rng = util::Rng::stream(base, i);
                own.clear();
                for (const auto& axis : engine->axes()) {
                    own.push_back(rng.truncated_normal(0.0, axis.sigma,
                                                       q.mc.truncate_k));
                }
            }
            PB_SPAN(eval_span, "analytic.surface_eval");
            mc::Sample_values v;
            v.metric = surfaces->metric.value(own);
            return v;
        },
        q.mc)};
    return core::Result_table(q.metric, q.cases, std::move(rows));
}

} // namespace

void run_mc_yield(const Args& args, Report& report)
{
    // Set-up: fresh session, Fig. 5 surrogate calibration, and the
    // committed fixed-seed check (which also warms the formula memos).
    // Set-up 0's session serves the rounds; the later ones are thrown
    // away.  The traced run sets up once.
    std::unique_ptr<core::Study_session> session;
    const auto set_up = [&](int i) {
        auto fresh = std::make_unique<core::Study_session>(tech::n10(),
                                                           uncached_options());
        fig5_surfaces(*fresh);
        check_committed(args, report, *fresh);
        if (i == 0) session = std::move(fresh);
    };

    const std::uint64_t seed = util::Rng(args.seed).child("mc_yield").seed();
    const core::Query fq =
        mc_query(core::Tdp_engine::formula, seed, formula_samples, true);
    const core::Query sq = mc_query(core::Tdp_engine::surrogate, seed,
                                    surrogate_samples, false);
    const double samples_per_round =
        static_cast<double>(fq.cases.size() * formula_samples +
                            surrogate_samples);

    if (args.trace) set_up(0);
    std::string first[2];
    const auto check_round = [&](const core::Result_table& f,
                                 const core::Result_table& g) {
        const std::string bytes[2] = {table_bytes(f), table_bytes(g)};
        for (int k = 0; k < 2; ++k) {
            if (first[k].empty()) first[k] = bytes[k];
            report.check(bytes[k] == first[k], "mc table changed bits");
        }
        report.check(check_tiers(f.as<mc::Tdp_distribution>(0).summary,
                                 g.as<mc::Tdp_distribution>(0).summary),
                     "surrogate vs formula mean/sigma gap");
    };

    if (!args.trace) {
        const Timed_phase p =
            timed_phase(args.seconds, setup_repeats, set_up, [&] {
                const auto t0 = Clock::now();
                const core::Result_table f = session->run(fq);
                const core::Result_table g = session->run(sq);
                const double wall = seconds_since(t0);
                check_round(f, g);
                return wall;
            });
        report_end_to_end(report, median(p.setups), p.walls,
                          samples_per_round, {}, peak_rss_mb());
        return;
    }

    const core::Study_session& s = *session;

    auto t0 = Clock::now();
    const core::Result_table f = s.run(fq);
    const core::Result_table g = s.run(sq);
    const double untraced_s = seconds_since(t0);
    check_round(f, g);

    trace::Recorder recorder;
    trace::set_active(&recorder);
    // Calibration, twice, each on a fresh session: the surfaces must equal
    // the set-up session's bitwise and each session must fit exactly once.
    const auto surfaces = fig5_surfaces(s);
    const std::string want = core::json_of_surfaces(*surfaces).dump();
    for (int k = 0; k < 2; ++k) {
        const core::Study_session fresh(tech::n10(), uncached_options());
        std::shared_ptr<const analytic::Yield_surfaces> fitted;
        {
            PB_SPAN(span, "analytic.calibration");
            fitted = fig5_surfaces(fresh);
        }
        report.check(core::json_of_surfaces(*fitted).dump() == want,
                     "calibration on a fresh session differs");
        report.check(fresh.surface_fit_count() == 1,
                     "calibration fit count did not repeat");
    }

    double traced_s = 0.0;
    for (int k = 0; k < 2; ++k) {
        t0 = Clock::now();
        core::Result_table rf;
        core::Result_table rg;
        {
            PB_SPAN(root, "workload");
            rf = replay_formula(s, fq);
            rg = replay_surrogate(s, sq);
        }
        if (k == 0) traced_s = seconds_since(t0);
        report.check(rf == f, "traced formula replay differs");
        report.check(rg == g, "traced surrogate replay differs");
    }
    trace::set_active(nullptr);
    if (!args.trace_out.empty()) recorder.write(args.trace_out);

    // Counts: the set-up calibrated exactly once and no corner search
    // runs; both replays draw the same samples by construction.
    report.check(s.surface_fit_count() == 1 && s.corner_search_count() == 0,
                 "unexpected calibration / corner-search counts");

    const auto totals = recorder.totals();
    const auto span = [&](const char* name) {
        return trace::totals_of(totals, name);
    };
    const double nf = 2.0 * static_cast<double>(fq.cases.size()) *
                      formula_samples;
    const double ns = 2.0 * surrogate_samples;
    Layer_metrics m;
    m["mc.samples"] = samples_per_round;
    m["mc.formula_sample_ns"] = 1e9 * span("mc.formula").total_s / nf;
    m["mc.surrogate_sample_ns"] = 1e9 * span("mc.surrogate").total_s / ns;
    m["pattern.realize_ns"] = 1e9 * span("pattern.realize").total_s / nf;
    m["extract.variation_ns"] = 1e9 * span("extract.variation").total_s / nf;
    m["analytic.td_formula_ns"] =
        1e9 * span("analytic.td_formula").total_s / nf;
    m["analytic.surface_eval_ns"] =
        1e9 * span("analytic.surface_eval").total_s / ns;
    m["util.rng_draw_ns"] = 1e9 * span("util.rng").total_s / (nf + ns);
    m["mc.accumulate_ns"] =
        1e9 * (span("mc.formula").self_s + span("mc.surrogate").self_s) /
        (nf + ns);
    m["pattern.decompose_s"] = span("pattern.decompose").total_s / 2.0;
    m["analytic.surface_fits"] = static_cast<double>(s.surface_fit_count());
    m["analytic.calibration_s"] = span("analytic.calibration").total_s / 2.0;
    m["analytic.holdout_rel"] = surfaces->holdout_rel;
    m["trace.overhead_s"] = traced_s - untraced_s;
    m["trace.unattributed_share"] =
        span("workload").self_s / span("workload").total_s;
    m["error_ratio"] = report.error_ratio();
    report_per_layer(report, m);
}

util::Json mc_oracle()
{
    const core::Study_session s(tech::n10(), uncached_options());
    util::Json_array rows;
    for (const auto& summary : committed_runs(s)) {
        rows.push_back(json_of_summary(summary));
    }
    return util::Json(std::move(rows));
}

} // namespace perfbench
