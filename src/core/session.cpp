#include "core/session.h"

#include <array>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>

#include "analytic/td_formula.h"
#include "analytic/tw_formula.h"
#include "core/serialize.h"
#include "mc/distribution.h"
#include "mc/surrogate.h"
#include "pattern/engine.h"
#include "sram/netlist_builder.h"
#include "util/contracts.h"
#include "util/json.h"
#include "util/rng.h"

namespace mpsram::core {

// --- session state -----------------------------------------------------------

Study_session::Study_session(tech::Technology tech, Study_options opts)
    : tech_(std::move(tech)),
      opts_(opts),
      extractor_(std::make_unique<extract::Extractor>(tech_.metal1,
                                                      opts.extraction)),
      cell_(sram::Cell_electrical::n10(tech_.feol))
{
    if (opts_.array.victim_pair < 0) {
        // The paper's LE3 worst case (Table I) perturbs only masks B and C:
        // the victim bit line itself is on the alignment reference mask A.
        // With 4 tracks per pair and cyclic 3-coloring, pairs 0/3/6/9 have
        // mask-A bit lines; pick the interior one nearest the center.
        opts_.array.victim_pair = 6;
    }

    // Fingerprint the resolved configuration (victim_pair included), then
    // bring up the on-disk cache if a directory is configured anywhere.
    fingerprint_ = core::config_fingerprint(tech_, opts_);
    const Cache_mode mode = opts_.cache.mode.value_or(default_cache_mode());
    const std::string dir = !opts_.cache.directory.empty()
                                ? opts_.cache.directory
                                : default_cache_dir().value_or("");
    if (mode != Cache_mode::off && !dir.empty()) {
        cache_ = std::make_shared<Result_cache>(dir, mode,
                                                serialization_version);
    }
}

tech::Technology Study_session::tech_with_ol(double ol_3sigma) const
{
    tech::Technology t = tech_;
    if (ol_3sigma >= 0.0) t.variability.le3_ol_3sigma = ol_3sigma;
    return t;
}

geom::Wire_array Study_session::decomposed_array(
    tech::Patterning_option option, int word_lines, double ol_3sigma) const
{
    sram::Array_config cfg = opts_.array;
    cfg.word_lines = word_lines;
    const tech::Technology t = tech_with_ol(ol_3sigma);
    const auto engine = pattern::make_engine(option, t);
    return engine->decompose(sram::build_metal1_array(t, cfg));
}

sram::Bitline_electrical Study_session::nominal_wires(int word_lines) const
{
    {
        const std::lock_guard<std::mutex> lock(nominal_cache_mutex_);
        const auto it = nominal_wires_cache_.find(word_lines);
        if (it != nominal_wires_cache_.end()) return it->second;
    }

    sram::Array_config cfg = opts_.array;
    cfg.word_lines = word_lines;
    // Nominal geometry needs no patterning engine: use EUV decomposition
    // (single mask) with a zero sample == drawn layout.  Computed outside
    // the lock (value-racy-but-deterministic, like the nominal memos).
    const geom::Wire_array nominal =
        decomposed_array(tech::Patterning_option::euv, word_lines);
    const sram::Bitline_electrical wires =
        sram::roll_up_nominal(*extractor_, nominal, tech_, cfg);
    const std::lock_guard<std::mutex> lock(nominal_cache_mutex_);
    nominal_wires_cache_.emplace(word_lines, wires);
    return wires;
}

Study_session::Case_geometry Study_session::case_geometry(
    tech::Patterning_option option, int word_lines, double ol_3sigma) const
{
    Case_geometry g;
    g.cfg = opts_.array;
    g.cfg.word_lines = word_lines;
    const tech::Technology t = tech_with_ol(ol_3sigma);
    g.engine = pattern::make_engine(option, t);
    g.nominal = g.engine->decompose(sram::build_metal1_array(t, g.cfg));
    g.victims = sram::find_victim_wires(g.nominal, g.cfg);
    return g;
}

sram::Sim_accuracy Study_session::read_accuracy(const Query& q) const
{
    return q.accuracy.value_or(opts_.read.accuracy);
}

sram::Sim_accuracy Study_session::write_accuracy(const Query& q) const
{
    return q.accuracy.value_or(opts_.write.accuracy);
}

sram::Sim_accuracy Study_session::disturb_accuracy(const Query& q) const
{
    return q.accuracy.value_or(opts_.disturb.accuracy);
}

spice::Solver_policy Study_session::read_solver(const Query& q) const
{
    return sram::resolve_solver_policy(
        read_accuracy(q), q.solver.has_value() ? q.solver
                                               : opts_.read.solver);
}

spice::Solver_policy Study_session::write_solver(const Query& q) const
{
    return sram::resolve_solver_policy(
        write_accuracy(q), q.solver.has_value() ? q.solver
                                                : opts_.write.solver);
}

spice::Solver_policy Study_session::disturb_solver(const Query& q) const
{
    return sram::resolve_solver_policy(
        disturb_accuracy(q), q.solver.has_value() ? q.solver
                                                  : opts_.disturb.solver);
}

// --- worst-case memo ---------------------------------------------------------

mc::Worst_case_result Study_session::worst_case_full(
    tech::Patterning_option option, int word_lines, double ol_3sigma,
    const Runner_options& runner) const
{
    return *worst_case_cached(option, word_lines, ol_3sigma, runner);
}

std::shared_ptr<const mc::Worst_case_result>
Study_session::worst_case_cached(tech::Patterning_option option,
                                 int word_lines, double ol_3sigma,
                                 const Runner_options& runner) const
{
    // Every "use the technology default" request shares one memo slot.
    const Wc_key key{option, word_lines, ol_3sigma < 0.0 ? -1.0 : ol_3sigma};

    std::promise<std::shared_ptr<const mc::Worst_case_result>> promise;
    Wc_entry entry;
    bool owner = false;
    {
        const std::lock_guard<std::mutex> lock(wc_cache_mutex_);
        const auto it = wc_cache_.find(key);
        if (it != wc_cache_.end()) {
            entry = it->second;
        } else {
            entry = promise.get_future().share();
            wc_cache_.emplace(key, entry);
            owner = true;
        }
    }

    if (owner) {
        // The enumeration runs outside the lock; concurrent callers of the
        // same key block on the shared future instead of duplicating it.
        try {
            const std::uint64_t disk_key =
                corner_key(fingerprint_, option, word_lines, ol_3sigma);
            std::optional<util::Json> stored =
                cache_ ? cache_->load("corner", disk_key) : std::nullopt;
            if (stored) {
                // Served from disk: no enumeration, the search counter
                // stays flat (the observable the warm-cache tests gate).
                promise.set_value(
                    std::make_shared<const mc::Worst_case_result>(
                        worst_case_of_json(*stored)));
                return entry.get();
            }

            corner_searches_.fetch_add(1, std::memory_order_relaxed);

            const Case_geometry g =
                case_geometry(option, word_lines, ol_3sigma);
            auto result = std::make_shared<const mc::Worst_case_result>(
                mc::find_worst_case(*g.engine, *extractor_, g.nominal,
                                    g.victims.bl, g.victims.vss, 3,
                                    runner));
            if (cache_) {
                cache_->store("corner", disk_key,
                              json_of_worst_case(*result));
            }
            promise.set_value(std::move(result));
        } catch (...) {
            // Un-publish the failed slot so a later call can retry, then
            // propagate to every waiter (and to this caller via get()).
            {
                const std::lock_guard<std::mutex> lock(wc_cache_mutex_);
                wc_cache_.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return entry.get();
}

// --- surrogate calibration ---------------------------------------------------

namespace {

/// Root seed of the held-out validation draws.  Deliberately a fixed
/// constant (not the query seed): the calibrated surface is a property of
/// the study point, so the memo key excludes the seed and the validation
/// set must not depend on which query triggered the fit.
constexpr std::uint64_t calibration_seed = 20150609;

} // namespace

std::shared_ptr<const analytic::Yield_surfaces>
Study_session::calibrated_surfaces(Metric metric,
                                   tech::Patterning_option option,
                                   int word_lines, double ol_3sigma,
                                   std::optional<sram::Sim_accuracy> accuracy,
                                   std::optional<spice::Solver_policy> solver,
                                   const Runner_options& runner) const
{
    util::expects(metric == Metric::mc_tdp || metric == Metric::mc_twp,
                  "surrogate surfaces exist only for the distribution "
                  "metrics (mc_tdp, mc_twp)");
    if (word_lines <= 0) word_lines = opts_.array.word_lines;
    const sram::Sim_accuracy acc = accuracy.value_or(
        metric == Metric::mc_tdp ? opts_.read.accuracy
                                 : opts_.write.accuracy);
    const spice::Solver_policy pol = sram::resolve_solver_policy(
        acc, solver.has_value()
                 ? solver
                 : (metric == Metric::mc_tdp ? opts_.read.solver
                                             : opts_.write.solver));
    const Surface_key key{metric, option, word_lines,
                          ol_3sigma < 0.0 ? -1.0 : ol_3sigma, acc, pol};

    std::promise<std::shared_ptr<const analytic::Yield_surfaces>> promise;
    Surface_entry entry;
    bool owner = false;
    {
        const std::lock_guard<std::mutex> lock(surface_cache_mutex_);
        const auto it = surface_cache_.find(key);
        if (it != surface_cache_.end()) {
            entry = it->second;
        } else {
            entry = promise.get_future().share();
            surface_cache_.emplace(key, entry);
            owner = true;
        }
    }

    if (owner) {
        // The design evaluations and fit run outside the lock; concurrent
        // queries of the same key wait on the shared future, so each
        // surface is fitted exactly once per session.
        try {
            const std::uint64_t disk_key =
                surface_key(fingerprint_, metric, option, word_lines,
                            ol_3sigma, acc, pol);
            std::optional<util::Json> stored =
                cache_ ? cache_->load("surface", disk_key) : std::nullopt;
            if (stored) {
                // Served from disk: no design evaluations, no fit — the
                // fit counter stays flat (restored surfaces evaluate
                // bitwise identically, Response_surface::restore).
                promise.set_value(
                    std::make_shared<const analytic::Yield_surfaces>(
                        surfaces_of_json(*stored)));
                return entry.get();
            }

            surface_fits_.fetch_add(1, std::memory_order_relaxed);
            std::shared_ptr<const analytic::Yield_surfaces> fitted =
                calibrate_surfaces(metric, option, word_lines, ol_3sigma,
                                   acc, pol, runner);
            if (cache_) {
                cache_->store("surface", disk_key,
                              json_of_surfaces(*fitted));
            }
            promise.set_value(std::move(fitted));
        } catch (...) {
            // Un-publish the failed slot (a gate miss or a failed design
            // transient) so a later call — e.g. after loosening the
            // budget on another session — can retry; propagate to every
            // waiter.
            {
                const std::lock_guard<std::mutex> lock(surface_cache_mutex_);
                surface_cache_.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return entry.get();
}

std::shared_ptr<const analytic::Yield_surfaces>
Study_session::calibrate_surfaces(Metric metric,
                                  tech::Patterning_option option,
                                  int word_lines, double ol_3sigma,
                                  sram::Sim_accuracy accuracy,
                                  spice::Solver_policy solver,
                                  const Runner_options& runner) const
{
    const analytic::Surrogate_options& sopts = opts_.surrogate;
    const Case_geometry g = case_geometry(option, word_lines, ol_3sigma);
    const auto& axes = g.engine->axes();

    // Design box: +/- design_span_k sigmas per axis — the region the
    // Monte-Carlo truncation confines samples to, so the fit covers
    // exactly the space it will be evaluated on.
    std::vector<double> half(axes.size(), 0.0);
    for (std::size_t i = 0; i < axes.size(); ++i) {
        half[i] = sopts.design_span_k * axes[i].sigma;
    }
    std::vector<std::vector<double>> points =
        analytic::quadratic_design(half);

    // Design cloud: deterministic truncated-Gaussian draws appended to
    // the structured skeleton, so the least-squares design empirically
    // matches the measure the surface will be sampled under.  This is
    // what makes the fit serve the distribution's mean and sigma: for
    // d = 5 a per-axis truncated sample exceeds the 3-sigma *ball* 11%
    // of the time, so a ball-bounded structured design alone leaves a
    // tenth of the mass in extrapolation territory.
    const std::uint64_t cloud_seed = util::Rng(calibration_seed)
                                         .child(g.engine->name())
                                         .child("surrogate-design")
                                         .seed();
    // At least 6 points per coefficient, and enough in absolute terms
    // that the cloud's own sampling noise cannot bias the fitted mean by
    // a noticeable fraction of sigma (the residual-mean bias shrinks as
    // 1/sqrt(cloud)).
    const std::size_t cloud_count = std::max<std::size_t>(
        6 * analytic::Response_surface::coefficient_count(axes.size()), 120);
    for (std::size_t i = 0; i < cloud_count; ++i) {
        util::Rng rng = util::Rng::stream(cloud_seed, i);
        points.push_back(
            g.engine->sample_gaussian(rng, sopts.design_span_k));
    }
    const std::size_t design_count = points.size();

    // Held-out validation draws from a dedicated fixed substream (never
    // collides with the design cloud or any query's sample streams).
    util::expects(sopts.holdout_points > 0,
                  "surrogate calibration needs held-out points");
    const std::uint64_t holdout_seed = util::Rng(calibration_seed)
                                           .child(g.engine->name())
                                           .child("surrogate-holdout")
                                           .seed();
    for (int i = 0; i < sopts.holdout_points; ++i) {
        util::Rng rng =
            util::Rng::stream(holdout_seed, static_cast<std::uint64_t>(i));
        points.push_back(
            g.engine->sample_gaussian(rng, sopts.design_span_k));
    }

    // One SPICE evaluation per point (design + held-out in one parallel
    // pass), each writing only its own slot: bitwise identical at any
    // `runner` thread count.
    const double nominal =
        metric == Metric::mc_tdp
            ? nominal_spice<sram::Read_sim_context>(
                  word_lines, accuracy, solver, nullptr)
            : nominal_spice<sram::Write_sim_context>(
                  word_lines, accuracy, solver, nullptr);
    std::vector<double> metric_vals(points.size(), 0.0);
    std::vector<double> rvar_vals(points.size(), 0.0);
    std::vector<double> cvar_vals(points.size(), 0.0);
    const auto workers =
        static_cast<std::size_t>(runner.resolved_threads());
    std::vector<geom::Wire_array> geo_scratch(workers);
    std::vector<sram::Read_sim_context> read_sims(
        metric == Metric::mc_tdp ? workers : 0);
    std::vector<sram::Write_sim_context> write_sims(
        metric == Metric::mc_twp ? workers : 0);

    const extract::Wire_rc nominal_rc =
        extractor_->wire_rc(g.nominal, g.victims.bl);
    run_indexed(
        points.size(),
        [&](std::size_t i, const Run_context& ctx) {
            const auto w = static_cast<std::size_t>(ctx.worker);
            geom::Wire_array& realized = geo_scratch[w];
            g.engine->realize_into(g.nominal, points[i], realized);
            const extract::Rc_variation v =
                extractor_->variation(nominal_rc, realized, g.victims.bl);
            const sram::Bitline_electrical wires = sram::roll_up_bitline(
                *extractor_, g.nominal, realized, tech_, g.cfg);
            const double t =
                metric == Metric::mc_tdp
                    ? simulate_on(wires, word_lines, accuracy, solver,
                                  read_sims[w])
                    : simulate_on(wires, word_lines, accuracy, solver,
                                  write_sims[w]);
            metric_vals[i] = (t / nominal - 1.0) * 100.0;
            rvar_vals[i] = v.r_factor;
            cvar_vals[i] = v.c_factor;
        },
        runner);

    // Fit on the design prefix, validate on the held-out tail.
    const std::vector<std::vector<double>> design(
        points.begin(), points.begin() + static_cast<std::ptrdiff_t>(
                                             design_count));
    const std::vector<double> design_metric(
        metric_vals.begin(),
        metric_vals.begin() + static_cast<std::ptrdiff_t>(design_count));

    // Unit weight on the cloud (already distributed per the sampling
    // measure, so unweighted least squares minimizes the sample-weighted
    // error that mean/sigma agreement depends on) and a small weight on
    // the structured skeleton — enough to pin the surface over the whole
    // design ball for the tail sampler, not enough to bias the bulk.
    const std::size_t skeleton_count = design_count - cloud_count;
    std::vector<double> fit_weights(design_count, 1.0);
    for (std::size_t i = 0; i < skeleton_count; ++i) fit_weights[i] = 0.1;

    auto surfaces = std::make_shared<analytic::Yield_surfaces>();
    surfaces->metric = analytic::Response_surface::fit(design, design_metric,
                                                       half, fit_weights);
    surfaces->rvar = analytic::Response_surface::fit(
        design,
        {rvar_vals.begin(),
         rvar_vals.begin() + static_cast<std::ptrdiff_t>(design_count)},
        half, fit_weights);
    surfaces->cvar = analytic::Response_surface::fit(
        design,
        {cvar_vals.begin(),
         cvar_vals.begin() + static_cast<std::ptrdiff_t>(design_count)},
        half, fit_weights);
    surfaces->design_points = design_count;
    surfaces->holdout_points = points.size() - design_count;

    const auto [lo, hi] =
        std::minmax_element(design_metric.begin(), design_metric.end());
    surfaces->design_span = *hi - *lo;
    util::ensures(surfaces->design_span > 0.0,
                  "surrogate calibration: the design set is flat — the "
                  "metric does not respond to this engine's axes");

    const std::vector<std::vector<double>> holdout(
        points.begin() + static_cast<std::ptrdiff_t>(design_count),
        points.end());
    const std::vector<double> holdout_metric(
        metric_vals.begin() + static_cast<std::ptrdiff_t>(design_count),
        metric_vals.end());
    surfaces->holdout_rel = analytic::holdout_error(
        surfaces->metric, holdout, holdout_metric, surfaces->design_span);
    util::ensures(surfaces->holdout_rel <= sopts.budget_rel,
                  "surrogate calibration missed its held-out error "
                  "budget; refusing to serve the fit");
    return surfaces;
}

sram::Bitline_electrical Study_session::worst_case_wires(
    const Query_case& c) const
{
    sram::Array_config cfg = opts_.array;
    cfg.word_lines = c.word_lines;
    const auto wc =
        worst_case_cached(c.option, c.word_lines, c.ol_3sigma, {});
    const geom::Wire_array nominal =
        decomposed_array(c.option, c.word_lines, c.ol_3sigma);
    return sram::roll_up_bitline(*extractor_, nominal, wc->realized, tech_,
                                 cfg);
}

// --- measurement helpers -----------------------------------------------------

double Study_session::simulate_td(const sram::Bitline_electrical& wires,
                                  int word_lines) const
{
    sram::Read_sim_context sim;
    return simulate_on(
        wires, word_lines, opts_.read.accuracy,
        sram::resolve_solver_policy(opts_.read.accuracy, opts_.read.solver),
        sim);
}

double Study_session::simulate_on(const sram::Bitline_electrical& wires,
                                  int word_lines, sram::Sim_accuracy accuracy,
                                  spice::Solver_policy solver,
                                  sram::Read_sim_context& sim) const
{
    sram::Array_config cfg = opts_.array;
    cfg.word_lines = word_lines;
    sram::Read_options ropts = opts_.read;
    ropts.accuracy = accuracy;
    ropts.solver = solver;
    const sram::Read_result r = sim.simulate(
        tech_, cell_, wires, cfg, opts_.timing, opts_.netlist, ropts);
    util::ensures(r.crossed,
                  "read simulation never reached the sense margin");
    return r.td;
}

double Study_session::simulate_on(const sram::Bitline_electrical& wires,
                                  int word_lines, sram::Sim_accuracy accuracy,
                                  spice::Solver_policy solver,
                                  sram::Write_sim_context& sim) const
{
    sram::Array_config cfg = opts_.array;
    cfg.word_lines = word_lines;
    sram::Write_options wopts = opts_.write;
    wopts.accuracy = accuracy;
    wopts.solver = solver;
    const sram::Write_result r =
        sim.simulate(tech_, cell_, wires, cfg, opts_.write_timing,
                     opts_.netlist, wopts);
    util::ensures(r.flipped, "write simulation never flipped the cell");
    return r.tw;
}

double Study_session::simulate_on(const sram::Bitline_electrical& wires,
                                  int word_lines, sram::Sim_accuracy accuracy,
                                  spice::Solver_policy solver,
                                  sram::Disturb_sim_context& sim) const
{
    sram::Array_config cfg = opts_.array;
    cfg.word_lines = word_lines;
    sram::Disturb_options dopts = opts_.disturb;
    dopts.accuracy = accuracy;
    dopts.solver = solver;
    // The disturb shares the read schedule: the word line that half-selects
    // this column is fired by a read elsewhere in the row.
    const sram::Disturb_result r = sim.simulate(
        tech_, cell_, wires, cfg, opts_.timing, opts_.netlist, dopts);
    util::ensures(!r.flipped,
                  "half-select pulse flipped the cell: the column is not "
                  "read-stable");
    return r.v_bump;
}

namespace {

// Disk-cache kind of each nominal measurement, picked by the context
// type.  Part of the on-disk key: renaming one orphans every entry stored
// under it.
std::string_view nominal_kind(const sram::Read_sim_context*)
{
    return "nominal_td";
}
std::string_view nominal_kind(const sram::Write_sim_context*)
{
    return "nominal_tw";
}
std::string_view nominal_kind(const sram::Disturb_sim_context*)
{
    return "nominal_disturb";
}

} // namespace

template <class Sim>
double Study_session::nominal_spice(int word_lines,
                                    sram::Sim_accuracy accuracy,
                                    spice::Solver_policy solver,
                                    Sim* sim) const
{
    const std::string_view kind = nominal_kind(sim);
    const Nominal_key key{kind, word_lines, accuracy, solver};
    {
        const std::lock_guard<std::mutex> lock(nominal_cache_mutex_);
        const auto it = nominal_cache_.find(key);
        if (it != nominal_cache_.end()) return it->second;
    }

    // Memory miss: consult the disk cache before paying for a transient.
    const std::uint64_t disk_key =
        nominal_key(fingerprint_, kind, word_lines, accuracy, solver);
    if (cache_) {
        if (const auto stored = cache_->load(kind, disk_key)) {
            const double value = util::double_of_json(stored->at("value"));
            const std::lock_guard<std::mutex> lock(nominal_cache_mutex_);
            nominal_cache_.emplace(key, value);
            return value;
        }
    }

    const sram::Bitline_electrical wires = nominal_wires(word_lines);
    // The simulation runs outside the lock: two threads racing on the same
    // key redundantly compute the same deterministic value, which beats
    // serializing every caller behind a SPICE transient.
    std::optional<Sim> local;
    const double value = simulate_on(wires, word_lines, accuracy, solver,
                                     sim ? *sim : local.emplace());
    if (cache_) {
        util::Json payload;
        payload.set("value", util::json_of_double(value));
        cache_->store(kind, disk_key, payload);
    }
    const std::lock_guard<std::mutex> lock(nominal_cache_mutex_);
    nominal_cache_.emplace(key, value);
    return value;
}

analytic::Td_params Study_session::formula_params(int word_lines) const
{
    return analytic::derive_params(tech_, cell_, nominal_wires(word_lines));
}

analytic::Tw_params Study_session::tw_formula_params(int word_lines) const
{
    return analytic::derive_tw_params(tech_, cell_,
                                      nominal_wires(word_lines));
}

// --- the metric registry -----------------------------------------------------

/// The evaluators: one per metric, each mapping a case to its row on the
/// worker's scratch contexts.  Friend of Study_session so the registry
/// can reach the memos without widening the public surface.
struct Metric_evaluators {
    using Scratch = Study_session::Worker_scratch;

    static Row_value worst_case_rc(const Study_session& s, const Query& q,
                                   const Query_case& c, Scratch&)
    {
        const auto full =
            s.worst_case_cached(c.option, c.word_lines, c.ol_3sigma,
                                q.runner);
        const tech::Technology t = s.tech_with_ol(c.ol_3sigma);
        const auto engine = pattern::make_engine(c.option, t);

        Worst_case_row row;
        row.option = c.option;
        row.corner = full->corner.describe(*engine);
        row.cbl_percent = full->variation.c_percent();
        row.rbl_percent = full->variation.r_percent();
        row.vss_r_percent = (full->vss_r_factor - 1.0) * 100.0;
        return row;
    }

    static Row_value read_td(const Study_session& s, const Query& q,
                             const Query_case& c, Scratch& scratch)
    {
        const sram::Sim_accuracy acc = s.read_accuracy(q);
        const spice::Solver_policy sol = s.read_solver(q);
        Read_row row;
        row.td_nominal =
            s.nominal_spice(c.word_lines, acc, sol, &scratch.read);
        row.td_varied = s.simulate_on(s.worst_case_wires(c), c.word_lines,
                                      acc, sol, scratch.read);
        row.tdp_percent = (row.td_varied / row.td_nominal - 1.0) * 100.0;
        return row;
    }

    static Row_value nominal_td(const Study_session& s, const Query& q,
                                const Query_case& c, Scratch& scratch)
    {
        Nominal_td_row row;
        row.td_simulation =
            s.nominal_spice(c.word_lines, s.read_accuracy(q),
                            s.read_solver(q), &scratch.read);
        row.td_formula = analytic::td_lumped(
            s.formula_params(c.word_lines), c.word_lines);
        return row;
    }

    static Row_value worst_case_tdp(const Study_session& s, const Query& q,
                                    const Query_case& c, Scratch& scratch)
    {
        // One memoized search serves both the simulated read (worst-corner
        // geometry) and the formula (R/C factors).
        const auto wc =
            s.worst_case_cached(c.option, c.word_lines, c.ol_3sigma, {});
        const Read_row read = std::get<Read_row>(read_td(s, q, c, scratch));

        Tdp_row row;
        row.tdp_simulation = read.tdp_percent;
        row.tdp_formula = analytic::tdp_percent(
            s.formula_params(c.word_lines), c.word_lines,
            wc->variation.r_factor, wc->variation.c_factor);
        return row;
    }

    static Row_value mc_tdp(const Study_session& s, const Query& q,
                            const Query_case& c, Scratch&)
    {
        const auto g =
            s.case_geometry(c.option, c.word_lines, c.ol_3sigma);

        if (q.tdp_engine == Tdp_engine::surrogate) {
            // The million-sample tier: calibrate (memoized) and sample
            // the quadratic surface — no geometry or SPICE per sample.
            const auto surfaces = s.calibrated_surfaces(
                Metric::mc_tdp, c.option, c.word_lines, c.ol_3sigma,
                q.accuracy, q.solver, q.mc.runner);
            return mc::surrogate_distribution(*g.engine, *surfaces, q.mc);
        }

        if (q.tdp_engine == Tdp_engine::spice) {
            // SPICE-in-the-loop: roll up each sample's realized geometry
            // and run its read transient on the per-worker context.  A
            // never-crossing read yields tdp = NaN (poisons the summary)
            // instead of leaking the -1 s sentinel into the percentages.
            const sram::Sim_accuracy acc = s.read_accuracy(q);
            const spice::Solver_policy sol = s.read_solver(q);
            const double td_nom =
                s.nominal_spice<sram::Read_sim_context>(c.word_lines, acc,
                                                        sol, nullptr);
            sram::Read_options ropts = s.opts_.read;
            ropts.accuracy = acc;
            ropts.solver = sol;

            std::vector<sram::Read_sim_context> sims(
                static_cast<std::size_t>(q.mc.runner.resolved_threads()));
            const auto metric = [&](const geom::Wire_array& realized,
                                    const extract::Rc_variation&,
                                    const Run_context& ctx) {
                const sram::Bitline_electrical wires =
                    sram::roll_up_bitline(*s.extractor_, g.nominal,
                                          realized, s.tech_, g.cfg);
                const sram::Read_result r =
                    sims[static_cast<std::size_t>(ctx.worker)].simulate(
                        s.tech_, s.cell_, wires, g.cfg, s.opts_.timing,
                        s.opts_.netlist, ropts);
                if (!r.crossed) {
                    return std::numeric_limits<double>::quiet_NaN();
                }
                return (r.td / td_nom - 1.0) * 100.0;
            };
            return mc::metric_distribution(*g.engine, *s.extractor_,
                                           g.nominal, g.victims.bl, metric,
                                           q.mc);
        }

        // The paper's own Monte-Carlo method (the historical default):
        // extract each sample's parasitics, evaluate the analytic model.
        return mc::tdp_distribution(*g.engine, *s.extractor_, g.nominal,
                                    g.victims.bl,
                                    s.formula_params(c.word_lines),
                                    c.word_lines, q.mc);
    }

    static Row_value write_tw(const Study_session& s, const Query& q,
                              const Query_case& c, Scratch& scratch)
    {
        const sram::Sim_accuracy acc = s.write_accuracy(q);
        const spice::Solver_policy sol = s.write_solver(q);
        Write_row row;
        row.tw_nominal =
            s.nominal_spice(c.word_lines, acc, sol, &scratch.write);
        row.tw_varied = s.simulate_on(s.worst_case_wires(c), c.word_lines,
                                      acc, sol, scratch.write);
        row.twp_percent = (row.tw_varied / row.tw_nominal - 1.0) * 100.0;
        return row;
    }

    static Row_value nominal_tw(const Study_session& s, const Query& q,
                                const Query_case& c, Scratch& scratch)
    {
        Nominal_tw_row row;
        row.tw_simulation =
            s.nominal_spice(c.word_lines, s.write_accuracy(q),
                            s.write_solver(q), &scratch.write);
        row.tw_formula = analytic::tw_lumped(
            s.tw_formula_params(c.word_lines), c.word_lines);
        return row;
    }

    static Row_value mc_twp(const Study_session& s, const Query& q,
                            const Query_case& c, Scratch&)
    {
        const auto g =
            s.case_geometry(c.option, c.word_lines, c.ol_3sigma);

        if (q.twp_engine == Twp_engine::surrogate) {
            const auto surfaces = s.calibrated_surfaces(
                Metric::mc_twp, c.option, c.word_lines, c.ol_3sigma,
                q.accuracy, q.solver, q.mc.runner);
            return mc::surrogate_distribution(*g.engine, *surfaces, q.mc);
        }

        if (q.twp_engine == Twp_engine::formula) {
            // The cheap engine: the analytic tw model maps each sample's
            // R/C factors to twp, so 10k-sample write distributions cost
            // what the read MC does (no transient per sample).
            const analytic::Tw_params params =
                s.tw_formula_params(c.word_lines);
            const int n = c.word_lines;
            return mc::factor_distribution(
                *g.engine, *s.extractor_, g.nominal, g.victims.bl,
                [&params, n](const extract::Rc_variation& v) {
                    return analytic::twp_percent(params, n, v.r_factor,
                                                 v.c_factor);
                },
                q.mc);
        }

        const sram::Sim_accuracy acc = s.write_accuracy(q);
        const spice::Solver_policy sol = s.write_solver(q);
        const double tw_nom =
            s.nominal_spice<sram::Write_sim_context>(c.word_lines, acc,
                                                     sol, nullptr);
        sram::Write_options wopts = s.opts_.write;
        wopts.accuracy = acc;
        wopts.solver = sol;

        // SPICE-in-the-loop engine: roll up each sample's realized
        // geometry and simulate its write on the per-worker context.  A
        // non-flipping sample yields tw = NaN, which flows into a NaN twp
        // instead of aborting the sweep.
        std::vector<sram::Write_sim_context> sims(
            static_cast<std::size_t>(q.mc.runner.resolved_threads()));
        const auto metric = [&](const geom::Wire_array& realized,
                                const extract::Rc_variation&,
                                const Run_context& ctx) {
            const sram::Bitline_electrical wires = sram::roll_up_bitline(
                *s.extractor_, g.nominal, realized, s.tech_, g.cfg);
            const sram::Write_result r =
                sims[static_cast<std::size_t>(ctx.worker)].simulate(
                    s.tech_, s.cell_, wires, g.cfg, s.opts_.write_timing,
                    s.opts_.netlist, wopts);
            return (r.tw / tw_nom - 1.0) * 100.0;
        };
        return mc::metric_distribution(*g.engine, *s.extractor_, g.nominal,
                                       g.victims.bl, metric, q.mc);
    }

    static Row_value disturb(const Study_session& s, const Query& q,
                             const Query_case& c, Scratch& scratch)
    {
        const sram::Sim_accuracy acc = s.disturb_accuracy(q);
        const spice::Solver_policy sol = s.disturb_solver(q);
        Disturb_row row;
        row.v_bump_nominal =
            s.nominal_spice(c.word_lines, acc, sol, &scratch.disturb);
        row.v_bump_varied = s.simulate_on(s.worst_case_wires(c),
                                          c.word_lines, acc, sol,
                                          scratch.disturb);
        row.disturb_percent =
            (row.v_bump_varied / row.v_bump_nominal - 1.0) * 100.0;
        return row;
    }
};

const Metric_descriptor& metric_descriptor(Metric metric)
{
    // Index == static_cast<int>(Metric), one row per metric_tokens entry.
    // worst_case_rc and the MC metrics run their cases serially
    // (parallelism lives inside each case); everything else fans cases
    // out on the query runner.
    static const std::array<Metric_descriptor, metric_tokens.size()>
        registry{{
            {true, &Metric_evaluators::worst_case_rc},
            {false, &Metric_evaluators::read_td},
            {false, &Metric_evaluators::nominal_td},
            {false, &Metric_evaluators::worst_case_tdp},
            {true, &Metric_evaluators::mc_tdp},
            {false, &Metric_evaluators::write_tw},
            {false, &Metric_evaluators::nominal_tw},
            {true, &Metric_evaluators::mc_twp},
            {false, &Metric_evaluators::disturb},
        }};
    const auto index = static_cast<std::size_t>(metric);
    util::expects(index < registry.size(), "unknown metric");
    return registry[index];
}

// --- the one generic fan-out -------------------------------------------------

Result_table Study_session::run(const Query& query) const
{
    query_runs_.fetch_add(1, std::memory_order_relaxed);
    const Metric_descriptor& d = metric_descriptor(query.metric);

    std::vector<Query_case> cases = query.cases;
    for (Query_case& c : cases) {
        if (c.word_lines <= 0) c.word_lines = opts_.array.word_lines;
        util::expects(c.word_lines > 0, "query case needs word lines");
    }

    // Full-query cache: on a hit the run performs no simulation work at
    // all (no memo traffic, no counter movement) and the rows — rebound
    // onto THIS query's normalized axes — are bitwise identical to a
    // fresh compute, by the determinism contract.
    const std::uint64_t disk_key = cache_ ? query_key(*this, query) : 0;
    if (cache_) {
        if (const auto stored = cache_->load("query", disk_key)) {
            const Result_table cached = result_table_of_json(*stored);
            util::ensures(cached.metric() == query.metric &&
                              cached.size() == cases.size(),
                          "cached query entry does not match its key");
            std::vector<Row_value> rows;
            rows.reserve(cached.size());
            for (std::size_t i = 0; i < cached.size(); ++i) {
                rows.push_back(cached.raw(i));
            }
            return Result_table(query.metric, std::move(cases),
                                std::move(rows));
        }
    }

    // Serial-case metrics keep their per-case results independent of the
    // sweep composition (and of query.runner): the plan runs in order on
    // the calling thread while each case parallelizes internally.
    const Runner_options fan_out =
        d.serial_cases ? Runner_options{1} : query.runner;

    std::vector<Row_value> rows(cases.size());
    std::vector<Worker_scratch> scratch(
        static_cast<std::size_t>(fan_out.resolved_threads()));

    Run_plan plan;
    plan.add_indexed(cases.size(), [&](std::size_t i,
                                       const Run_context& ctx) {
        // Write-own-slot + plan-order contract: row i belongs to case i,
        // and the plan index IS the case index (the reduction into the
        // Result_table relies on that ordering, not on completion order).
        const std::size_t slot = checked_slot(ctx, rows.size());
        MPSRAM_ASSERT(slot == i, "plan order out of sync with case order",
                      MPSRAM_VAL(slot), MPSRAM_VAL(i));
        rows[slot] = d.eval(*this, query, cases[i],
                            scratch[checked_worker(ctx, scratch.size())]);
    });
    core::run(plan, fan_out);

    Result_table table(query.metric, std::move(cases), std::move(rows));
    if (cache_) cache_->store("query", disk_key, json_of_result_table(table));
    return table;
}

} // namespace mpsram::core
