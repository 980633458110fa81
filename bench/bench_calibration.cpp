// Extraction-model calibration against the paper's Table I.
//
// Default mode: report the residuals of the frozen default model constants
// against the six published worst-case sensitivities (Cbl% and Rbl% for
// LE3 / SADP / EUV).  With --search, run a random search + local refine
// over the model constants and print the best-fitting set (this is how the
// defaults in tech::n10() and extract::Extraction_options were chosen).
#include <cmath>
#include <cstring>
#include <iostream>

#include "extract/extractor.h"
#include "mc/worst_case.h"
#include "pattern/engine.h"
#include "sram/layout.h"
#include "tech/technology.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace mpsram;

struct Targets {
    double cbl[3] = {61.56, 4.01, 6.65};    // LE3, SADP, EUV [%]
    double rbl[3] = {-10.36, -18.19, -10.36};
};

struct Knobs {
    double thickness;
    double taper;
    double below;
    double above;
    double k_fringe_ground;
    double shield_power;
    double k_fringe_coupling;
};

struct Eval {
    double cbl[3];
    double rbl[3];
    double error;
};

Eval evaluate(const Knobs& k)
{
    tech::Technology t = tech::n10();
    t.metal1.thickness = k.thickness;
    t.metal1.taper_angle = k.taper;
    t.metal1.below_plane_dist = k.below;
    t.metal1.above_plane_dist = k.above;

    extract::Extraction_options opts;
    opts.k_fringe_ground = k.k_fringe_ground;
    opts.fringe_shield_power = k.shield_power;
    opts.k_fringe_coupling = k.k_fringe_coupling;

    const extract::Extractor extractor(t.metal1, opts);

    sram::Array_config cfg;
    cfg.word_lines = 64;
    cfg.victim_pair = 6;  // mask-A bit line (see core::Study_session)

    const Targets targets;
    Eval e{};
    e.error = 0.0;

    for (int i = 0; i < 3; ++i) {
        const auto engine = pattern::make_engine(
            tech::patterning_option_tokens.values[i], t);
        const geom::Wire_array nominal =
            engine->decompose(sram::build_metal1_array(t, cfg));
        const sram::Victim_wires v = sram::find_victim_wires(nominal, cfg);
        const mc::Worst_case_result wc = mc::find_worst_case(
            *engine, extractor, nominal, v.bl, v.vss);
        e.cbl[i] = wc.variation.c_percent();
        e.rbl[i] = wc.variation.r_percent();

        // Weighted squared residuals; LE3's Cbl is an order of magnitude
        // larger, so weight it down to percentage-of-target scale.
        const double wc_weight = (i == 0) ? 0.15 : 1.0;
        e.error += wc_weight * std::pow(e.cbl[i] - targets.cbl[i], 2);
        e.error += std::pow(e.rbl[i] - targets.rbl[i], 2);
    }
    return e;
}

Knobs defaults()
{
    const tech::Technology t = tech::n10();
    const extract::Extraction_options o;
    return Knobs{t.metal1.thickness,      t.metal1.taper_angle,
                 t.metal1.below_plane_dist, t.metal1.above_plane_dist,
                 o.k_fringe_ground,       o.fringe_shield_power,
                 o.k_fringe_coupling};
}

void report(const Knobs& k)
{
    using units::nm;
    const Eval e = evaluate(k);
    const Targets targets;

    util::Table table({"Option", "Cbl model", "Cbl paper", "Rbl model",
                       "Rbl paper"});
    for (int i = 0; i < 3; ++i) {
        table.add_row({std::string(tech::patterning_option_tokens.tokens[i]),
                       util::fmt_percent(e.cbl[i] / 100.0, 2),
                       util::fmt_percent(targets.cbl[i] / 100.0, 2),
                       util::fmt_percent(e.rbl[i] / 100.0, 2),
                       util::fmt_percent(targets.rbl[i] / 100.0, 2)});
    }
    std::cout << table.render();
    std::cout << "\nmodel constants: thickness=" << k.thickness / nm
              << "nm taper=" << k.taper << " below=" << k.below / nm
              << "nm above=" << k.above / nm
              << "nm k_fg=" << k.k_fringe_ground
              << " p=" << k.shield_power
              << " k_fc=" << k.k_fringe_coupling
              << "\nweighted squared error: " << e.error << "\n";
}

void search()
{
    using units::nm;
    util::Rng rng(42);
    auto uni = [&](double lo, double hi) { return rng.uniform(lo, hi); };

    Knobs best = defaults();
    double best_err = evaluate(best).error;

    for (int it = 0; it < 4000; ++it) {
        Knobs k{uni(20 * nm, 36 * nm), uni(0.02, 0.10),
                uni(22 * nm, 90 * nm), uni(22 * nm, 90 * nm),
                uni(0.2, 3.0),         uni(0.5, 2.2),
                uni(0.1, 1.6)};
        const double err = evaluate(k).error;
        if (err < best_err) {
            best_err = err;
            best = k;
            std::cout << "iter " << it << " err " << err << "\n";
        }
    }

    // Local refine: coordinate shrink steps.
    for (int round = 0; round < 200; ++round) {
        bool improved = false;
        auto tweak = [&](double Knobs::*field, double scale) {
            for (double f : {1.0 + scale, 1.0 - scale}) {
                Knobs k = best;
                k.*field *= f;
                const double err = evaluate(k).error;
                if (err < best_err) {
                    best_err = err;
                    best = k;
                    improved = true;
                }
            }
        };
        const double s = 0.03;
        tweak(&Knobs::thickness, s);
        tweak(&Knobs::taper, s);
        tweak(&Knobs::below, s);
        tweak(&Knobs::above, s);
        tweak(&Knobs::k_fringe_ground, s);
        tweak(&Knobs::shield_power, s);
        tweak(&Knobs::k_fringe_coupling, s);
        if (!improved) break;
    }

    std::cout << "\n=== best ===\n";
    report(best);
}

} // namespace

int main(int argc, char** argv)
{
    std::cout << "Extraction-model calibration vs Table I\n\n";
    if (argc > 1 && std::strcmp(argv[1], "--search") == 0) {
        search();
    } else {
        report(defaults());
    }
    return 0;
}
