// Reproduces Table IV: standard deviation of the Monte-Carlo tdp
// distribution per patterning option at 10x64, with the LE3 overlay budget
// swept over the paper's 3-8 nm range.
//
// Paper reference (sigma of tdp, %):
//   LELELE 3 nm OL: 0.414     LELELE 5 nm OL: 0.454
//   LELELE 7 nm OL: 0.552     LELELE 8 nm OL: 0.753
//   SADP: 0.317               EUV: 0.415
//
// Headline: OL control decides LE3's spread; at a 3 nm budget LE3 matches
// SADP/EUV, at 8 nm it is worst by >2x.  An extended sweep (continuous OL
// axis) is appended as the ablation view.
#include <iostream>

#include "core/session.h"
#include "util/table.h"

int main()
{
    using namespace mpsram;

    const core::Study_session session;
    mc::Distribution_options mo;
    mo.samples = 20000;
    constexpr int n = 64;
    const auto mc_tdp = [&](tech::Patterning_option option, double ol) {
        return session
            .run(core::Query(core::Metric::mc_tdp)
                     .with_case({option, n, ol})
                     .with_mc(mo))
            .as<mc::Tdp_distribution>(0);
    };

    std::cout << "Table IV: patterning options & tdp sigma values (10x64)\n\n";

    util::Table table({"Patterning option", "Std. deviation (sigma)",
                       "paper sigma"});

    const struct {
        tech::Patterning_option option;
        double ol;
        double paper;
    } rows[] = {
        {tech::Patterning_option::le3, 3e-9, 0.414},
        {tech::Patterning_option::le3, 5e-9, 0.454},
        {tech::Patterning_option::le3, 7e-9, 0.552},
        {tech::Patterning_option::le3, 8e-9, 0.753},
        {tech::Patterning_option::sadp, -1.0, 0.317},
        {tech::Patterning_option::euv, -1.0, 0.415},
    };

    double sigma_le3_8 = 0.0;
    double sigma_sadp = 0.0;
    for (const auto& r : rows) {
        const auto dist = mc_tdp(r.option, r.ol);
        if (r.ol == 8e-9) sigma_le3_8 = dist.summary.stddev;
        if (r.option == tech::Patterning_option::sadp) {
            sigma_sadp = dist.summary.stddev;
        }
        std::string label(tech::to_string(r.option));
        if (r.ol > 0.0) {
            label += " " + util::fmt_fixed(r.ol / 1e-9, 0) + "nm OL";
        }
        table.add_row({label, util::fmt_fixed(dist.summary.stddev, 3),
                       util::fmt_fixed(r.paper, 3)});
    }
    std::cout << table.render() << '\n';
    std::cout << "LE3 @ 8 nm OL vs SADP sigma ratio: "
              << util::fmt_fixed(sigma_le3_8 / sigma_sadp, 2)
              << "x (paper: 2.4x; 'as much as double')\n\n";

    // Extended continuous OL sweep (ablation view of the same experiment).
    std::cout << "Extended OL sweep (LE3, 10x64):\n";
    util::Table sweep({"3s OL [nm]", "sigma(tdp)"});
    for (double ol_nm = 2.0; ol_nm <= 9.0; ol_nm += 1.0) {
        const auto dist =
            mc_tdp(tech::Patterning_option::le3, ol_nm * 1e-9);
        sweep.add_row({util::fmt_fixed(ol_nm, 0),
                       util::fmt_fixed(dist.summary.stddev, 3)});
    }
    std::cout << sweep.render();
    return 0;
}
