// Quickstart: the paper's whole flow in ~60 lines.
//
// Builds the N10 technology, finds the worst-case patterning corner per
// option (Table I), runs one SPICE read simulation (Fig. 4 point), and
// evaluates the analytical formula (Section III) — the minimal tour of the
// mpsram public API.
//
//   $ ./quickstart
#include <iostream>

#include "core/session.h"
#include "util/table.h"

int main()
{
    using namespace mpsram;

    // The session wires together: layout generation -> patterning ->
    // extraction -> SPICE -> analytic formula, and answers every study
    // question as a core::Query (a metric plus its cases).  Defaults
    // reproduce the paper's setup (imec-N10-like node, 10 bit-line pairs,
    // worst-case 8 nm LE3 overlay).
    const core::Study_session session;

    std::cout << "mpsram quickstart — " << session.technology().name
              << " node\n\n";

    // 1. Worst-case R/C variability of the victim bit line (Table I).
    std::cout << "Worst-case bit-line variability:\n";
    util::Table t1({"option", "worst corner", "dCbl", "dRbl"});
    const auto table1 =
        session.run(core::Query(core::Metric::worst_case_rc)
                        .over_options(tech::patterning_option_tokens.values));
    for (const auto& row : table1.column<core::Worst_case_row>()) {
        t1.add_row({std::string(tech::to_string(row.option)), row.corner,
                    util::fmt_percent(row.cbl_percent / 100.0, 2),
                    util::fmt_percent(row.rbl_percent / 100.0, 2)});
    }
    std::cout << t1.render() << '\n';

    // 2. One full SPICE read: nominal vs LE3 worst case at 10x64.
    const int n = 64;
    const auto read =
        session
            .run(core::Query(core::Metric::read_td)
                     .with_case({tech::Patterning_option::le3, n}))
            .as<core::Read_row>(0);
    std::cout << "SPICE read, 10x" << n << " array:\n"
              << "  nominal td     = " << util::fmt_time(read.td_nominal, 2)
              << "\n  LE3 worst td   = " << util::fmt_time(read.td_varied, 2)
              << "\n  read penalty   = "
              << util::fmt_fixed(read.tdp_percent, 2) << "%\n\n";

    // 3. The analytical formula (eq. 4) on the same case.
    const auto wc = session.worst_case_full(tech::Patterning_option::le3, n);
    const auto params = session.formula_params(n);
    std::cout << "Analytical formula:\n"
              << "  td(nominal)    = "
              << util::fmt_time(analytic::td_lumped(params, n), 2)
              << "\n  tdp(worst)     = "
              << util::fmt_fixed(
                     analytic::tdp_percent(params, n,
                                           wc.variation.r_factor,
                                           wc.variation.c_factor),
                     2)
              << "%\n\n";

    // 4. A quick Monte-Carlo pass (Fig. 5 in miniature).
    mc::Distribution_options mo;
    mo.samples = 5000;
    const auto dist =
        session
            .run(core::Query(core::Metric::mc_tdp)
                     .with_case({tech::Patterning_option::le3, n})
                     .with_mc(mo))
            .as<mc::Tdp_distribution>(0);
    std::cout << "Monte-Carlo tdp (" << mo.samples << " samples): mean "
              << util::fmt_fixed(dist.summary.mean, 3) << "%, sigma "
              << util::fmt_fixed(dist.summary.stddev, 3) << "\n";

    return 0;
}
