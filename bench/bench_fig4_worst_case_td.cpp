// Reproduces Fig. 4: nominal td and worst-case variability-induced td
// penalty (tdp) versus array size, from full SPICE simulation.
//
// The paper plots, for each array size {16, 64, 256, 1024} word lines:
//   * the nominal (no patterning variability) td, and
//   * the worst-case tdp for each option: LE3 up to ~20%, SADP and EUV
//     below ~3%, with a non-monotonic trend (tdp first rises then falls
//     with n; EUV goes negative at 10x1024).
//
// Output: one console table plus a CSV (fig4_worst_case_td.csv) with the
// series for external plotting.
//
// Runs on the calibrated adaptive-LTE engine (the production default,
// within 0.5% of fixed stepping on every row); pass --reference to pin the
// fixed-step oracle.
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "core/session.h"
#include "util/csv.h"
#include "util/table.h"

int main(int argc, char** argv)
{
    using namespace mpsram;

    // Env-aware default (MPSRAM_SIM_ACCURACY), same contract as the
    // Study_options policies; --reference pins the oracle explicitly.
    sram::Sim_accuracy accuracy = sram::default_sim_accuracy();
    if (argc > 1) {
        if (std::strcmp(argv[1], "--reference") != 0) {
            std::cerr << "usage: bench_fig4_worst_case_td [--reference]\n";
            return 2;
        }
        accuracy = sram::Sim_accuracy::reference;
    }
    core::Study_session session;
    constexpr int sizes[] = {16, 64, 256, 1024};

    std::cout << "Fig. 4: worst case wire variability impact on td ("
              << sram::to_string(accuracy) << " engine)\n\n";

    util::Table table({"Array size", "td nominal", "tdp LELELE", "tdp SADP",
                       "tdp EUV"});
    std::ofstream csv_file("fig4_worst_case_td.csv");
    util::Csv_writer csv(csv_file);
    csv.write_header({"word_lines", "td_nominal_s", "tdp_le3_pct",
                      "tdp_sadp_pct", "tdp_euv_pct"});

    // One query per option: Metric::read_td over the word-line axis, the
    // per-word-line transients fanned over all cores, bitwise identical
    // to the serial loop they replace.
    std::vector<core::Read_row> rows[3];
    for (int oi = 0; oi < 3; ++oi) {
        rows[oi] =
            session
                .run(core::Query(core::Metric::read_td)
                         .over_word_lines(
                             tech::patterning_option_tokens.values[oi],
                             sizes)
                         .with_accuracy(accuracy)
                         .on(core::Runner_options::parallel()))
                .column<core::Read_row>();
    }

    for (std::size_t si = 0; si < std::size(sizes); ++si) {
        const int n = sizes[si];
        const double td_nominal = rows[0][si].td_nominal;
        table.add_row({"10x" + std::to_string(n),
                       util::fmt_time(td_nominal, 2),
                       util::fmt_fixed(rows[0][si].tdp_percent, 2) + "%",
                       util::fmt_fixed(rows[1][si].tdp_percent, 2) + "%",
                       util::fmt_fixed(rows[2][si].tdp_percent, 2) + "%"});
        csv.write_row({static_cast<double>(n), td_nominal,
                       rows[0][si].tdp_percent, rows[1][si].tdp_percent,
                       rows[2][si].tdp_percent});
    }

    std::cout << table.render() << '\n'
              << "Paper reference: LE3 17.3/20.0/20.6/18.3%; SADP\n"
                 "2.1/1.5/1.7/2.3%; EUV 2.6/2.4/1.4/-1.0%.\n"
                 "CSV written to fig4_worst_case_td.csv\n";
    return 0;
}
