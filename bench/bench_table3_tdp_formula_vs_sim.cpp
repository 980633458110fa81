// Reproduces Table III: worst-case read-time penalty (tdp, %), analytical
// formula versus SPICE simulation, for each patterning option and array
// size.
//
// Paper reference (%):
//              10x16  10x64  10x256  10x1024
//   sim LE3    17.33  20.01  20.60   18.29
//   sim SADP    2.07   1.49   1.65    2.27
//   sim EUV     2.58   2.42   1.42   -1.02
//   fml LE3    18.37  20.43  20.49   18.84
//   fml SADP    1.88   1.62   0.88   -4.00
//   fml EUV     2.20   2.15   1.66   -1.47
//
// Headline behaviours to reproduce: the formula tracks LE3/EUV well but
// diverges from the simulation for SADP at n > 64, where the VSS-rail
// resistance increase (anti-correlated with Rbl under SADP) keeps the
// simulated penalty positive while the formula goes negative.
// Runs on the calibrated adaptive-LTE engine (the production default);
// pass --reference to pin the fixed-step oracle.
#include <cstring>
#include <iostream>
#include <vector>

#include "core/session.h"
#include "util/table.h"

int main(int argc, char** argv)
{
    using namespace mpsram;

    // Env-aware default (MPSRAM_SIM_ACCURACY), same contract as the
    // Study_options policies; --reference pins the oracle explicitly.
    sram::Sim_accuracy accuracy = sram::default_sim_accuracy();
    if (argc > 1) {
        if (std::strcmp(argv[1], "--reference") != 0) {
            std::cerr
                << "usage: bench_table3_tdp_formula_vs_sim [--reference]\n";
            return 2;
        }
        accuracy = sram::Sim_accuracy::reference;
    }
    core::Study_session session;

    constexpr int sizes[] = {16, 64, 256, 1024};
    const double paper_sim[3][4] = {{17.33, 20.01, 20.60, 18.29},
                                    {2.07, 1.49, 1.65, 2.27},
                                    {2.58, 2.42, 1.42, -1.02}};
    const double paper_formula[3][4] = {{18.37, 20.43, 20.49, 18.84},
                                        {1.88, 1.62, 0.88, -4.00},
                                        {2.20, 2.15, 1.66, -1.47}};

    std::cout << "Table III: formula versus simulation tdp values (%) using\n"
                 "the worst case variability\n\n";

    const auto label = [](int oi) {
        return std::string(tech::patterning_option_tokens.tokens[oi]);
    };
    util::Table table({"Method", "Array size", label(0), label(1), label(2),
                       "paper " + label(0), "paper " + label(1),
                       "paper " + label(2)});

    // Every (option, size) cell on one query; the memoized corner search
    // means each option's worst case is enumerated exactly once.
    core::Query query(core::Metric::worst_case_tdp);
    for (int si = 0; si < 4; ++si) {
        for (int oi = 0; oi < 3; ++oi) {
            query.with_case(
                {tech::patterning_option_tokens.values[oi], sizes[si]});
        }
    }
    const auto rows = session.run(query.with_accuracy(accuracy).on(
        core::Runner_options::parallel()));

    for (int method = 0; method < 2; ++method) {
        for (int si = 0; si < 4; ++si) {
            const int n = sizes[si];
            double ours[3];
            for (int oi = 0; oi < 3; ++oi) {
                const auto& row = rows.as<core::Tdp_row>(
                    static_cast<std::size_t>(si * 3 + oi));
                ours[oi] =
                    method == 0 ? row.tdp_simulation : row.tdp_formula;
            }
            const auto& paper = method == 0 ? paper_sim : paper_formula;
            table.add_row({method == 0 ? "Simulation" : "Formula",
                           "10x" + std::to_string(n),
                           util::fmt_fixed(ours[0], 2),
                           util::fmt_fixed(ours[1], 2),
                           util::fmt_fixed(ours[2], 2),
                           util::fmt_fixed(paper[0][si], 2),
                           util::fmt_fixed(paper[1][si], 2),
                           util::fmt_fixed(paper[2][si], 2)});
        }
    }

    std::cout << table.render() << '\n'
              << "Expected shape: LE3 ~15-20% at every size; SADP and EUV\n"
                 "in the low single digits; EUV turning negative at 10x1024;\n"
                 "SADP simulation staying positive at 10x1024 while the\n"
                 "formula (no RVSS term) goes clearly negative.\n";
    return 0;
}
