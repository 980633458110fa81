// Extension experiment: half-select read-disturb under multiple-patterning
// variability — the first workload registered purely through the metric
// registry (Metric::disturb), with no study method behind it.
//
// When a read fires a word line, the 0-storing cells of the row's other
// columns see their pass gates open against precharged bit lines: the
// storage node bumps up toward the trip point.  The figure of merit is
// the peak bump v_bump (nominal wires vs the worst-case corner of each
// patterning option) — the read-stability margin the wire variability
// consumes.
//
// The workload is one query over the n sweep; the shared bench driver
// (bench_driver.h) runs the thread-scaling grid with the bitwise
// determinism check, and the bench adds the per-option science table,
// the adaptive-vs-reference agreement gate, the nominal-disturb step
// counters, and the BENCH_disturb.json artifact.
//
//   $ ./bench_ext_disturb [max_word_lines]
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_driver.h"
#include "cli_args.h"
#include "core/session.h"
#include "sram/bitline_model.h"
#include "sram/disturb_sim.h"
#include "util/table.h"
#include "util/thread_pool.h"

int main(int argc, char** argv)
{
    using namespace mpsram;

    const int max_n =
        argc > 1 ? cli::number("max_word_lines", argv[1], 16, 1 << 16)
                 : 256;

    std::vector<int> sizes;
    for (const int n : {16, 64, 256}) {
        if (n <= max_n) sizes.push_back(n);
    }
    const int hw = util::Thread_pool::hardware_threads();

    std::cout << "Extension: half-select read-disturb bump vs patterning "
                 "option, n in {";
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::cout << sizes[i] << (i + 1 < sizes.size() ? ", " : "");
    }
    std::cout << "}\n\n";

    // --- the science table ---------------------------------------------------
    {
        const core::Study_session session;
        const core::Runner_options runner{hw};
        const double vdd = session.technology().feol.vdd;

        util::Table table({"option", "array", "v_bump nominal",
                           "bump / (vdd/2)", "v_bump worst", "disturb"});
        for (const auto option : tech::patterning_option_tokens.values) {
            const auto rows =
                session.run(core::Query(core::Metric::disturb)
                                .over_word_lines(option, sizes)
                                .on(runner));
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const auto& r = rows.as<core::Disturb_row>(i);
                table.add_row(
                    {std::string(tech::to_string(option)),
                     "10x" + std::to_string(sizes[i]),
                     util::fmt_fixed(1e3 * r.v_bump_nominal, 2) + " mV",
                     util::fmt_fixed(r.v_bump_nominal / (0.5 * vdd), 3),
                     util::fmt_fixed(1e3 * r.v_bump_varied, 2) + " mV",
                     util::fmt_fixed(r.disturb_percent, 3) + "%"});
            }
        }
        std::cout << table.render() << '\n'
                  << "Expected: the bump is set by the pass-gate /\n"
                     "pull-down divider and stays well below vdd/2 (no\n"
                     "flip); wire variability moves it by far less than it\n"
                     "moves td — the disturb path fights the cell, not the\n"
                     "wire RC.\n\n";
    }

    // --- thread scaling ------------------------------------------------------
    bench::Scaling_config cfg;
    cfg.bench_name = "bench_ext_disturb";
    cfg.workload = "le3_half_select_disturb_sweep";
    cfg.json_path = "BENCH_disturb.json";
    cfg.sims_per_row = 2.0;
    cfg.run = [&sizes](int threads, sram::Sim_accuracy accuracy) {
        const core::Study_session session;
        return session.run(
            core::Query(core::Metric::disturb)
                .over_word_lines(tech::Patterning_option::le3, sizes)
                .with_accuracy(accuracy)
                .on(core::Runner_options{threads}));
    };
    const bench::Scaling_outcome outcome = bench::run_thread_scaling(cfg);

    // --- calibration agreement: fast vs reference on every disturb row -------
    const core::Runner_options agreement_runner{hw};
    const bench::Agreement agreement =
        bench::run_option_agreement([&](tech::Patterning_option option) {
            return core::Query(core::Metric::disturb)
                .over_word_lines(option, sizes)
                .on(agreement_runner);
        });
    std::cout << "Checked over every disturb row (all options):\n";
    bench::report_agreement(agreement, "v_bump");

    // --- step counters of one nominal disturb at the largest size ------------
    spice::Step_stats steps[2];
    bench::measure_nominal_steps<sram::Disturb_sim_context>(sizes.back(),
                                                            steps);
    std::cout << "\nStep counts, nominal disturb at 10x" << sizes.back()
              << ":\n";
    bench::print_step_table(steps);

    bench::write_bench_json(cfg, outcome, &agreement, steps, sizes.back());
    return outcome.all_identical && agreement.within_budget() ? 0 : 1;
}
