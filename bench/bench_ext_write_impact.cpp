// Extension experiment (beyond the paper): does multiple-patterning
// variability hit the WRITE operation as hard as the read?
//
// Same worst-case corners as Table I, same column substrate, but the
// figure of merit is tw (word-line 50% to storage-node flip).  The write
// driver is much stronger than a cell's pull-down, so the expectation is
// that the wire-RC penalty is diluted relative to the read — quantified
// here over the n in {16, 64, 256} sweep.
//
// Since PR 5 the workload is a query (Metric::write_tw) and the
// thread-scaling / determinism / JSON plumbing is the shared bench driver
// (bench_driver.h).  This bench keeps the write-specific legs: the
// science table (twp vs tdp per option), the adaptive-vs-reference tw
// agreement gate on every write row, the nominal-write step counters, a
// SPICE-in-the-loop MC twp smoke, and — new with the analytic tw model —
// a 10k-sample formula-engine twp distribution that runs without SPICE in
// the sample loop.  Everything lands in BENCH_write.json.
//
//   $ ./bench_ext_write_impact [max_word_lines]
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_driver.h"
#include "cli_args.h"
#include "core/session.h"
#include "sram/write_sim.h"
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

    std::cout << "Extension: write-time penalty (twp) vs read-time penalty "
                 "(tdp)\nat the per-option worst-case corners, n in {";
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::cout << sizes[i] << (i + 1 < sizes.size() ? ", " : "");
    }
    std::cout << "}\n\n";

    // --- the science table, through the query API ----------------------------
    // One session for the whole table: every option's write and read
    // queries share the nominal memos and the worst-case corner searches.
    {
        const core::Study_session session;
        const core::Runner_options runner{hw};
        const auto tw_nominals = session.run(
            core::Query(core::Metric::nominal_tw)
                .over_word_lines(tech::Patterning_option::euv, sizes)
                .on(runner));

        util::Table table({"option", "array", "tw nominal",
                           "tw formula", "twp", "tdp (read)"});
        for (const auto option : tech::patterning_option_tokens.values) {
            const auto write =
                session.run(core::Query(core::Metric::write_tw)
                                .over_word_lines(option, sizes)
                                .on(runner));
            const auto read =
                session.run(core::Query(core::Metric::read_td)
                                .over_word_lines(option, sizes)
                                .on(runner));
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                const auto& nom = tw_nominals.as<core::Nominal_tw_row>(i);
                table.add_row(
                    {std::string(tech::to_string(option)),
                     "10x" + std::to_string(sizes[i]),
                     util::fmt_time(nom.tw_simulation, 2),
                     util::fmt_time(nom.tw_formula, 2),
                     util::fmt_fixed(
                         write.as<core::Write_row>(i).twp_percent, 2) +
                         "%",
                     util::fmt_fixed(
                         read.as<core::Read_row>(i).tdp_percent, 2) +
                         "%"});
            }
        }
        std::cout << table.render() << '\n'
                  << "Expected: the write penalty follows the same option\n"
                     "ordering as the read (LE3 worst) but is diluted by "
                     "the\nstrong, array-scaled write driver; the lumped "
                     "tw formula\nunderestimates SPICE like the td one "
                     "does.\n\n";
    }

    // --- thread scaling of the write sweep, per policy -----------------------
    bench::Scaling_config cfg;
    cfg.bench_name = "bench_ext_write_impact";
    cfg.workload = "le3_worst_case_write_sweep";
    cfg.json_path = "BENCH_write.json";
    cfg.sims_per_row = 2.0;
    cfg.run = [&sizes](int threads, sram::Sim_accuracy accuracy) {
        const core::Study_session session;
        return session.run(
            core::Query(core::Metric::write_tw)
                .over_word_lines(tech::Patterning_option::le3, sizes)
                .with_accuracy(accuracy)
                .on(core::Runner_options{threads}));
    };
    const bench::Scaling_outcome outcome = bench::run_thread_scaling(cfg);

    // --- calibration agreement: fast vs reference on every write row ---------
    // The write analogue of the read calibration gate: adaptive tw within
    // 0.5% of the fixed-step reference on every write sweep row of every
    // patterning option.
    const core::Runner_options agreement_runner{hw};
    const bench::Agreement agreement =
        bench::run_option_agreement([&](tech::Patterning_option option) {
            return core::Query(core::Metric::write_tw)
                .over_word_lines(option, sizes)
                .on(agreement_runner);
        });
    std::cout << "Checked over every write sweep row (all options):\n";
    bench::report_agreement(agreement, "tw");

    // --- step counters of one nominal write at the largest size --------------
    spice::Step_stats steps[2];
    bench::measure_nominal_steps<sram::Write_sim_context>(sizes.back(),
                                                          steps);
    std::cout << "\nStep counts, nominal write at 10x" << sizes.back()
              << ":\n";
    bench::print_step_table(steps);

    // --- MC twp: SPICE-in-the-loop smoke vs the 10k-sample formula engine ----
    std::vector<std::string> extra_fields;
    {
        const core::Study_session session;

        mc::Distribution_options spice_mo;
        spice_mo.samples = 64;
        spice_mo.runner.threads = hw;
        auto t0 = std::chrono::steady_clock::now();
        const auto spice_dist =
            session
                .run(core::Query(core::Metric::mc_twp)
                         .with_case({tech::Patterning_option::le3,
                                     sizes.front()})
                         .with_mc(spice_mo))
                .as<mc::Tdp_distribution>(0);
        const double spice_wall =
            bench::seconds_of(std::chrono::steady_clock::now() - t0);

        // The analytic tw model as the sample engine: 10k samples at
        // read-MC cost (no transient per sample) — the workload the
        // SPICE loop cannot afford.
        mc::Distribution_options formula_mo = spice_mo;
        formula_mo.samples = 10000;
        t0 = std::chrono::steady_clock::now();
        const auto formula_dist =
            session
                .run(core::Query(core::Metric::mc_twp)
                         .with_case({tech::Patterning_option::le3,
                                     sizes.front()})
                         .with_mc(formula_mo)
                         .with_twp_engine(core::Twp_engine::formula))
                .as<mc::Tdp_distribution>(0);
        const double formula_wall =
            bench::seconds_of(std::chrono::steady_clock::now() - t0);

        std::cout << "MC twp (LE3, 10x" << sizes.front() << "):\n  SPICE engine   "
                  << spice_mo.samples << " samples: sigma "
                  << util::fmt_fixed(spice_dist.summary.stddev, 3)
                  << "%, wall " << util::fmt_fixed(spice_wall, 3)
                  << " s\n  formula engine " << formula_mo.samples
                  << " samples: sigma "
                  << util::fmt_fixed(formula_dist.summary.stddev, 3)
                  << "%, wall " << util::fmt_fixed(formula_wall, 3)
                  << " s\n";

        std::ostringstream mc_json;
        mc_json << "\"mc_twp\": {\"spice\": {\"samples\": "
                << spice_mo.samples << ", \"wall_s\": " << spice_wall
                << ", \"mean\": " << spice_dist.summary.mean
                << ", \"stddev\": " << spice_dist.summary.stddev
                << "}, \"formula\": {\"samples\": " << formula_mo.samples
                << ", \"wall_s\": " << formula_wall
                << ", \"mean\": " << formula_dist.summary.mean
                << ", \"stddev\": " << formula_dist.summary.stddev << "}},";
        extra_fields.push_back(mc_json.str());
    }

    bench::write_bench_json(cfg, outcome, &agreement, steps, sizes.back(),
                            extra_fields);
    return outcome.all_identical && agreement.within_budget() ? 0 : 1;
}
