// SPICE sweep throughput: adaptive-vs-fixed stepping and thread scaling on
// the Fig. 4 workload (LE3 worst-case read, one corner search + two
// transients per word-line count), driven through the query layer.
//
// The workload is one query — Metric::read_td over the Fig. 4 word-line
// progression — executed by the shared bench driver (bench_driver.h) for
// every (threads, policy) grid point on a fresh core::Study_session, so
// the worst-case and nominal-td memos cannot leak work between measured
// runs.  The driver enforces the bitwise parallel-vs-serial determinism
// contract; this bench adds the read calibration gate (adaptive td and
// tdp within 0.5% of the fixed-step reference on the complete canonical
// Fig. 4 set — every option, n up to 1024 — regardless of
// max_word_lines) and the step counters of one nominal read at the
// largest size.  Everything lands in BENCH_spice.json next to
// BENCH_mc.json so the sweep trajectory can be tracked across revisions.
//
//   $ ./bench_perf_spice [max_word_lines]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_driver.h"
#include "cli_args.h"
#include "core/session.h"
#include "sram/bitline_model.h"
#include "util/thread_pool.h"

int main(int argc, char** argv)
{
    using namespace mpsram;

    const int max_n =
        argc > 1 ? cli::number("max_word_lines", argv[1], 16, 1 << 16)
                 : 128;

    // Fig. 4's geometric size progression, densified so the plan has more
    // jobs than typical core counts, capped at max_n.
    std::vector<int> sizes;
    for (const int n : {16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512,
                        768, 1024}) {
        if (n <= max_n) sizes.push_back(n);
    }

    std::cout << "SPICE sweep throughput: LE3 worst-case read (Fig. 4), "
              << sizes.size() << " array sizes up to 10x" << max_n << "\n"
              << "Policies: fast = calibrated adaptive-LTE stepping "
                 "(production default), reference = fixed-step oracle\n\n";

    bench::Scaling_config cfg;
    cfg.bench_name = "bench_perf_spice";
    cfg.workload = "le3_worst_case_read_fig4_sweep";
    cfg.json_path = "BENCH_spice.json";
    // Two transients (nominal + worst corner) per word-line count.
    cfg.sims_per_row = 2.0;
    cfg.run = [&sizes](int threads, sram::Sim_accuracy accuracy) {
        const core::Study_session session;
        return session.run(
            core::Query(core::Metric::read_td)
                .over_word_lines(tech::Patterning_option::le3, sizes)
                .with_accuracy(accuracy)
                .on(core::Runner_options{threads}));
    };
    const bench::Scaling_outcome outcome = bench::run_thread_scaling(cfg);

    // --- calibration agreement: fast vs reference ----------------------------
    // Always checked on the complete canonical Fig. 4 set {16, 64, 256,
    // 1024} for every patterning option, independent of max_word_lines:
    // the 10x1024 rows are exactly where the adaptive engine removes the
    // most steps, so the 0.5% budget must be enforced there even when the
    // thread-scaling table above was capped smaller.
    constexpr int fig4_sizes[] = {16, 64, 256, 1024};
    // Determinism makes thread count a free choice here: run the heavy
    // reference sweeps on every core.
    const core::Runner_options agreement_runner{
        util::Thread_pool::hardware_threads()};
    const bench::Agreement agreement =
        bench::run_option_agreement([&](tech::Patterning_option option) {
            return core::Query(core::Metric::read_td)
                .over_word_lines(option, fig4_sizes)
                .on(agreement_runner);
        });
    std::cout << "Checked over the full Fig. 4 set (all options, n up to "
                 "1024):\n";
    bench::report_agreement(agreement, "td");

    // --- step counters of one nominal read at the largest size ---------------
    spice::Step_stats steps[2];
    bench::measure_nominal_steps<sram::Read_sim_context>(sizes.back(),
                                                         steps);
    std::cout << "\nStep counts, nominal read at 10x" << sizes.back()
              << ":\n";
    bench::print_step_table(steps);

    bench::write_bench_json(cfg, outcome, &agreement, steps, sizes.back());
    return outcome.all_identical && agreement.within_budget() ? 0 : 1;
}
