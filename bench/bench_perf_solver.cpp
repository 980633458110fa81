// Linear-solver tier scaling: direct vs bypass (factorization-reuse
// Newton) on nominal read transients of 10x{256, 1024, 4096, 8192}
// columns, plus the gates that let the reuse tier ship: the 0.5%
// adaptive-vs-reference agreement budget and the bitwise thread-count
// determinism contract per tier.
//
// Three sections land in BENCH_solver.json:
//
//   - "solver_matrix": per (word_lines, policy) wall time of one nominal
//     read at fast accuracy on a warmed column context (netlist build and
//     symbolic factorization excluded), with the Step_stats solver
//     counters (newton_iterations / lu_factorizations / bypass_hits /
//     device_evaluations) that prove WHERE the speedup comes from —
//     bypass must show lu_factorizations well under newton_iterations.
//   - "agreement_bypass": fast+bypass vs the reference+direct oracle
//     over the canonical Fig. 4 read set (every patterning option, n up
//     to 1024), held to the same 0.5% budget as the accuracy tier.
//   - "per_policy_deterministic": 1/2/8-thread bitwise Result_table
//     identity of a read sweep pinned to each tier.
//
//   $ ./bench_perf_solver [max_word_lines]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_driver.h"
#include "cli_args.h"
#include "core/session.h"
#include "sram/bitline_model.h"
#include "sram/read_sim.h"
#include "sram/solver_policy.h"
#include "util/json.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace mpsram;

struct Matrix_entry {
    int word_lines = 0;
    spice::Solver_policy policy = spice::Solver_policy::direct;
    double wall_s = 0.0;
    double speedup_vs_direct = 1.0;
    spice::Step_stats steps;
};

/// One nominal read per (word_lines, policy) at fast accuracy on a warmed
/// context, so the measured wall is the transient solve alone.
std::vector<Matrix_entry> run_solver_matrix(const std::vector<int>& sizes)
{
    const core::Study_session session;
    const tech::Technology& t = session.technology();
    const auto cell = sram::Cell_electrical::n10(t.feol);

    std::vector<Matrix_entry> matrix;
    for (const int n : sizes) {
        sram::Array_config cfg = session.options().array;
        cfg.word_lines = n;
        const geom::Wire_array nominal =
            session.decomposed_array(tech::Patterning_option::euv, n);
        const sram::Bitline_electrical wires =
            sram::roll_up_nominal(session.extractor(), nominal, t, cfg);

        sram::Read_sim_context sim;
        sram::Read_options warm;
        warm.accuracy = sram::Sim_accuracy::fast;
        warm.solver = spice::Solver_policy::direct;
        // At 4k/8k rows the differential never reaches the sense
        // threshold, so window-doubling retries would cascade up to four
        // full transients into one cell of the matrix.  One transient per
        // (n, policy) keeps the walls comparable across n.
        warm.max_retries = 0;
        sim.simulate(t, cell, wires, cfg, {}, {}, warm);

        double direct_wall = 0.0;
        for (const spice::Solver_policy policy :
             sram::solver_policy_tokens.values) {
            sram::Read_options opts;
            opts.accuracy = sram::Sim_accuracy::fast;
            opts.solver = policy;
            opts.max_retries = 0;
            const auto t0 = std::chrono::steady_clock::now();
            const sram::Read_result r =
                sim.simulate(t, cell, wires, cfg, {}, {}, opts);
            Matrix_entry e;
            e.word_lines = n;
            e.policy = policy;
            e.wall_s =
                bench::seconds_of(std::chrono::steady_clock::now() - t0);
            e.steps = r.steps;
            if (policy == spice::Solver_policy::direct) {
                direct_wall = e.wall_s;
            }
            e.speedup_vs_direct = direct_wall / e.wall_s;
            matrix.push_back(e);
        }
    }
    return matrix;
}

void print_solver_matrix(const std::vector<Matrix_entry>& matrix)
{
    util::Table table({"word lines", "policy", "wall [s]",
                       "speedup vs direct", "newton iters", "lu factors",
                       "bypass hits", "device evals"});
    for (const Matrix_entry& e : matrix) {
        table.add_row({std::to_string(e.word_lines),
                       std::string(sram::to_string(e.policy)),
                       util::fmt_fixed(e.wall_s, 3),
                       util::fmt_fixed(e.speedup_vs_direct, 2) + "x",
                       std::to_string(e.steps.newton_iterations),
                       std::to_string(e.steps.lu_factorizations),
                       std::to_string(e.steps.bypass_hits),
                       std::to_string(e.steps.device_evaluations)});
    }
    std::cout << table.render() << '\n';
}

/// 1/2/8-thread bitwise identity of a read sweep pinned to `policy`.
bool policy_deterministic(spice::Solver_policy policy)
{
    const std::vector<int> sizes = {16, 24, 32, 48, 64, 96, 128};
    const auto run = [&](int threads) {
        const core::Study_session session;
        return session.run(
            core::Query(core::Metric::read_td)
                .over_word_lines(tech::Patterning_option::le3, sizes)
                .with_accuracy(sram::Sim_accuracy::fast)
                .with_solver(policy)
                .on(core::Runner_options{threads}));
    };
    const core::Result_table serial = run(1);
    bool identical = true;
    for (const int threads : {2, 8}) {
        identical = identical && run(threads) == serial;
    }
    std::cout << "  " << sram::to_string(policy)
              << ": 1/2/8-thread bitwise identity "
              << (identical ? "holds" : "BROKEN") << '\n';
    return identical;
}

} // namespace

int main(int argc, char** argv)
{
    const int max_n =
        argc > 1 ? cli::number("max_word_lines", argv[1], 256, 1 << 16)
                 : 1024;

    std::vector<int> matrix_sizes;
    for (const int n : {256, 1024, 4096, 8192}) {
        if (n <= max_n) matrix_sizes.push_back(n);
    }

    std::cout << "Solver-tier scaling: nominal EUV read, n in {256, 1024, "
                 "4096, 8192} up to 10x"
              << max_n << "\n"
              << "Tiers: direct = per-iteration LU oracle, bypass = "
                 "factorization-reuse Newton\n(see spice/analysis.h)\n\n";

    // --- per-(n, policy) wall / counter matrix at fast accuracy --------------
    const std::vector<Matrix_entry> matrix = run_solver_matrix(matrix_sizes);
    print_solver_matrix(matrix);

    // --- thread-scaling grid of the production default tier ------------------
    std::vector<int> sweep_sizes;
    for (const int n : {64, 96, 128, 192, 256, 384, 512, 768, 1024}) {
        if (n <= max_n) sweep_sizes.push_back(n);
    }
    bench::Scaling_config cfg;
    cfg.bench_name = "bench_perf_solver";
    cfg.workload = "euv_read_td_solver_tiers";
    cfg.json_path = "BENCH_solver.json";
    cfg.sims_per_row = 2.0;
    cfg.run = [&sweep_sizes](int threads, sram::Sim_accuracy accuracy) {
        const core::Study_session session;
        return session.run(
            core::Query(core::Metric::read_td)
                .over_word_lines(tech::Patterning_option::euv, sweep_sizes)
                .with_accuracy(accuracy)
                .on(core::Runner_options{threads}));
    };
    const bench::Scaling_outcome outcome = bench::run_thread_scaling(cfg);

    // --- per-tier agreement vs the reference+direct oracle --------------------
    // One session so the heavy reference sweeps are computed once and the
    // per-policy memo keys keep the two engines from crossing results.
    constexpr int fig4_sizes[] = {16, 64, 256, 1024};
    const core::Runner_options agreement_runner{
        util::Thread_pool::hardware_threads()};
    bench::Agreement gate_bypass;
    {
        const core::Study_session session;
        for (const auto option : tech::patterning_option_tokens.values) {
            const core::Query query =
                core::Query(core::Metric::read_td)
                    .over_word_lines(option, fig4_sizes)
                    .on(agreement_runner);
            const core::Result_table reference = session.run(
                core::Query(query).with_accuracy(
                    sram::Sim_accuracy::reference));
            bench::accumulate_agreement(
                gate_bypass, reference,
                session.run(core::Query(query)
                                .with_accuracy(sram::Sim_accuracy::fast)
                                .with_solver(spice::Solver_policy::bypass)));
        }
    }
    std::cout << "Checked over the full Fig. 4 set (all options, n up to "
                 "1024):\nbypass tier —\n";
    bench::report_agreement(gate_bypass, "td");

    // --- bitwise thread determinism per tier ----------------------------------
    std::cout << "\nPer-tier determinism (read_td sweep, LE3):\n";
    bool deterministic = true;
    for (const spice::Solver_policy policy :
         sram::solver_policy_tokens.values) {
        deterministic = policy_deterministic(policy) && deterministic;
    }

    // --- cold-then-warm result-cache smoke ------------------------------------
    // The warm rerun of the cached agreement-style sweep must skip every
    // corner search and surface fit and return bitwise-identical rows —
    // the acceptance gate of the persistence layer (core/result_cache.h).
    std::cout << '\n';
    static constexpr int smoke_sizes[] = {16, 64, 256};
    const bench::Cache_smoke smoke = bench::run_cache_smoke(
        [&agreement_runner](const core::Study_session& session) {
            return session.run(
                core::Query(core::Metric::read_td)
                    .over_word_lines(tech::Patterning_option::le3,
                                     smoke_sizes)
                    .with_accuracy(sram::Sim_accuracy::fast)
                    .on(agreement_runner));
        },
        "BENCH_solver.cache");

    // --- BENCH_solver.json ----------------------------------------------------
    const auto count = [](long long n) {
        return util::Json(static_cast<std::uint64_t>(n));
    };
    util::Json_array rows;
    for (const Matrix_entry& e : matrix) {
        rows.push_back(util::Json_object{
            {"word_lines", e.word_lines},
            {"policy", sram::to_string(e.policy)},
            {"wall_s", e.wall_s},
            {"speedup_vs_direct", e.speedup_vs_direct},
            {"newton_iterations", count(e.steps.newton_iterations)},
            {"lu_factorizations", count(e.steps.lu_factorizations)},
            {"bypass_hits", count(e.steps.bypass_hits)},
            {"device_evaluations", count(e.steps.device_evaluations)}});
    }
    const util::Json agreement = util::Json_object{
        {"max_rel", gate_bypass.max_rel},
        {"max_points", gate_bypass.max_points},
        {"within_budget", gate_bypass.within_budget()}};

    std::vector<std::string> extra;
    extra.push_back("\"solver_matrix\": " +
                    util::Json(std::move(rows)).dump() + ",");
    extra.push_back("\"agreement_bypass\": " + agreement.dump() + ",");
    extra.push_back(
        std::string("\"per_policy_deterministic\": ") +
        (deterministic ? "true" : "false") + ",");
    for (std::string& field : bench::cache_smoke_fields(smoke)) {
        extra.push_back(std::move(field));
    }

    spice::Step_stats steps[2];
    bench::measure_nominal_steps<sram::Read_sim_context>(sweep_sizes.back(),
                                                         steps);
    std::cout << "\nStep counts, nominal read at 10x" << sweep_sizes.back()
              << " (fast row runs the default "
              << sram::to_string(sram::default_solver_policy())
              << " tier):\n";
    bench::print_step_table(steps);

    bench::write_bench_json(cfg, outcome, &gate_bypass, steps,
                            matrix_sizes.back(), extra);
    return outcome.all_identical && deterministic &&
                   gate_bypass.within_budget() && smoke.passed()
               ? 0
               : 1;
}
