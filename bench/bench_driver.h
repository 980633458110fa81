// Shared perf-bench driver: the thread-scaling / calibration harness that
// bench_perf_spice, bench_ext_write_impact and bench_ext_disturb all run.
//
// A bench describes its workload as a query factory (fresh
// core::Study_session per measured run so memos cannot leak work between
// runs); the driver owns everything the three benches used to duplicate:
//
//   - the threads x {fast, reference} scaling grid with the
//     parallel-vs-serial bitwise determinism check (Result_table ==),
//   - the adaptive-vs-reference agreement gate (<= 0.5% on every row),
//   - the fast/reference step-counter table, and
//   - the uniform BENCH_*.json emitter the CI artifacts track.
#ifndef MPSRAM_BENCH_BENCH_DRIVER_H
#define MPSRAM_BENCH_BENCH_DRIVER_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/result_cache.h"
#include "core/session.h"
#include "spice/analysis.h"
#include "sram/bitline_model.h"
#include "sram/sim_accuracy.h"

namespace mpsram::bench {

/// Wall-clock seconds of a steady-clock duration.
double seconds_of(const std::chrono::steady_clock::duration& d);

/// The thread counts of the scaling grid: {1, 2, 4} plus the hardware
/// thread count when larger.
std::vector<int> default_thread_counts();

struct Scaling_config {
    std::string bench_name;  ///< e.g. "bench_perf_spice"
    std::string workload;    ///< e.g. "le3_worst_case_read_fig4_sweep"
    std::string json_path;   ///< e.g. "BENCH_spice.json"
    std::vector<int> thread_counts = default_thread_counts();
    /// Transients per result row, for the sims/s column; 0 omits it.
    double sims_per_row = 0.0;
    /// Run the workload once on a FRESH session: the driver times this
    /// for every (threads, policy) grid point.
    std::function<core::Result_table(int threads, sram::Sim_accuracy)> run;
};

struct Scaling_point {
    int threads = 0;
    double wall_s[2] = {0.0, 0.0};  ///< indexed {fast, reference}
    double sims_per_s[2] = {0.0, 0.0};
    bool identical[2] = {true, true};  ///< bitwise == the serial run
};

struct Scaling_outcome {
    std::vector<Scaling_point> points;
    bool all_identical = true;
    std::size_t rows = 0;  ///< result rows per run
};

/// Run the grid, check determinism, print the scaling table.
Scaling_outcome run_thread_scaling(const Scaling_config& cfg);

/// Adaptive-vs-reference agreement: max relative deviation of the
/// absolute times/voltages and max absolute deviation of the penalty
/// percentages, folded over row pairs of (reference, fast) tables.
struct Agreement {
    double max_rel = 0.0;     ///< of nominal/varied absolute values
    double max_points = 0.0;  ///< of the penalty percentages
    bool within_budget() const { return max_rel <= 5e-3 && max_points <= 0.5; }
};

/// Fold one (reference, fast) result-table pair into the gate.  Supports
/// the sweep row types (Read_row, Write_row, Disturb_row, Nominal_td_row,
/// Nominal_tw_row); both tables must share metric and size.
void accumulate_agreement(Agreement& a, const core::Result_table& reference,
                          const core::Result_table& fast);

/// The whole per-option gate in one call: one session, every patterning
/// option, `make_query(option)` executed under both policies (the
/// session's nominal memos are keyed per policy, so the engines never
/// cross results) and every row pair folded into the returned gate.
/// `fast_solver` pins the linear-solver tier of the FAST leg only — the
/// reference leg must stay defaulted (it resolves to direct; an explicit
/// reuse tier under reference throws by the solver_policy.h contract), so
/// this is how the bypass tier is gated against the oracle.
Agreement run_option_agreement(
    const std::function<core::Query(tech::Patterning_option)>& make_query,
    std::optional<spice::Solver_policy> fast_solver = std::nullopt);

/// Print the agreement verdict (quantity is e.g. "td"/"tw"/"v_bump").
void report_agreement(const Agreement& a, const std::string& quantity);

/// Print the fast/reference step-counter table of one nominal run.
void print_step_table(const spice::Step_stats steps[2]);

/// Step counters of one nominal transient of the context's operation
/// (Context = Read/Write/Disturb_sim_context) at `word_lines`, fast in
/// steps[0] and reference in steps[1], on a default session's nominal
/// wires — so the measured column follows the session's victim-pair
/// policy instead of restating it per bench.
template <class Context>
void measure_nominal_steps(int word_lines, spice::Step_stats steps[2])
{
    const core::Study_session session;
    const tech::Technology& t = session.technology();
    const auto cell = sram::Cell_electrical::n10(t.feol);
    sram::Array_config cfg = session.options().array;
    cfg.word_lines = word_lines;
    const geom::Wire_array nominal =
        session.decomposed_array(tech::Patterning_option::euv, word_lines);
    const sram::Bitline_electrical wires =
        sram::roll_up_nominal(session.extractor(), nominal, t, cfg);
    constexpr sram::Sim_accuracy policies[] = {sram::Sim_accuracy::fast,
                                               sram::Sim_accuracy::reference};
    for (int pi = 0; pi < 2; ++pi) {
        typename Context::Options opts;
        opts.accuracy = policies[pi];
        Context sim;
        steps[pi] = sim.simulate(t, cell, wires, cfg,
                                 typename Context::Timing{},
                                 sram::Netlist_options{}, opts)
                        .steps;
    }
}

/// Cold-then-warm result-cache smoke (core/result_cache.h): wipe
/// `cache_dir`, run `run` on a fresh readwrite-cached session (cold,
/// stores every artifact), run it again on a second fresh session (warm)
/// and check the warm run (a) returned a bitwise-identical table, (b)
/// was served from disk (hits > 0), and (c) skipped the simulation work
/// entirely — zero corner searches and surface fits on the warm session.
struct Cache_smoke {
    double cold_s = 0.0;
    double warm_s = 0.0;
    std::uint64_t warm_hits = 0;
    std::uint64_t warm_misses = 0;
    std::uint64_t cold_stores = 0;
    bool identical = false;      ///< warm table bitwise == cold table
    bool spice_skipped = false;  ///< warm corner searches + fits == 0
    bool passed() const
    {
        return identical && spice_skipped && warm_hits > 0;
    }
};

/// Run the smoke and print its verdict.  `run` must execute the same
/// deterministic workload on whichever session it is given.
Cache_smoke run_cache_smoke(
    const std::function<core::Result_table(const core::Study_session&)>& run,
    const std::string& cache_dir);

/// Preformatted extra-field lines for write_bench_json.
std::vector<std::string> cache_smoke_fields(const Cache_smoke& s);

/// Emit the uniform BENCH_*.json: scaling points, determinism flag,
/// agreement, step counters, plus optional preformatted extra top-level
/// fields (each line a complete `"key": value,` fragment).  `a` and
/// `steps` are nullable: a bench whose workload has no adaptive-vs-
/// reference gate (e.g. a sample-engine comparison gated on its own
/// agreement numbers) or no per-transient step counters simply omits
/// those objects from the JSON.
void write_bench_json(const Scaling_config& cfg,
                      const Scaling_outcome& outcome, const Agreement* a,
                      const spice::Step_stats* steps, int max_word_lines,
                      const std::vector<std::string>& extra_fields = {});

} // namespace mpsram::bench

#endif // MPSRAM_BENCH_BENCH_DRIVER_H
