#include "bench_driver.h"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/serialize.h"
#include "sram/solver_policy.h"
#include "util/contracts.h"
#include "util/numeric.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace mpsram::bench {

namespace {

constexpr sram::Sim_accuracy policies[] = {sram::Sim_accuracy::fast,
                                           sram::Sim_accuracy::reference};

} // namespace

double seconds_of(const std::chrono::steady_clock::duration& d)
{
    return std::chrono::duration<double>(d).count();
}

std::vector<int> default_thread_counts()
{
    std::vector<int> counts = {1, 2, 4};
    const int hw = util::Thread_pool::hardware_threads();
    if (hw > 4) counts.push_back(hw);
    return counts;
}

Scaling_outcome run_thread_scaling(const Scaling_config& cfg)
{
    util::expects(static_cast<bool>(cfg.run), "scaling config needs a run");
    util::expects(!cfg.thread_counts.empty() && cfg.thread_counts[0] == 1,
                  "the scaling grid must start at the serial baseline");

    std::cout << cfg.workload << " walls ("
              << util::Thread_pool::hardware_threads()
              << " hardware threads)\n";
    std::vector<std::string> headers = {"threads", "policy", "wall [s]"};
    if (cfg.sims_per_row > 0.0) headers.push_back("sims/s");
    headers.insert(headers.end(), {"thread speedup", "adaptive speedup",
                                   "bitwise == serial"});
    util::Table table(std::move(headers));

    Scaling_outcome outcome;
    core::Result_table serial_rows[2];

    for (const int threads : cfg.thread_counts) {
        Scaling_point p;
        p.threads = threads;
        for (int pi = 0; pi < 2; ++pi) {
            const auto t0 = std::chrono::steady_clock::now();
            const core::Result_table rows = cfg.run(threads, policies[pi]);
            p.wall_s[pi] = seconds_of(std::chrono::steady_clock::now() - t0);
            outcome.rows = rows.size();
            if (cfg.sims_per_row > 0.0) {
                p.sims_per_s[pi] = cfg.sims_per_row *
                                   static_cast<double>(rows.size()) /
                                   p.wall_s[pi];
            }
            if (threads == 1) {
                serial_rows[pi] = rows;
            } else {
                p.identical[pi] = rows == serial_rows[pi];
            }
        }
        outcome.points.push_back(p);

        for (int pi = 0; pi < 2; ++pi) {
            std::vector<std::string> row = {
                std::to_string(threads),
                std::string(sram::to_string(policies[pi])),
                util::fmt_fixed(p.wall_s[pi], 3)};
            if (cfg.sims_per_row > 0.0) {
                row.push_back(util::fmt_fixed(p.sims_per_s[pi], 2));
            }
            row.insert(
                row.end(),
                {util::fmt_fixed(
                     outcome.points.front().wall_s[pi] / p.wall_s[pi], 2) +
                     "x",
                 util::fmt_fixed(p.wall_s[1] / p.wall_s[0], 2) + "x",
                 p.identical[pi] ? "yes" : "NO"});
            table.add_row(std::move(row));
        }
    }
    std::cout << table.render() << '\n';

    for (const Scaling_point& p : outcome.points) {
        outcome.all_identical =
            outcome.all_identical && p.identical[0] && p.identical[1];
    }
    if (!outcome.all_identical) {
        std::cout << "ERROR: parallel results diverged from serial — the\n"
                     "determinism contract is broken.\n";
    }
    return outcome;
}

namespace {

/// The (nominal, varied, percent) view of a sweep row; how every
/// agreement-gated metric reports.
struct Gated_row {
    double nominal = 0.0;
    double varied = 0.0;
    double percent = 0.0;
    bool has_percent = true;
};

Gated_row gated_row(const core::Row_value& row)
{
    using core::Disturb_row;
    using core::Nominal_td_row;
    using core::Nominal_tw_row;
    using core::Read_row;
    using core::Write_row;
    if (const auto* r = std::get_if<Read_row>(&row)) {
        return {r->td_nominal, r->td_varied, r->tdp_percent, true};
    }
    if (const auto* w = std::get_if<Write_row>(&row)) {
        return {w->tw_nominal, w->tw_varied, w->twp_percent, true};
    }
    if (const auto* d = std::get_if<Disturb_row>(&row)) {
        return {d->v_bump_nominal, d->v_bump_varied, d->disturb_percent,
                true};
    }
    if (const auto* t = std::get_if<Nominal_td_row>(&row)) {
        return {t->td_simulation, t->td_simulation, 0.0, false};
    }
    if (const auto* t = std::get_if<Nominal_tw_row>(&row)) {
        return {t->tw_simulation, t->tw_simulation, 0.0, false};
    }
    util::expects(false, "agreement gate: unsupported row type");
    return {};
}

} // namespace

void accumulate_agreement(Agreement& a, const core::Result_table& reference,
                          const core::Result_table& fast)
{
    util::expects(reference.metric() == fast.metric() &&
                      reference.size() == fast.size(),
                  "agreement gate: mismatched result tables");
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const Gated_row ref = gated_row(reference.raw(i));
        const Gated_row fst = gated_row(fast.raw(i));
        a.max_rel = std::max({a.max_rel,
                              util::rel_diff(ref.nominal, fst.nominal),
                              util::rel_diff(ref.varied, fst.varied)});
        if (ref.has_percent) {
            a.max_points = std::max(a.max_points,
                                    std::fabs(ref.percent - fst.percent));
        }
    }
}

Agreement run_option_agreement(
    const std::function<core::Query(tech::Patterning_option)>& make_query,
    std::optional<spice::Solver_policy> fast_solver)
{
    util::expects(static_cast<bool>(make_query),
                  "agreement gate needs a query factory");
    Agreement agreement;
    const core::Study_session session;
    for (const auto option : tech::patterning_option_tokens.values) {
        const core::Query query = make_query(option);
        core::Query fast_query =
            core::Query(query).with_accuracy(sram::Sim_accuracy::fast);
        if (fast_solver) fast_query.with_solver(*fast_solver);
        accumulate_agreement(
            agreement,
            session.run(core::Query(query).with_accuracy(
                sram::Sim_accuracy::reference)),
            session.run(fast_query));
    }
    return agreement;
}

void report_agreement(const Agreement& a, const std::string& quantity)
{
    std::cout << "Adaptive-vs-reference agreement:\n  max |" << quantity
              << "| deviation " << util::fmt_fixed(100.0 * a.max_rel, 4)
              << "% , max penalty deviation "
              << util::fmt_fixed(a.max_points, 4) << " points ("
              << (a.within_budget() ? "within" : "OUTSIDE")
              << " the 0.5% calibration budget)\n";
    if (!a.within_budget()) {
        std::cout << "ERROR: the adaptive engine left the 0.5% calibration\n"
                     "budget — retune sram::fast_lte_* (see sim_accuracy.h).\n";
    }
}

void print_step_table(const spice::Step_stats steps[2])
{
    util::Table table({"policy", "accepted", "lte rejected",
                       "newton rejected", "total solves", "newton iters",
                       "lu factors", "bypass hits"});
    for (int pi = 0; pi < 2; ++pi) {
        table.add_row({std::string(sram::to_string(policies[pi])),
                       std::to_string(steps[pi].accepted),
                       std::to_string(steps[pi].lte_rejected),
                       std::to_string(steps[pi].newton_rejected),
                       std::to_string(steps[pi].total_attempts()),
                       std::to_string(steps[pi].newton_iterations),
                       std::to_string(steps[pi].lu_factorizations),
                       std::to_string(steps[pi].bypass_hits)});
    }
    std::cout << table.render() << '\n';
}

Cache_smoke run_cache_smoke(
    const std::function<core::Result_table(const core::Study_session&)>& run,
    const std::string& cache_dir)
{
    util::expects(static_cast<bool>(run), "cache smoke needs a workload");
    util::expects(!cache_dir.empty(), "cache smoke needs a directory");
    std::filesystem::remove_all(cache_dir);

    core::Study_options opts;
    opts.cache.mode = core::Cache_mode::readwrite;
    opts.cache.directory = cache_dir;

    Cache_smoke smoke;
    std::string cold_dump;
    {
        const core::Study_session cold(tech::n10(), opts);
        const auto t0 = std::chrono::steady_clock::now();
        const core::Result_table table = run(cold);
        smoke.cold_s = seconds_of(std::chrono::steady_clock::now() - t0);
        smoke.cold_stores = cold.cache_store_count();
        cold_dump = core::json_of_result_table(table).dump();
    }
    {
        const core::Study_session warm(tech::n10(), opts);
        const auto t0 = std::chrono::steady_clock::now();
        const core::Result_table table = run(warm);
        smoke.warm_s = seconds_of(std::chrono::steady_clock::now() - t0);
        smoke.warm_hits = warm.cache_hit_count();
        smoke.warm_misses = warm.cache_miss_count();
        // Dump-string equality is the bitwise check: the canonical
        // encoding round-trips every double (NaN included) through its
        // bit pattern, so equal dumps means equal bits.
        smoke.identical = core::json_of_result_table(table).dump() ==
                          cold_dump;
        smoke.spice_skipped = warm.corner_search_count() == 0 &&
                              warm.surface_fit_count() == 0;
    }

    std::cout << "Cold-then-warm cache smoke (" << cache_dir << "):\n"
              << "  cold " << util::fmt_fixed(smoke.cold_s, 3) << " s ("
              << smoke.cold_stores << " entries stored), warm "
              << util::fmt_fixed(smoke.warm_s, 3) << " s ("
              << smoke.warm_hits << " hits, " << smoke.warm_misses
              << " misses)\n"
              << "  warm table bitwise identical: "
              << (smoke.identical ? "yes" : "NO")
              << ", SPICE work skipped: "
              << (smoke.spice_skipped ? "yes" : "NO") << "\n";
    if (!smoke.passed()) {
        std::cout << "ERROR: the warm run was not served bitwise-identically "
                     "from the cache\n";
    }
    return smoke;
}

std::vector<std::string> cache_smoke_fields(const Cache_smoke& s)
{
    return {"\"cache_smoke\": {\"cold_s\": " + std::to_string(s.cold_s) +
            ", \"warm_s\": " + std::to_string(s.warm_s) +
            ", \"warm_hits\": " + std::to_string(s.warm_hits) +
            ", \"warm_misses\": " + std::to_string(s.warm_misses) +
            ", \"cold_stores\": " + std::to_string(s.cold_stores) +
            ", \"identical\": " + (s.identical ? "true" : "false") +
            ", \"spice_skipped\": " + (s.spice_skipped ? "true" : "false") +
            ", \"passed\": " + (s.passed() ? "true" : "false") + "},"};
}

void write_bench_json(const Scaling_config& cfg,
                      const Scaling_outcome& outcome, const Agreement* a,
                      const spice::Step_stats* steps, int max_word_lines,
                      const std::vector<std::string>& extra_fields)
{
    // The fast legs run the process-default solver tier; reference legs
    // always resolve to the direct oracle (sram/solver_policy.h).
    const spice::Transient_options default_topts;
    std::ofstream json(cfg.json_path);
    json << "{\n"
         << "  \"bench\": \"" << cfg.bench_name << "\",\n"
         << "  \"workload\": \"" << cfg.workload << "\",\n"
         << "  \"metadata\": {\"solver_policy_fast\": \""
         << sram::to_string(sram::resolve_solver_policy(
                sram::Sim_accuracy::fast, std::nullopt))
         << "\", \"solver_policy_reference\": \""
         << sram::to_string(sram::resolve_solver_policy(
                sram::Sim_accuracy::reference, std::nullopt))
         << "\", \"integration_method\": \""
         << spice::integration_method_tokens.name(default_topts.method)
         << "\", \"sim_accuracy\": \""
         << sram::to_string(sram::default_sim_accuracy())
         << "\", \"cache_mode\": \""
         // The effective process-wide mode: without a configured
         // directory the cache never engages regardless of MPSRAM_CACHE.
         << core::to_string(core::default_cache_dir()
                                ? core::default_cache_mode()
                                : core::Cache_mode::off)
         << "\", \"cache_hits\": " << core::process_cache_stats().hits
         << ", \"cache_misses\": " << core::process_cache_stats().misses
         << ", \"cache_stores\": " << core::process_cache_stats().stores
         << "},\n"
         << "  \"rows\": " << outcome.rows << ",\n"
         << "  \"max_word_lines\": " << max_word_lines << ",\n"
         << "  \"hardware_threads\": "
         << util::Thread_pool::hardware_threads() << ",\n"
         << "  \"deterministic_across_threads\": "
         << (outcome.all_identical ? "true" : "false") << ",\n";
    if (a) {
        json << "  \"agreement\": {\"max_rel\": " << a->max_rel
             << ", \"max_points\": " << a->max_points
             << ", \"within_budget\": "
             << (a->within_budget() ? "true" : "false") << "},\n";
    }
    if (steps) {
        json << "  \"step_counts_nominal\": {\n"
             << "    \"word_lines\": " << max_word_lines << ",\n"
             << "    \"fast\": {\"accepted\": " << steps[0].accepted
             << ", \"lte_rejected\": " << steps[0].lte_rejected
             << ", \"newton_rejected\": " << steps[0].newton_rejected
             << ", \"newton_iterations\": " << steps[0].newton_iterations
             << ", \"lu_factorizations\": " << steps[0].lu_factorizations
             << ", \"bypass_hits\": " << steps[0].bypass_hits << "},\n"
             << "    \"reference\": {\"accepted\": " << steps[1].accepted
             << ", \"lte_rejected\": " << steps[1].lte_rejected
             << ", \"newton_rejected\": " << steps[1].newton_rejected
             << ", \"newton_iterations\": " << steps[1].newton_iterations
             << ", \"lu_factorizations\": " << steps[1].lu_factorizations
             << ", \"bypass_hits\": " << steps[1].bypass_hits << "}\n"
             << "  },\n";
    }
    for (const std::string& field : extra_fields) {
        json << "  " << field << "\n";
    }
    json << "  \"results\": [\n";
    for (std::size_t i = 0; i < outcome.points.size(); ++i) {
        const Scaling_point& p = outcome.points[i];
        json << "    {\"threads\": " << p.threads
             << ", \"wall_s_fast\": " << p.wall_s[0]
             << ", \"wall_s_reference\": " << p.wall_s[1];
        if (cfg.sims_per_row > 0.0) {
            json << ", \"sims_per_s_fast\": " << p.sims_per_s[0]
                 << ", \"sims_per_s_reference\": " << p.sims_per_s[1];
        }
        json << ", \"adaptive_speedup\": " << p.wall_s[1] / p.wall_s[0]
             << "}" << (i + 1 < outcome.points.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "Wrote " << cfg.json_path << '\n';
}

} // namespace mpsram::bench
