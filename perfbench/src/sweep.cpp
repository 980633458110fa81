// fig4_read and write_sweep: the Fig. 4 SPICE sweep (read_td) over
// EUV/SADP/LE3 x {16, 64, 256, 1024} word lines and its write analogue
// (write_tw) over EUV/SADP/LE3 x {16, 64, 256}, on the production engine
// (fast accuracy + bypass solver), one thread.  The write sweep stops at
// n = 256: its n = 1024 row alone takes about 5 s, which would leave a
// 10 s run only two rounds to take a median over.
//
// Untraced, each round runs the whole sweep as one query on a fresh
// uncached session.  Traced, the same sweep is replayed through the
// layers' public functions in the order Study_session::run takes them
// (nominal memo per size, memoized corner search, decomposition, roll-up,
// transient on one reused simulation context), with a span around every
// call; the replayed table must equal the untraced one bitwise.
#include <array>
#include <map>
#include <stdexcept>

#include "bench_driver.h"
#include "common.h"
#include "trace.h"
#include "traced_sim.h"

namespace perfbench {

namespace {

using namespace mpsram;

constexpr std::array<tech::Patterning_option, 3> sweep_options{
    tech::Patterning_option::euv, tech::Patterning_option::sadp,
    tech::Patterning_option::le3};
/// Set-ups per run (an n = 16 warm-up sweep, ~50 ms each).
constexpr int setup_repeats = 11;

/// Work counters of a replay: every one must repeat exactly on a rerun.
struct Sweep_counts {
    Spice_counts spice;
    std::uint64_t corner_searches = 0;

    bool operator==(const Sweep_counts&) const = default;
};

struct Read_path {
    using Traced_context = Traced_read_context;
    using Row = core::Read_row;
    static constexpr core::Metric metric = core::Metric::read_td;
    static constexpr const char* oracle_key = "read_td";
    static constexpr std::array<int, 4> sizes{16, 64, 256, 1024};

    template <class Context>
    static double measure(Context& sim, const core::Study_session& s,
                          const sram::Cell_electrical& cell,
                          const sram::Bitline_electrical& wires, int n)
    {
        sram::Array_config cfg = s.options().array;
        cfg.word_lines = n;
        sram::Read_options o = s.options().read;
        o.accuracy = sram::Sim_accuracy::fast;
        o.solver = spice::Solver_policy::bypass;
        const auto r = sim.simulate(s.technology(), cell, wires, cfg,
                                    s.options().timing, s.options().netlist,
                                    o);
        if (!r.crossed) throw std::runtime_error("read never crossed");
        return r.td;
    }
    static Row row(double nominal, double varied)
    {
        return Row{nominal, varied, (varied / nominal - 1.0) * 100.0};
    }
    static std::array<double, 3> values(const Row& r)
    {
        return {r.td_nominal, r.td_varied, r.tdp_percent};
    }
};

struct Write_path {
    using Traced_context = Traced_write_context;
    using Row = core::Write_row;
    static constexpr core::Metric metric = core::Metric::write_tw;
    static constexpr const char* oracle_key = "write_tw";
    static constexpr std::array<int, 3> sizes{16, 64, 256};

    template <class Context>
    static double measure(Context& sim, const core::Study_session& s,
                          const sram::Cell_electrical& cell,
                          const sram::Bitline_electrical& wires, int n)
    {
        sram::Array_config cfg = s.options().array;
        cfg.word_lines = n;
        sram::Write_options o = s.options().write;
        o.accuracy = sram::Sim_accuracy::fast;
        o.solver = spice::Solver_policy::bypass;
        const auto r = sim.simulate(s.technology(), cell, wires, cfg,
                                    s.options().write_timing,
                                    s.options().netlist, o);
        if (!r.flipped) throw std::runtime_error("write never flipped");
        return r.tw;
    }
    static Row row(double nominal, double varied)
    {
        return Row{nominal, varied, (varied / nominal - 1.0) * 100.0};
    }
    static std::array<double, 3> values(const Row& r)
    {
        return {r.tw_nominal, r.tw_varied, r.twp_percent};
    }
};

core::Query sweep_query(core::Metric metric, std::span<const int> sizes)
{
    core::Query q(metric);
    for (const auto option : sweep_options) q.over_word_lines(option, sizes);
    return q.with_accuracy(sram::Sim_accuracy::fast)
        .with_solver(spice::Solver_policy::bypass)
        .on(core::Runner_options{1});
}

/// The untraced round: the whole sweep as one query, fresh session.
core::Result_table run_round(const core::Query& q)
{
    const core::Study_session session(tech::n10(), uncached_options());
    return session.run(q);
}

/// The traced replay of run_round (see the file comment).
template <class Path>
core::Result_table replay(const core::Query& q, Sweep_counts& counts)
{
    g_spice = Spice_counts{};
    PB_SPAN(root, "workload");
    const core::Study_session s(tech::n10(), uncached_options());
    const auto cell = sram::Cell_electrical::n10(s.technology().feol);
    typename Path::Traced_context sim;
    std::map<int, double> nominal;

    std::vector<core::Row_value> rows;
    for (const core::Query_case& c : q.cases) {
        sram::Array_config cfg = s.options().array;
        cfg.word_lines = c.word_lines;
        if (nominal.count(c.word_lines) == 0) {
            geom::Wire_array drawn;
            {
                PB_SPAN(span, "pattern.decompose");
                drawn = s.decomposed_array(tech::Patterning_option::euv,
                                           c.word_lines);
            }
            sram::Bitline_electrical wires;
            {
                PB_SPAN(span, "extract.rollup");
                wires = sram::roll_up_nominal(s.extractor(), drawn,
                                              s.technology(), cfg);
            }
            nominal[c.word_lines] =
                Path::measure(sim, s, cell, wires, c.word_lines);
        }
        mc::Worst_case_result wc;
        {
            PB_SPAN(span, "mc.corner_search");
            wc = s.worst_case_full(c.option, c.word_lines, c.ol_3sigma);
        }
        geom::Wire_array decomposed;
        {
            PB_SPAN(span, "pattern.decompose");
            decomposed =
                s.decomposed_array(c.option, c.word_lines, c.ol_3sigma);
        }
        sram::Bitline_electrical wires;
        {
            PB_SPAN(span, "extract.rollup");
            wires = sram::roll_up_bitline(s.extractor(), decomposed,
                                          wc.realized, s.technology(), cfg);
        }
        const double varied = Path::measure(sim, s, cell, wires, c.word_lines);
        rows.push_back(Path::row(nominal[c.word_lines], varied));
    }
    counts.spice = g_spice;
    counts.corner_searches = s.corner_search_count();
    return core::Result_table(Path::metric, q.cases, std::move(rows));
}

/// The committed reference+direct rows of the sweep, as a table.
template <class Path>
core::Result_table oracle_table(const Args& args, const core::Query& q)
{
    const util::Json doc = load_oracle(args);
    const util::Json_array& entries = doc.at(Path::oracle_key).as_array();
    if (entries.size() != q.cases.size()) {
        throw std::runtime_error("oracle size does not match the sweep");
    }
    std::vector<core::Row_value> rows;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const util::Json& e = entries[i];
        if (e.at("option").as_string() != tech::to_string(q.cases[i].option) ||
            static_cast<int>(e.at("word_lines").as_u64()) !=
                q.cases[i].word_lines) {
            throw std::runtime_error("oracle axes do not match the sweep");
        }
        typename Path::Row row;
        auto& [nominal, varied, percent] = row;
        nominal = util::double_of_json(e.at("nominal"));
        varied = util::double_of_json(e.at("varied"));
        percent = util::double_of_json(e.at("percent"));
        rows.emplace_back(row);
    }
    return core::Result_table(Path::metric, q.cases, std::move(rows));
}

/// Gate every row against the oracle (bench::Agreement budget: 0.5% on
/// the absolute times, 0.5 points on the penalty).
template <class Path>
void check_rows(Report& report, const core::Result_table& oracle,
                const core::Result_table& table)
{
    for (std::size_t i = 0; i < table.size(); ++i) {
        report.attempt();
        bench::Agreement a;
        bench::accumulate_agreement(
            a, core::Result_table(Path::metric, {oracle.axes(i)},
                                  {oracle.raw(i)}),
            core::Result_table(Path::metric, {table.axes(i)},
                               {table.raw(i)}));
        if (!a.within_budget()) {
            report.fail(std::string(Path::oracle_key) + " row " +
                        std::to_string(i) + " off the reference oracle: " +
                        std::to_string(100.0 * a.max_rel) + "% / " +
                        std::to_string(a.max_points) + " points");
        }
    }
}

template <class Path>
void run_path(const Args& args, Report& report)
{
    const core::Query q = sweep_query(Path::metric, Path::sizes);
    const core::Result_table oracle = oracle_table<Path>(args, q);
    // Transients per round: one nominal per size, one varied per case.
    const double transients =
        static_cast<double>(Path::sizes.size() + q.cases.size());

    // Set-up: an untimed warm-up sweep at the smallest size on a fresh
    // session, so first-touch costs land here and not in round 1.  Every
    // timed round builds its own fresh session, so a set-up precedes no
    // timed work directly: setup_s here is the median of the warm-up
    // sweeps, session construction included.
    const core::Query warm = sweep_query(Path::metric, {Path::sizes.data(), 1});
    const auto set_up = [&](int) { run_round(warm); };

    if (!args.trace) {
        std::string first;
        const Timed_phase p =
            timed_phase(args.seconds, setup_repeats, set_up, [&] {
                const auto t0 = Clock::now();
                const core::Result_table t = run_round(q);
                const double wall = seconds_since(t0);
                check_rows<Path>(report, oracle, t);
                const std::string bytes = table_bytes(t);
                if (first.empty()) first = bytes;
                report.check(bytes == first, "sweep table changed bits");
                return wall;
            });
        report_end_to_end(report, median(p.setups), p.walls, transients, {},
                          peak_rss_mb());
        return;
    }

    set_up(0);

    auto t0 = Clock::now();
    const core::Result_table untraced = run_round(q);
    const double untraced_s = seconds_since(t0);
    check_rows<Path>(report, oracle, untraced);

    trace::Recorder recorder;
    trace::set_active(&recorder);
    Sweep_counts counts[2];
    core::Result_table traced[2];
    double traced_s = 0.0;
    for (int k = 0; k < 2; ++k) {
        t0 = Clock::now();
        traced[k] = replay<Path>(q, counts[k]);
        if (k == 0) traced_s = seconds_since(t0);
    }
    trace::set_active(nullptr);
    if (!args.trace_out.empty()) recorder.write(args.trace_out);

    report.attempt(2);
    for (const auto& t : traced) {
        if (!(t == untraced)) report.fail("traced replay table differs");
    }
    report.check(counts[0] == counts[1],
                 "work counts did not repeat across replays");

    const auto totals = recorder.totals();
    const auto span = [&](const char* name) {
        return trace::totals_of(totals, name);
    };
    Layer_metrics m;
    add_spice_metrics(m, counts[0].spice, totals, 2.0);
    m["mc.corner_searches"] =
        static_cast<double>(counts[0].corner_searches);
    m["mc.corner_search_s"] = span("mc.corner_search").total_s / 2.0;
    m["pattern.decompose_s"] = span("pattern.decompose").total_s / 2.0;
    m["extract.rollup_s"] = span("extract.rollup").total_s / 2.0;
    m["trace.overhead_s"] = traced_s - untraced_s;
    m["trace.unattributed_share"] =
        span("workload").self_s / span("workload").total_s;
    m["error_ratio"] = report.error_ratio();
    report_per_layer(report, m);
}

} // namespace

void run_sweep(const Args& args, Report& report)
{
    if (args.workload == "fig4_read") {
        run_path<Read_path>(args, report);
    } else {
        run_path<Write_path>(args, report);
    }
}

namespace {

template <class Path>
util::Json_array oracle_rows(int threads)
{
    core::Query q = sweep_query(Path::metric, Path::sizes);
    q.accuracy = sram::Sim_accuracy::reference;  // resolves to direct
    q.solver.reset();
    q.runner = core::Runner_options{threads};
    const core::Study_session session(tech::n10(), uncached_options());
    const core::Result_table t = session.run(q);
    util::Json_array rows;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const auto v = Path::values(t.template as<typename Path::Row>(i));
        util::Json row;
        row.set("option", tech::to_string(t.axes(i).option));
        row.set("word_lines", static_cast<std::uint64_t>(t.axes(i).word_lines));
        row.set("nominal", util::json_of_double(v[0]));
        row.set("varied", util::json_of_double(v[1]));
        row.set("percent", util::json_of_double(v[2]));
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace

util::Json sweep_oracle(int threads)
{
    util::Json doc;
    doc.set("read_td", oracle_rows<Read_path>(threads));
    doc.set("write_tw", oracle_rows<Write_path>(threads));
    return doc;
}

} // namespace perfbench
