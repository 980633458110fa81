#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/serialize.h"
#include "util/atomic_file.h"

namespace perfbench {

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb(int pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    throw std::runtime_error("no VmHWM in " + path);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit)
{
    metrics_.emplace_back(name, std::make_pair(value, unit));
}

void Report::fail(const std::string& why)
{
    ++failed_;
    if (failed_ <= 20) std::cerr << "perfbench: FAILED: " << why << "\n";
}

void Report::check(bool ok, const std::string& why)
{
    attempt();
    if (!ok) fail(why);
}

double Report::error_ratio() const
{
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
}

std::string Report::line() const
{
    mpsram::util::Json metrics;
    for (const auto& [name, value] : metrics_) {
        mpsram::util::Json m;
        m.set("value", value.first);
        m.set("unit", value.second);
        metrics.set(name, std::move(m));
    }
    mpsram::util::Json out;
    out.set("correct", correct());
    out.set("attempted", attempted_);
    out.set("failed", failed_);
    out.set("metrics", std::move(metrics));
    return out.dump();
}

Timed_phase timed_phase(double seconds, int setups,
                        const std::function<void(int)>& set_up,
                        const std::function<double()>& round)
{
    Timed_phase p;
    const auto run_set_up = [&] {
        const auto t0 = Clock::now();
        set_up(static_cast<int>(p.setups.size()));
        p.setups.push_back(seconds_since(t0));
    };
    // Set-up k is due once the rounds have run k/setups of `seconds`.
    const auto set_up_due = [&](double timed) {
        const auto k = static_cast<double>(p.setups.size());
        return static_cast<int>(p.setups.size()) < setups &&
               timed >= seconds * k / static_cast<double>(setups);
    };
    run_set_up();
    double timed = 0.0;
    while (p.walls.empty() || timed < seconds) {
        while (set_up_due(timed)) run_set_up();
        p.walls.push_back(round());
        timed += p.walls.back();
    }
    while (static_cast<int>(p.setups.size()) < setups) run_set_up();
    return p;
}

void report_end_to_end(Report& report, double setup_s,
                       const std::vector<double>& round_walls,
                       double units_per_round,
                       const std::vector<double>& latencies_s,
                       double peak_rss)
{
    const double wall = median(round_walls);
    const std::vector<double>& ops =
        latencies_s.empty() ? round_walls : latencies_s;
    report.metric("setup_s", setup_s, "s");
    report.metric("wall_s", wall, "s");
    report.metric("throughput_per_s", units_per_round / wall, "1/s");
    report.metric("p50_ms", 1e3 * quantile(ops, 0.50), "ms");
    report.metric("p99_ms", 1e3 * quantile(ops, 0.99), "ms");
    report.metric("peak_rss_mb", peak_rss, "MiB");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_units()
{
    static const std::vector<std::pair<std::string, std::string>> units{
        // spice: Step_stats sums, workspace compiles, span times
        {"spice.transients", "count"},
        {"spice.accepted_steps", "count"},
        {"spice.lte_rejected", "count"},
        {"spice.newton_rejected", "count"},
        {"spice.newton_iterations", "count"},
        {"spice.lu_factorizations", "count"},
        {"spice.bypass_hits", "count"},
        {"spice.compiles", "count"},
        {"spice.bypass_ratio", "1"},
        {"spice.transient_s", "s"},
        {"spice.compile_s", "s"},
        {"spice.us_per_newton_iter", "us"},
        // sram
        {"sram.netlist_builds", "count"},
        {"sram.netlist_build_s", "s"},
        // corner search, patterning, extraction
        {"mc.corner_searches", "count"},
        {"mc.corner_search_s", "s"},
        {"pattern.decompose_s", "s"},
        {"extract.rollup_s", "s"},
        // Monte-Carlo sample loop
        {"mc.samples", "count"},
        {"mc.formula_sample_ns", "ns"},
        {"mc.surrogate_sample_ns", "ns"},
        {"pattern.realize_ns", "ns"},
        {"extract.variation_ns", "ns"},
        {"analytic.td_formula_ns", "ns"},
        {"analytic.surface_eval_ns", "ns"},
        {"util.rng_draw_ns", "ns"},
        {"mc.accumulate_ns", "ns"},
        // surrogate calibration
        {"analytic.surface_fits", "count"},
        {"analytic.calibration_s", "s"},
        {"analytic.holdout_rel", "1"},
        // service daemon (op:status, serve metadata, client timings)
        {"service.requests", "count"},
        {"service.memo_hits", "count"},
        {"service.memo_hit_ratio", "1"},
        {"service.memo_evictions", "count"},
        {"service.errors", "count"},
        {"service.busy", "count"},
        {"core.cache_hits", "count"},
        {"core.cache_misses", "count"},
        {"core.cache_stores", "count"},
        {"core.cache_hit_ratio", "1"},
        {"service.server_ms_p50", "ms"},
        {"service.server_ms_p99", "ms"},
        {"util.socket.transport_ms_p50", "ms"},
        // in-process replay of the request stream
        {"service.handle_line_us_p50", "us"},
        {"util.json.parse_ns_per_byte", "ns/B"},
        {"util.json.dump_ns_per_byte", "ns/B"},
        {"core.serialize.encode_us", "us"},
        {"core.serialize.decode_us", "us"},
        {"core.query_key_us", "us"},
        {"core.cache.load_us", "us"},
        {"core.cache.store_us", "us"},
        {"service.response_bytes_p50", "B"},
        {"service.response_bytes_p99", "B"},
        // the trace itself
        {"trace.overhead_s", "s"},
        {"trace.unattributed_share", "1"},
        {"error_ratio", "1"},
    };
    return units;
}

void report_per_layer(Report& report, const Layer_metrics& layers)
{
    for (const auto& [name, unit] : per_layer_units()) {
        const auto it = layers.find(name);
        report.metric(name, it == layers.end() ? 0.0 : it->second, unit);
    }
    for (const auto& [name, value] : layers) {
        const auto& units = per_layer_units();
        const bool known = std::any_of(
            units.begin(), units.end(),
            [&](const auto& u) { return u.first == name; });
        if (!known) report.check(false, "unlisted per-layer metric " + name);
    }
}

mpsram::core::Study_options uncached_options()
{
    mpsram::core::Study_options opts;
    opts.cache.mode = mpsram::core::Cache_mode::off;
    return opts;
}

std::string table_bytes(const mpsram::core::Result_table& table)
{
    return mpsram::core::json_of_result_table(table).dump();
}

mpsram::util::Json load_oracle(const Args& args)
{
    const std::string path = args.data_dir + "/oracle.json";
    const auto text = mpsram::util::read_file(path);
    if (!text) throw std::runtime_error("cannot read " + path);
    return mpsram::util::Json::parse(*text);
}

} // namespace perfbench
