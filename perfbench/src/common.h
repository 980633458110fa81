// Shared plumbing of the benchmark generator: clocks, order statistics,
// resident-memory readings, the per-run report, and the workload
// registry entry point each workload file implements.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/query.h"
#include "core/session.h"
#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Median of the values (mean of the middle pair for an even count).
double median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1]: the smallest value with at least
/// q of the sample at or below it.
double quantile(std::vector<double> values, double q);

/// Peak resident set size [MiB] of a process (VmHWM); pid 0 = this one.
double peak_rss_mb(int pid = 0);

/// Command-line arguments every workload receives.
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string data_dir;   ///< committed oracle values (perfbench/data)
    std::string work_dir;   ///< scratch space inside the checkout
    std::string serve_bin;  ///< the mpsram_serve daemon binary
    std::string trace_out;  ///< span dump path ("" = do not write)
};

/// What one run reports: the correctness tally and its metrics, printed
/// as the last stdout line in the benchmark's result format.  There is
/// one failure channel: a run is correct exactly when nothing failed.
class Report {
public:
    void metric(const std::string& name, double value,
                const std::string& unit);
    /// Count operations; a failed one also records why (stderr).
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail(const std::string& why);
    /// A one-off check: counts one attempted operation, failed unless `ok`.
    void check(bool ok, const std::string& why);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0; }
    /// failed / attempted: the error_ratio per-layer metric.
    double error_ratio() const;

    /// The result line: {"correct","attempted","failed","metrics"}.
    std::string line() const;

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

/// The set-ups and round walls of an untraced run.
struct Timed_phase {
    std::vector<double> setups;  ///< each set-up's wall [s]
    std::vector<double> walls;   ///< each timed round's wall [s]
};

/// Run an untraced workload: `set_up(i)` runs `setups` times, set-up 0
/// before the first round (the one the rounds use) and the others
/// between rounds, spread evenly over the round time, so setup_s samples
/// the host across the whole run as the round walls do.  `round()`
/// returns its own wall [s]; rounds repeat until their walls add up to
/// `seconds` (at least one round).
Timed_phase timed_phase(double seconds, int setups,
                        const std::function<void(int)>& set_up,
                        const std::function<double()>& round);

/// The end-to-end metric set every untraced run reports.  An operation
/// is one round of the workload's fixed work, except on serve_mix where
/// it is one request (`latencies_s` then holds per-request latencies).
void report_end_to_end(Report& report, double setup_s,
                       const std::vector<double>& round_walls,
                       double units_per_round,
                       const std::vector<double>& latencies_s,
                       double peak_rss);

/// Per-layer metrics of a traced run, by name.  Every run reports the
/// full list (per_layer_units); a layer the workload never crosses reads 0.
using Layer_metrics = std::map<std::string, double>;

/// The per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& per_layer_units();

void report_per_layer(Report& report, const Layer_metrics& layers);

/// A fresh, uncached session (the benchmark never reads a cache a
/// previous run left behind, whatever MPSRAM_CACHE* say).
mpsram::core::Study_options uncached_options();

/// Canonical bytes of a table (the service's wire encoding).
std::string table_bytes(const mpsram::core::Result_table& table);

/// The committed oracle document (data/oracle.json).
mpsram::util::Json load_oracle(const Args& args);

// --- workloads (one file each) ---------------------------------------------
void run_sweep(const Args& args, Report& report);  // fig4_read, write_sweep
void run_mc_yield(const Args& args, Report& report);
void run_serve_mix(const Args& args, Report& report);

/// The committed oracle values, recomputed: the sweeps' reference+direct
/// rows (slow; `threads` workers) and the mc_yield fixed-seed summaries.
mpsram::util::Json sweep_oracle(int threads);
mpsram::util::Json mc_oracle();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
