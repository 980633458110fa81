// Monte-Carlo engine throughput on the shared bench driver: threads vs
// wall time on the Fig. 5 workload (LE3 @ 8 nm 3-sigma OL, 10x64 array,
// 10k samples, analytic-formula sample engine).
//
// The driver runs the threads x {fast, reference} scaling grid with the
// bitwise determinism check (the parallel distributions must equal the
// serial ones, sample for sample) and emits BENCH_mc.json so the
// samples/sec trajectory can be tracked across revisions.  The formula
// engine runs no transients, so there is no adaptive-vs-reference gate
// and no step-counter table here — the surrogate/SPICE engine comparison
// lives in bench_ext_yield.
//
// Per-layer entry: the substream draw every sample pays (Rng::stream plus
// one LE3 sample_gaussian), timed alone over the same sample count and
// written to BENCH_mc.json as rng_draw_ns.
//
//   $ ./bench_perf_mc [samples]
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_driver.h"
#include "mc/distribution.h"
#include "pattern/engine.h"
#include "tech/technology.h"
#include "util/rng.h"

namespace {

/// Mean ns of one sample's draw as the Monte-Carlo loop makes it.
double time_rng_draw(int samples)
{
    using namespace mpsram;
    const auto engine =
        pattern::make_engine(tech::Patterning_option::le3, tech::n10());
    const mc::Distribution_options opts;
    const std::uint64_t base =
        util::Rng(opts.seed).child(engine->name()).seed();
    pattern::Process_sample sample;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < samples; ++i) {
        util::Rng rng = util::Rng::stream(base, static_cast<std::uint64_t>(i));
        engine->sample_gaussian_into(rng, opts.truncate_k, sample);
    }
    return 1e9 * bench::seconds_of(std::chrono::steady_clock::now() - t0) /
           samples;
}

} // namespace

int main(int argc, char** argv)
{
    using namespace mpsram;

    const int samples = argc > 1 ? std::atoi(argv[1]) : 10000;
    if (samples <= 0) {
        std::cerr << "usage: bench_perf_mc [samples>0]\n";
        return 2;
    }
    constexpr int n = 64;
    constexpr double ol_8nm = 8e-9;

    std::cout << "MC throughput: LE3 @ 8 nm 3s OL, 10x" << n << ", "
              << samples << " samples\n\n";

    bench::Scaling_config cfg;
    cfg.bench_name = "bench_perf_mc";
    cfg.workload = "le3_8nm_ol_10x64_fig5";
    cfg.json_path = "BENCH_mc.json";
    cfg.sims_per_row = static_cast<double>(samples);
    cfg.run = [samples](int threads, sram::Sim_accuracy accuracy) {
        const core::Study_session session;
        core::Query q(core::Metric::mc_tdp);
        q.with_case({tech::Patterning_option::le3, n, ol_8nm})
            .with_accuracy(accuracy);
        q.mc.samples = samples;
        q.mc.runner = core::Runner_options{threads};
        return session.run(q);
    };
    const bench::Scaling_outcome outcome = bench::run_thread_scaling(cfg);

    const double rng_draw_ns = time_rng_draw(samples);
    std::cout << "\nper-sample draw (Rng::stream + LE3 sample_gaussian): "
              << rng_draw_ns << " ns\n";

    bench::write_bench_json(
        cfg, outcome, nullptr, nullptr, n,
        {"\"samples\": " + std::to_string(samples) + ",",
         "\"rng_draw_ns\": " + std::to_string(rng_draw_ns) + ","});
    return outcome.all_identical ? 0 : 1;
}
