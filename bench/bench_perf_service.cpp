// Query-service serving overhead: the daemon's handle_line path (parse,
// dispatch, execute, re-serialize — core/service.h) versus a direct
// in-process Study_session::run of the same query, plus the warm-memo
// serve latency that a long-lived daemon amortizes repeat queries down
// to.
//
// The thread-scaling grid runs the whole workload *through the service
// seam*: every (threads, policy) point constructs a fresh uncached
// session and Query_service, submits the request line, and decodes the
// response table — so the driver's bitwise parallel-vs-serial check
// covers the daemon-served path end to end, not just the engine under
// it.  On top of that the bench measures, on one warm service:
//
//   - in_process_s:  session.run(query) directly,
//   - cold_serve_s:  first handle_line (executes + memoizes),
//   - warm_serve_s:  repeat handle_line (memo hit, no simulation),
//
// and checks the cold served "result" bytes equal the in-process
// json_of_result_table dump bitwise — the identity the CI service job
// enforces over a real socket.  Everything lands in BENCH_service.json.
//
//   $ ./bench_perf_service [max_word_lines]
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_driver.h"
#include "cli_args.h"
#include "core/serialize.h"
#include "core/service.h"
#include "core/session.h"
#include "util/json.h"

namespace {

using namespace mpsram;

core::Study_options uncached()
{
    core::Study_options opts;
    opts.cache.mode = core::Cache_mode::off;
    return opts;
}

/// `{"v":1,"op":"query","id":...,"query":...}` for one query.
std::string query_line(const core::Query& query, std::uint64_t id)
{
    util::Json request;
    request.set("v", core::service_protocol_version);
    request.set("op", "query");
    request.set("id", id);
    request.set("query", core::json_of_query(query));
    return request.dump();
}

/// Serve one line and return the decoded response, throwing on an error
/// envelope so a misconfigured bench fails loudly instead of comparing
/// garbage tables.
util::Json serve(core::Query_service& service, const std::string& line)
{
    util::Json response = util::Json::parse(service.handle_line(line));
    if (!response.at("ok").as_bool())
        throw std::runtime_error("service error: " +
                                 response.at("error").dump());
    return response;
}

} // namespace

int main(int argc, char** argv)
{
    using namespace mpsram;

    const int max_n =
        argc > 1 ? cli::number("max_word_lines", argv[1], 16, 1 << 16)
                 : 64;

    std::vector<int> sizes;
    for (const int n : {16, 24, 32, 48, 64, 96, 128}) {
        if (n <= max_n) sizes.push_back(n);
    }

    std::cout << "Query-service overhead: EUV read_td over "
              << sizes.size() << " array sizes up to 10x" << max_n
              << ", served through Query_service::handle_line\n\n";

    // --- thread scaling through the service seam -----------------------------
    bench::Scaling_config cfg;
    cfg.bench_name = "bench_perf_service";
    cfg.workload = "euv_read_td_served_via_handle_line";
    cfg.json_path = "BENCH_service.json";
    cfg.sims_per_row = 2.0;
    cfg.run = [&sizes](int threads, sram::Sim_accuracy accuracy) {
        const core::Study_session session(tech::n10(), uncached());
        core::Service_options opts;
        opts.runner = core::Runner_options{threads};
        core::Query_service service(session, opts);
        const core::Query query =
            core::Query(core::Metric::read_td)
                .over_word_lines(tech::Patterning_option::euv, sizes)
                .with_accuracy(accuracy);
        const util::Json response = serve(service, query_line(query, 1));
        return core::result_table_of_json(response.at("result"));
    };
    const bench::Scaling_outcome outcome = bench::run_thread_scaling(cfg);

    // --- serve overhead: fresh session per leg --------------------------------
    // The in-process baseline and the served leg each get their own cold
    // session so neither inherits the other's nominal memos; the bitwise
    // identity across the two sessions is exactly the determinism
    // contract the daemon relies on.
    const core::Query query =
        core::Query(core::Metric::read_td)
            .over_word_lines(tech::Patterning_option::euv, sizes);

    using clock = std::chrono::steady_clock;

    const core::Study_session direct_session(tech::n10(), uncached());
    auto t0 = clock::now();
    const core::Result_table direct = direct_session.run(query);
    auto t1 = clock::now();
    const double in_process_s = bench::seconds_of(t1 - t0);

    const core::Study_session session(tech::n10(), uncached());
    core::Query_service service(session, core::Service_options{});

    const std::string line = query_line(query, 2);
    t0 = clock::now();
    const util::Json cold = serve(service, line);
    t1 = clock::now();
    const double cold_serve_s = bench::seconds_of(t1 - t0);

    const bool identical = cold.at("result").dump() ==
                           core::json_of_result_table(direct).dump();

    // Warm serves are memo hits: amortize the parse + dump cost over
    // enough repeats for a stable number.
    constexpr std::uint64_t warm_repeats = 200;
    t0 = clock::now();
    for (std::uint64_t i = 0; i < warm_repeats; ++i) serve(service, line);
    t1 = clock::now();
    const double warm_serve_s =
        bench::seconds_of(t1 - t0) / warm_repeats;
    const bool warm_hit =
        service.stats().memo_hits == warm_repeats &&
        service.stats().queries == warm_repeats + 1;

    std::cout << "\nServe overhead (one warm service, "
              << sizes.size() << " rows):\n"
              << "  in-process run        " << in_process_s << " s\n"
              << "  cold serve            " << cold_serve_s << " s\n"
              << "  warm serve (memo)     " << warm_serve_s << " s\n"
              << "  served == in-process  "
              << (identical ? "bitwise identical" : "MISMATCH") << "\n"
              << "  warm = memo hits      "
              << (warm_hit ? "yes" : "NO") << "\n";

    const std::vector<std::string> extra = {
        "\"service\": {\"in_process_s\": " + std::to_string(in_process_s) +
        ", \"cold_serve_s\": " + std::to_string(cold_serve_s) +
        ", \"warm_serve_s\": " + std::to_string(warm_serve_s) +
        ", \"warm_repeats\": " + std::to_string(warm_repeats) +
        ", \"identical\": " + (identical ? "true" : "false") +
        ", \"warm_memo_hits\": " + (warm_hit ? "true" : "false") + "},"};
    bench::write_bench_json(cfg, outcome, nullptr, nullptr, sizes.back(),
                            extra);
    return outcome.all_identical && identical && warm_hit ? 0 : 1;
}
