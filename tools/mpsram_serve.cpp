// mpsram_serve: the query service daemon (core/service.h).
//
// Binds a Unix-domain socket, warms ONE shared Study_session, and serves
// the line-delimited JSON protocol until a client sends op:shutdown —
// corner searches, surrogate calibrations and whole query results then
// amortize across every request instead of across one process.  With
// MPSRAM_CACHE_DIR set the session persists its artifacts on disk too,
// so a restarted daemon warms from the cache.
//
// Usage:
//   mpsram_serve --socket PATH [--threads N] [--max-pending N]
//                [--max-clients N] [--max-line-bytes N]
//                [--memo-entries N] [--poll-ms N]
//
//   --socket          socket file to listen on (unlinked on shutdown)
//   --threads         worker threads per served query (0 = hardware)
//   --max-pending     request-queue bound; overflow gets a `busy` envelope
//   --max-clients     concurrent-connection bound
//   --max-line-bytes  per-client line-buffer bound; an unterminated
//                     stream past it is rejected and disconnected
//   --memo-entries    result-memo bound (LRU eviction; 0 disables)
//   --poll-ms         idle poll tick of the serve loop
//
// Numeric values must be whole integers inside the flag's range
// (tools/cli_args.h); anything else exits 2 naming the flag, the value
// and the range, before a session or a socket exists.
//
// Exit status: 0 after a graceful shutdown drain; nonzero when the
// socket cannot be bound (including when another daemon is already
// listening on the path — a live daemon is never usurped).  Protocol
// errors never terminate the daemon.

#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <string>

#include "cli_args.h"
#include "core/service.h"
#include "core/session.h"

namespace {

using namespace mpsram;

[[noreturn]] void usage(const std::string& message)
{
    std::cerr << "mpsram_serve: " << message << "\n"
              << "usage: mpsram_serve --socket PATH [--threads N] "
                 "[--max-pending N] [--max-clients N] "
                 "[--max-line-bytes N] [--memo-entries N] [--poll-ms N]\n";
    std::exit(2);
}

} // namespace

int main(int argc, char** argv)
{
    const cli::Args args = cli::parse_args(argc, argv, 1, usage);
    if (!args.positional.empty()) {
        usage("unexpected argument '" + args.positional.front() + "'");
    }
    // Every value is checked before the session, the socket or a worker
    // pool exists.
    core::Service_options opts;
    opts.socket_path = args.require("socket");
    opts.runner.threads =
        args.number("threads", 0, cli::max_threads, opts.runner.threads);
    opts.max_pending = args.number<std::size_t>("max-pending", 1, 1u << 20,
                                                opts.max_pending);
    opts.max_clients = args.number<std::size_t>("max-clients", 1, 1u << 16,
                                                opts.max_clients);
    opts.max_line_bytes = args.number<std::size_t>(
        "max-line-bytes", 1, std::size_t{1} << 30, opts.max_line_bytes);
    opts.max_memo_entries = args.number<std::size_t>(
        "memo-entries", 0, 1u << 24, opts.max_memo_entries);
    opts.poll_interval_ms =
        args.number("poll-ms", 1, 60000, opts.poll_interval_ms);
    try {
        const core::Study_session session;
        core::Query_service service(session, opts);
        std::cerr << "mpsram_serve: listening on " << opts.socket_path
                  << " (cache " << core::to_string(session.cache_mode())
                  << ")\n";
        const int status = service.serve();
        std::cerr << "mpsram_serve: graceful shutdown after "
                  << service.stats().requests << " requests ("
                  << service.stats().queries << " queries, "
                  << service.stats().memo_hits << " memo hits)\n";
        return status;
    } catch (const std::exception& e) {
        std::cerr << "mpsram_serve: " << e.what() << "\n";
        return 1;
    }
}
