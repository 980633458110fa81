// mpsram_client: command-line client of the query service daemon
// (core/service.h; start one with mpsram_serve).
//
// Subcommands (all take --socket PATH):
//   query --query FILE [--out FILE] [--format json|csv] [--expect-warm]
//       Send the query JSON (mpsram_shard emit's output) and write the
//       result table — as the bare canonical table JSON (byte-identical
//       to an in-process run's json_of_result_table dump, so `cmp`
//       against local output is the determinism gate) or as CSV
//       (core/csv.h).  The per-request serve metadata goes to stderr.
//       --expect-warm exits 1 unless the daemon served the request warm
//       (a memo or disk-cache hit, zero corner searches / surface fits).
//   status
//   cache-stats
//       Print the daemon's counters (the response payload, as JSON).
//   shutdown
//       Ask the daemon to drain and exit; prints the ack.
//
// Output convention matches mpsram_shard: stdout appends a newline,
// --out files carry the exact payload bytes.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_args.h"
#include "core/csv.h"
#include "core/serialize.h"
#include "core/service.h"
#include "util/atomic_file.h"
#include "util/json.h"
#include "util/socket.h"

namespace {

using namespace mpsram;

[[noreturn]] void usage(const std::string& message)
{
    std::cerr << "mpsram_client: " << message << "\n"
              << "subcommands: query | status | cache-stats | shutdown "
                 "(see the header comment)\n";
    std::exit(2);
}

std::string slurp(const std::string& path)
{
    const auto contents = util::read_file(path);
    if (!contents) usage("cannot read '" + path + "'");
    return *contents;
}

void write_out(const std::optional<std::string>& path,
               const std::string& contents)
{
    if (!path) {
        std::cout << contents << "\n";
        return;
    }
    std::ofstream out(*path, std::ios::binary | std::ios::trunc);
    out << contents;
    out.flush();
    if (!out) usage("cannot write '" + *path + "'");
}

/// One request/response exchange.  Reads until the response line's
/// newline arrives; a daemon that goes away mid-response is an error.
util::Json round_trip(const std::string& socket_path,
                      const util::Json& request)
{
    util::Socket sock = util::Socket::connect_unix(socket_path);
    sock.write_all(request.dump() + "\n", 30000);
    util::Line_buffer lines;
    char buf[4096];
    for (;;) {
        if (auto line = lines.pop_line()) return util::Json::parse(*line);
        const auto n = sock.read_some(buf, sizeof buf, 60000);
        if (!n) throw std::runtime_error("timed out waiting for the daemon");
        if (*n == 0) throw std::runtime_error("daemon closed the connection");
        lines.append(buf, *n);
    }
}

util::Json request_of(const std::string& op)
{
    util::Json request;
    request.set("v", core::service_protocol_version);
    request.set("op", op);
    return request;
}

/// Surface an error envelope as a failure exit (code + message on
/// stderr), pass a success envelope through.
const util::Json& check_ok(const util::Json& response)
{
    if (response.at("ok").as_bool()) return response;
    const util::Json& error = response.at("error");
    std::cerr << "mpsram_client: daemon error ["
              << error.at("code").as_string() << "] "
              << error.at("message").as_string() << "\n";
    std::exit(1);
}

int cmd_query(const std::string& socket_path, const cli::Args& args)
{
    util::Json request = request_of("query");
    request.set("query", util::Json::parse(slurp(args.require("query"))));

    const util::Json response =
        check_ok(round_trip(socket_path, request));
    const util::Json& serve = response.at("serve");
    std::cerr << "mpsram_client: serve " << serve.dump() << "\n";

    if (args.has("expect-warm")) {
        const bool memo_hit = serve.at("memo_hit").as_bool();
        const bool cache_hit = serve.at("cache_hits").as_u64() > 0;
        const bool no_work = serve.at("corner_searches").as_u64() == 0 &&
                             serve.at("surface_fits").as_u64() == 0;
        if (!((memo_hit || cache_hit) && no_work)) {
            std::cerr << "mpsram_client: request was not served warm\n";
            return 1;
        }
    }

    const std::string format = args.get("format").value_or("json");
    if (format == "json") {
        write_out(args.get("out"), response.at("result").dump());
    } else if (format == "csv") {
        write_out(args.get("out"),
                  core::to_csv(
                      core::result_table_of_json(response.at("result"))));
    } else {
        usage("unknown --format '" + format + "' (accepted: json, csv)");
    }
    return 0;
}

int cmd_payload(const std::string& socket_path, const std::string& op,
                const std::string& payload_key, const cli::Args& args)
{
    const util::Json response =
        check_ok(round_trip(socket_path, request_of(op)));
    write_out(args.get("out"), response.at(payload_key).dump());
    return 0;
}

int cmd_shutdown(const std::string& socket_path, const cli::Args& args)
{
    const util::Json response =
        check_ok(round_trip(socket_path, request_of("shutdown")));
    write_out(args.get("out"), response.dump());
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc < 2) usage("missing subcommand");
    const std::string command = argv[1];
    const cli::Args args =
        cli::parse_args(argc, argv, 2, usage, {"expect-warm"});
    if (!args.positional.empty()) {
        usage("unexpected argument '" + args.positional.front() + "'");
    }
    try {
        const std::string socket_path = args.require("socket");
        if (command == "query") return cmd_query(socket_path, args);
        if (command == "status") {
            return cmd_payload(socket_path, "status", "status", args);
        }
        if (command == "cache-stats") {
            return cmd_payload(socket_path, "cache_stats", "cache_stats",
                               args);
        }
        if (command == "shutdown") return cmd_shutdown(socket_path, args);
    } catch (const std::exception& e) {
        std::cerr << "mpsram_client: " << e.what() << "\n";
        return 1;
    }
    usage("unknown subcommand '" + command + "'");
}
