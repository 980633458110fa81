// mpsram_shard: process-level shard driver for study queries.
//
// Splits one query's case list into k contiguous ranges, runs each range
// in an independent process (fork per shard — each child is a fresh
// Study_session with its own memory memos), and merges the partial
// tables bitwise-identically to a single-process run (the determinism
// argument lives in core/shard.h).  With MPSRAM_CACHE_DIR set, the
// shards share the on-disk result cache and a warm rerun skips the
// simulation work entirely.
//
// Subcommands:
//   emit  --metric M --options le3,sadp,euv --word-lines 16,24,32
//         [--ol V] [--accuracy A] [--solver S] [--samples N] [--seed S]
//         [--tdp-engine E] [--twp-engine E] [--out FILE]
//       Compose a query and write its JSON (stdout by default).  The
//       token flags take the query's own tokens (the usage text lists
//       them); --options takes the lowercase le3 / sadp / euv.  A
//       misspelled token exits 2 naming the accepted set.
//   run   --query FILE --shard I --count K --out FILE [--threads N]
//       Run shard I of K and write the part envelope.
//   merge --query FILE --out FILE [--format json|csv] PART...
//       Merge part envelopes into the full table (bare table JSON, or a
//       CSV export via core/csv.h).
//   exec  --query FILE --count K --out FILE [--threads N] [--expect-warm]
//       Fork K shard processes, wait, merge, write the full table.
//       --expect-warm additionally requires every shard to be served
//       from the cache (hits > 0, zero corner searches / surface fits).
//   cache-gc --dir DIR [--max-bytes N]
//       Sweep a result-cache directory: delete corrupt envelopes on
//       sight and, with --max-bytes, evict valid entries oldest-mtime-
//       first until the survivors fit (core::gc_result_cache).  Prints
//       the sweep stats as JSON.
//
// Numeric flags are read whole and range-checked (tools/cli_args.h):
// `--word-lines 16abc`, `--samples 2.5e4`, `--seed -1` or
// `--threads 100000` exits 2 naming the flag, the value and the range.
//
// The merged output of exec/merge is byte-stable: `cmp` of k=1/2/4 runs
// is the CI gate for the shard-merge determinism contract.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "cli_args.h"
#include "core/csv.h"
#include "core/query.h"
#include "core/result_cache.h"
#include "core/serialize.h"
#include "core/session.h"
#include "core/shard.h"
#include "sram/sim_accuracy.h"
#include "sram/solver_policy.h"
#include "util/atomic_file.h"
#include "util/json.h"
#include "util/token_table.h"

namespace {

using namespace mpsram;

/// Ranges of the numeric flags.  Values outside them, or not whole
/// numbers, exit 2 naming the flag and the range (tools/cli_args.h).
constexpr int max_word_lines = 1 << 16;  // 0: the session default
constexpr int max_samples = 1 << 30;
constexpr std::size_t max_shards = 64;

/// The CLI's own lowercase spelling of the options (the query JSON
/// carries the paper's labels); never accepted by the query decoder.
constexpr auto cli_option_tokens =
    util::token_table<tech::Patterning_option>(
        "patterning option", {{tech::Patterning_option::le3, "le3"},
                              {tech::Patterning_option::sadp, "sadp"},
                              {tech::Patterning_option::euv, "euv"}});

[[noreturn]] void usage(const std::string& message)
{
    std::cerr << "mpsram_shard: " << message << "\n"
              << "subcommands: emit | run | merge | exec | cache-gc (see "
                 "the header comment)\n"
              << "emit tokens:\n"
              << "  --metric      " << core::metric_tokens.accepted() << "\n"
              << "  --options     " << cli_option_tokens.accepted()
              << " (comma-separated)\n"
              << "  --accuracy    " << sram::sim_accuracy_tokens.accepted()
              << "\n"
              << "  --solver      " << sram::solver_policy_tokens.accepted()
              << "\n"
              << "  --tdp-engine  " << core::tdp_engine_tokens.accepted()
              << "\n"
              << "  --twp-engine  " << core::twp_engine_tokens.accepted()
              << "\n";
    std::exit(2);
}

/// The value of a token flag; a misspelling exits 2 naming the accepted
/// set.
template <class E, std::size_t N>
E flag_token(const std::string& flag, const std::string& text,
             const util::Token_table<E, N>& tokens)
{
    if (const std::optional<E> value = tokens.parse(text)) return *value;
    usage("unknown --" + flag + " value '" + text + "' (accepted: " +
          tokens.accepted() + ")");
}

std::vector<std::string> split_list(const std::string& text)
{
    std::vector<std::string> out;
    std::stringstream stream(text);
    std::string item;
    while (std::getline(stream, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
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

int cmd_emit(const cli::Args& args)
{
    core::Query query(
        flag_token("metric", args.require("metric"), core::metric_tokens));

    std::vector<int> word_lines;
    for (const std::string& n : split_list(args.require("word-lines"))) {
        word_lines.push_back(
            cli::number("--word-lines", n, 0, max_word_lines, usage));
    }
    const double ol = args.number("ol", -1.0, 1e-6, -1.0);
    for (const std::string& opt : split_list(args.require("options"))) {
        for (const int n : word_lines) {
            query.cases.push_back(
                {flag_token("options", opt, cli_option_tokens), n, ol});
        }
    }

    if (const auto a = args.get("accuracy")) {
        query.accuracy =
            flag_token("accuracy", *a, sram::sim_accuracy_tokens);
    }
    if (const auto s = args.get("solver")) {
        query.solver = flag_token("solver", *s, sram::solver_policy_tokens);
    }
    query.mc.samples =
        args.number("samples", 1, max_samples, query.mc.samples);
    query.mc.seed = args.number<std::uint64_t>(
        "seed", 0, ~std::uint64_t{0}, query.mc.seed);
    if (const auto e = args.get("tdp-engine")) {
        query.tdp_engine =
            flag_token("tdp-engine", *e, core::tdp_engine_tokens);
    }
    if (const auto e = args.get("twp-engine")) {
        query.twp_engine =
            flag_token("twp-engine", *e, core::twp_engine_tokens);
    }

    write_out(args.get("out"), core::json_of_query(query).dump());
    return 0;
}

/// --count: shard processes to fork (each a fresh session).
std::size_t shard_count(const cli::Args& args)
{
    return cli::number<std::size_t>("--count", args.require("count"), 1,
                                     max_shards, usage);
}

core::Query load_query(const cli::Args& args)
{
    core::Query query = core::query_of_json(
        util::Json::parse(slurp(args.require("query"))));
    if (args.has("threads")) {
        query.runner.threads = args.number("threads", 0, cli::max_threads, 1);
        query.mc.runner.threads = query.runner.threads;
    }
    return query;
}

/// Run one shard on a fresh session and return the part.  Asserts the
/// warm-cache contract when requested: served entirely from disk, no
/// corner searches, no surface fits.
core::Shard_part run_one_shard(const core::Query& query, std::size_t index,
                               std::size_t count, bool expect_warm)
{
    const core::Study_session session;
    const std::vector<core::Shard_range> plan =
        core::shard_plan(query.cases.size(), count);
    core::Shard_part part =
        core::run_shard(session, query, plan[index], index, count);
    if (expect_warm) {
        if (session.cache_hit_count() == 0 ||
            session.corner_search_count() != 0 ||
            session.surface_fit_count() != 0) {
            std::cerr << "mpsram_shard: shard " << index
                      << " was not served from the cache (hits="
                      << session.cache_hit_count()
                      << " corner_searches=" << session.corner_search_count()
                      << " surface_fits=" << session.surface_fit_count()
                      << ")\n";
            std::exit(1);
        }
    }
    return part;
}

int cmd_run(const cli::Args& args)
{
    const core::Query query = load_query(args);
    const auto count = shard_count(args);
    const auto index = cli::number<std::size_t>(
        "--shard", args.require("shard"), 0, count - 1, usage);

    const core::Shard_part part =
        run_one_shard(query, index, count, args.has("expect-warm"));
    write_out(args.get("out"), core::json_of_shard_part(part).dump());
    return 0;
}

int cmd_merge(const cli::Args& args)
{
    const core::Query query = load_query(args);
    const core::Study_session session;
    const std::uint64_t hash = core::query_key(session, query);

    std::vector<core::Shard_part> parts;
    if (args.positional.empty()) usage("merge needs part files");
    for (const std::string& path : args.positional) {
        parts.push_back(
            core::shard_part_of_json(util::Json::parse(slurp(path))));
    }
    const core::Result_table merged =
        core::merge_shard_parts(hash, query.cases.size(),
                                std::move(parts));
    const std::string format = args.get("format").value_or("json");
    if (format == "json") {
        write_out(args.get("out"),
                  core::json_of_result_table(merged).dump());
    } else if (format == "csv") {
        write_out(args.get("out"), core::to_csv(merged));
    } else {
        usage("unknown --format '" + format + "' (accepted: json, csv)");
    }
    return 0;
}

int cmd_cache_gc(const cli::Args& args)
{
    core::Gc_options options;
    if (args.has("max-bytes")) {
        options.max_bytes = args.number<std::uint64_t>(
            "max-bytes", 0, ~std::uint64_t{0}, 0);
    }
    const core::Gc_stats stats =
        core::gc_result_cache(args.require("dir"), options);

    util::Json report;
    report.set("entries", static_cast<std::uint64_t>(stats.entries));
    report.set("corrupt_deleted",
               static_cast<std::uint64_t>(stats.corrupt_deleted));
    report.set("evicted", static_cast<std::uint64_t>(stats.evicted));
    report.set("bytes_before", stats.bytes_before);
    report.set("bytes_after", stats.bytes_after);
    write_out(args.get("out"), report.dump());
    return 0;
}

int cmd_exec(const cli::Args& args)
{
    const core::Query query = load_query(args);
    const auto count = shard_count(args);
    const std::string out = args.require("out");
    const bool expect_warm = args.has("expect-warm");

    // One process per shard: each child computes its range on a fresh
    // session and writes a part file; the parent merges.  Sharing an
    // MPSRAM_CACHE_DIR across the children exercises the concurrent-
    // writer path of the cache (atomic rename, last writer wins with
    // identical bytes).
    std::vector<pid_t> children;
    for (std::size_t i = 0; i < count; ++i) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::cerr << "mpsram_shard: fork failed\n";
            return 1;
        }
        if (pid == 0) {
            try {
                const core::Shard_part part =
                    run_one_shard(query, i, count, expect_warm);
                write_out(out + ".part" + std::to_string(i),
                          core::json_of_shard_part(part).dump());
                std::_Exit(0);
            } catch (const std::exception& e) {
                std::cerr << "mpsram_shard: shard " << i << ": " << e.what()
                          << "\n";
                std::_Exit(1);
            }
        }
        children.push_back(pid);
    }

    bool failed = false;
    for (const pid_t pid : children) {
        int status = 0;
        if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            failed = true;
        }
    }
    if (failed) {
        std::cerr << "mpsram_shard: a shard process failed\n";
        return 1;
    }

    const core::Study_session session;
    const std::uint64_t hash = core::query_key(session, query);
    std::vector<core::Shard_part> parts;
    for (std::size_t i = 0; i < count; ++i) {
        const std::string path = out + ".part" + std::to_string(i);
        parts.push_back(
            core::shard_part_of_json(util::Json::parse(slurp(path))));
        std::remove(path.c_str());
    }
    const core::Result_table merged = core::merge_shard_parts(
        hash, query.cases.size(), std::move(parts));
    write_out(out, core::json_of_result_table(merged).dump());
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc < 2) usage("missing subcommand");
    const std::string command = argv[1];
    const cli::Args args =
        cli::parse_args(argc, argv, 2, usage, {"expect-warm"});
    try {
        if (command == "emit") return cmd_emit(args);
        if (command == "run") return cmd_run(args);
        if (command == "merge") return cmd_merge(args);
        if (command == "exec") return cmd_exec(args);
        if (command == "cache-gc") return cmd_cache_gc(args);
    } catch (const std::exception& e) {
        std::cerr << "mpsram_shard: " << e.what() << "\n";
        return 1;
    }
    usage("unknown subcommand '" + command + "'");
}
