// serve_mix: a closed loop of 2 connections from this process to an
// mpsram_serve --threads 1 subprocess.
//
// The daemon runs with MPSRAM_CACHE=readwrite on a fresh cache directory
// and a result-memo bound (memo_entries) below the working-set size, so
// repeats are served from the memo or, after an eviction, from the disk
// cache.  The request stream is a sequence of blocks of 198 requests with
// a fixed composition, shuffled per block by the seed:
//
//   187 (94.4%)  repeats, each of the 17 working-set entries 11 times:
//                small worst_case_rc / read_td rows plus two stored-sample
//                mc_tdp distributions (large payloads, 11% of requests)
//     1 (0.5%)   a never-seen worst_case_rc at a fresh LE3 overlay budget
//                in [3.5, 4.5) nm (inside the paper's 3-8 nm range): a
//                corner search, memo insert + evict, and two disk stores
//    10 (5.1%)   5 status + 5 cache_stats
//
// Every block holds the same requests (only their order, and with it the
// memo's evictions, differs), so the mix does not depend on the seed or
// on how many blocks a run serves.  The fresh share is small on purpose: a fresh
// query's cost is dominated by its two cache-file creations, whose
// latency on a shared host's disk swung 5x within minutes (0.85-4 ms per
// query), which at 10% made the block wall and p99 track the disk, not
// the service.  At 0.5% the write path still runs once per block and p99
// lands among the large-payload repeats.
//
// The working set is first touched in the set-up, so the timed phase runs
// no SPICE: it measures service, serialize, util.json, util.socket, the
// memo and Result_cache load/store.  Each connection sends its half of a
// block (99 requests) closed-loop; wall_s is the median block wall.
//
// Correctness: every response is ok; every repeat's result bytes equal the
// bytes the set-up saw for that query, which in turn equal an in-process
// Study_session::run; every fresh query is re-run in process too; and the
// daemon reports no errors and no busy refusals.
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"
#include "core/result_cache.h"
#include "core/serialize.h"
#include "core/service.h"
#include "trace.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/socket.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace mpsram;
namespace fs = std::filesystem;

constexpr std::size_t memo_entries = 12;
constexpr int repeats_per_entry = 11;  ///< per block
constexpr int status_per_block = 5;    ///< and as many cache_stats
constexpr int traced_blocks = 6;
constexpr int fresh_word_lines = 64;
/// Set-ups per run (daemon spawn + warm-up, ~150 ms each).
constexpr int setup_repeats = 11;
constexpr int io_timeout_ms = 60000;

std::vector<core::Query> working_set()
{
    using tech::Patterning_option;
    const Patterning_option options[] = {Patterning_option::le3,
                                         Patterning_option::sadp,
                                         Patterning_option::euv};
    std::vector<core::Query> set;
    for (const auto option : options) {
        for (const int n : {16, 64, 256}) {
            set.push_back(core::Query(core::Metric::worst_case_rc)
                              .with_case({option, n, -1.0}));
        }
    }
    for (const double ol : {3e-9, 5e-9, 6e-9}) {
        set.push_back(core::Query(core::Metric::worst_case_rc)
                          .with_case({Patterning_option::le3, 64, ol}));
    }
    for (const auto option : options) {
        set.push_back(core::Query(core::Metric::read_td)
                          .with_case({option, 16, -1.0})
                          .with_accuracy(sram::Sim_accuracy::fast)
                          .with_solver(spice::Solver_policy::bypass));
    }
    for (const auto& [option, ol] :
         {std::pair{Patterning_option::le3, 8e-9},
          std::pair{Patterning_option::sadp, -1.0}}) {
        core::Query q(core::Metric::mc_tdp);
        q.with_case({option, 64, ol});
        q.mc.samples = 2000;
        set.push_back(q);
    }
    return set;
}

util::Json request(std::string_view op)
{
    util::Json r;
    r.set("v", core::service_protocol_version);
    r.set("op", op);
    return r;
}

std::string query_line(const core::Query& q)
{
    util::Json r = request("query");
    r.set("query", core::json_of_query(q));
    return r.dump() + "\n";
}

/// One request of the stream.
struct Request {
    enum class Kind { repeat, fresh, status, cache_stats } kind;
    std::size_t index = 0;  ///< working-set entry (repeat)
    core::Query query;      ///< fresh: the never-seen query
    std::string line;
};

/// Block `b` of the seeded stream (depends on (seed, b) only): the fixed
/// composition of the file comment in a seeded order.
std::vector<Request> make_block(std::uint64_t seed, std::uint64_t b,
                                const std::vector<std::string>& ws_lines)
{
    std::vector<Request> block;
    for (std::size_t i = 0; i < ws_lines.size(); ++i) {
        for (int k = 0; k < repeats_per_entry; ++k) {
            block.push_back({Request::Kind::repeat, i, {}, ws_lines[i]});
        }
    }
    // Budget 3.5 nm + b fm: unique per block for the first million blocks
    // (a later wrap is a repeat, still a valid query), never a working-set
    // budget, and bounded, so a fresh query costs the same however many
    // blocks a run serves.
    Request fresh{Request::Kind::fresh, 0,
                  core::Query(core::Metric::worst_case_rc)
                      .with_case({tech::Patterning_option::le3,
                                  fresh_word_lines,
                                  3.5e-9 + 1e-15 * static_cast<double>(
                                                       b % 1000000)}),
                  {}};
    fresh.line = query_line(fresh.query);
    block.push_back(std::move(fresh));
    for (int k = 0; k < status_per_block; ++k) {
        block.push_back({Request::Kind::status, 0, {},
                         request("status").dump() + "\n"});
        block.push_back({Request::Kind::cache_stats, 0, {},
                         request("cache_stats").dump() + "\n"});
    }
    util::Rng rng = util::Rng::stream(seed, b);
    for (std::size_t i = block.size() - 1; i > 0; --i) {
        std::swap(block[i], block[static_cast<std::size_t>(rng.index(i + 1))]);
    }
    return block;
}

/// Result bytes of a query response, or "" when it is not an ok query
/// response.  Canonical dumps order the envelope v, ok, op, result, serve.
std::string_view result_bytes(std::string_view line)
{
    constexpr std::string_view head =
        R"({"v":1,"ok":true,"op":"query","result":)";
    constexpr std::string_view tail = R"(,"serve":{)";
    if (line.substr(0, head.size()) != head) return {};
    const std::size_t end = line.rfind(tail);
    if (end == std::string_view::npos || end < head.size()) return {};
    return line.substr(head.size(), end - head.size());
}

bool ok_response(std::string_view line)
{
    return line.substr(0, 17) == R"({"v":1,"ok":true,)";
}

/// A client connection: request out, one response line back.
class Connection {
public:
    explicit Connection(const std::string& path)
        : socket_(util::Socket::connect_unix(path))
    {
    }
    std::string exchange(std::string_view line)
    {
        socket_.write_all(line, io_timeout_ms);
        return read_line();
    }
    void send(std::string_view line) { socket_.write_all(line, io_timeout_ms); }
    std::string read_line()
    {
        for (;;) {
            if (auto l = lines_.pop_line()) return std::move(*l);
            const auto n = socket_.read_some(buf_, sizeof buf_, io_timeout_ms);
            if (!n || *n == 0) throw std::runtime_error("daemon went away");
            lines_.append(buf_, *n);
        }
    }

private:
    util::Socket socket_;
    util::Line_buffer lines_;
    char buf_[1 << 16];
};

/// The daemon subprocess: spawned on a fresh cache directory, stopped
/// (shutdown op, then reaped) on destruction.
class Daemon {
public:
    Daemon(const Args& args, int id)
        : dir_(args.work_dir + "/serve" + std::to_string(id)),
          socket_(dir_ + "/s.sock")
    {
        fs::remove_all(dir_);
        fs::create_directories(dir_ + "/cache");
        const std::string memo = std::to_string(memo_entries);
        std::vector<std::string> argv_s{args.serve_bin, "--socket", socket_,
                                        "--threads", "1", "--memo-entries",
                                        memo};
        std::vector<std::string> env_s;
        for (char** e = environ; *e != nullptr; ++e) {
            const std::string_view kv(*e);
            if (kv.rfind("MPSRAM_", 0) != 0) env_s.emplace_back(kv);
        }
        env_s.push_back("MPSRAM_CACHE=readwrite");
        env_s.push_back("MPSRAM_CACHE_DIR=" + dir_ + "/cache");
        std::vector<char*> argv;
        for (auto& a : argv_s) argv.push_back(a.data());
        argv.push_back(nullptr);
        std::vector<char*> env;
        for (auto& e : env_s) env.push_back(e.data());
        env.push_back(nullptr);
        if (posix_spawn(&pid_, args.serve_bin.c_str(), nullptr, nullptr,
                        argv.data(), env.data()) != 0) {
            throw std::runtime_error("cannot spawn " + args.serve_bin);
        }
        // Wait (bounded) until the daemon accepts connections.
        const auto start = Clock::now();
        for (;;) {
            try {
                Connection probe(socket_);
                break;
            } catch (const std::exception&) {
            }
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("mpsram_serve exited at start-up");
            }
            if (seconds_since(start) > 30.0) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                pid_ = -1;
                throw std::runtime_error("mpsram_serve never listened");
            }
            usleep(2000);
        }
    }
    ~Daemon()
    {
        if (pid_ <= 0) return;
        try {
            Connection(socket_).exchange(request("shutdown").dump() + "\n");
        } catch (const std::exception&) {
            kill(pid_, SIGTERM);
        }
        int status = 0;
        waitpid(pid_, &status, 0);
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    const std::string& socket() const { return socket_; }
    int pid() const { return pid_; }

private:
    std::string dir_;
    std::string socket_;
    pid_t pid_ = -1;
};

/// A warmed daemon with its two client connections.
struct Served {
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<Connection> conn[2];
};

/// Set-up: spawn, connect, and first-touch the working set (alternating
/// connections).  Records the result bytes of every working-set entry.
Served set_up(const Args& args, int id,
              const std::vector<std::string>& ws_lines,
              std::vector<std::string>& ws_bytes, Report& report)
{
    Served s;
    s.daemon = std::make_unique<Daemon>(args, id);
    for (auto& c : s.conn) c = std::make_unique<Connection>(s.daemon->socket());
    ws_bytes.assign(ws_lines.size(), {});
    for (std::size_t i = 0; i < ws_lines.size(); ++i) {
        const std::string line = s.conn[i % 2]->exchange(ws_lines[i]);
        report.attempt();
        ws_bytes[i] = std::string(result_bytes(line));
        if (ws_bytes[i].empty()) {
            report.fail("warm-up query failed: " + line.substr(0, 200));
        }
    }
    return s;
}

util::Json status_of(Connection& c)
{
    return util::Json::parse(c.exchange(request("status").dump() + "\n"))
        .at("status");
}

/// Per-connection tally of a closed-loop block.
struct Tally {
    std::vector<double> latencies;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_failure;
    std::vector<std::pair<core::Query, std::string>> fresh;  ///< sampled
};

void check_response(const Request& q, const std::string& line,
                    const std::vector<std::string>& ws_bytes, Tally& t)
{
    ++t.attempted;
    bool ok = ok_response(line);
    if (ok && q.kind == Request::Kind::repeat) {
        ok = result_bytes(line) == ws_bytes[q.index];
    } else if (ok && q.kind == Request::Kind::fresh) {
        const std::string_view bytes = result_bytes(line);
        ok = !bytes.empty();
        if (ok) t.fresh.emplace_back(q.query, std::string(bytes));
    }
    if (!ok) {
        if (t.failed++ == 0) t.first_failure = line.substr(0, 300);
    }
}

/// Re-run queries in process; their bytes must equal the served ones.
void check_in_process(Report& report,
                      const std::vector<std::pair<core::Query, std::string>>& served)
{
    const core::Study_session session(tech::n10(), uncached_options());
    for (const auto& [query, bytes] : served) {
        report.attempt();
        if (table_bytes(session.run(query)) != bytes) {
            report.fail("served bytes differ from an in-process run");
        }
    }
}

double count_of(const util::Json& status, const char* key)
{
    return static_cast<double>(status.at(key).as_u64());
}

} // namespace

void run_serve_mix(const Args& args, Report& report)
{
    fs::create_directories(args.work_dir);
    const std::vector<core::Query> ws = working_set();
    std::vector<std::string> ws_lines;
    for (const auto& q : ws) ws_lines.push_back(query_line(q));
    const std::uint64_t seed = util::Rng(args.seed).child("serve_mix").seed();
    std::vector<std::string> ws_bytes;

    // Set-up: spawn + connect + warm-up.  Set-up 0's daemon serves the
    // timed blocks; the later ones are stopped at once, after their
    // warm-up bytes are checked against set-up 0's.
    Served served;
    const auto set_up_daemon = [&](int i) {
        if (i == 0) {
            served = set_up(args, i, ws_lines, ws_bytes, report);
            return;
        }
        std::vector<std::string> bytes;
        const Served other = set_up(args, i, ws_lines, bytes, report);
        report.check(bytes == ws_bytes, "warm-up bytes changed");
    };

    std::vector<std::pair<core::Query, std::string>> to_verify;
    if (!args.trace) {
        std::vector<double> latencies;
        std::size_t block_size = 0;
        std::uint64_t b = 0;
        const Timed_phase p =
            timed_phase(args.seconds, setup_repeats, set_up_daemon, [&] {
                const std::vector<Request> block =
                    make_block(seed, b++, ws_lines);
                block_size = block.size();
                const std::size_t half = block.size() / 2;
                Tally tally[2];
                std::exception_ptr errors[2];
                std::thread workers[2];
                const auto t0 = Clock::now();
                for (std::size_t k = 0; k < 2; ++k) {
                    workers[k] = std::thread([&, k] {
                        try {
                            Connection& c = *served.conn[k];
                            for (std::size_t j = k * half;
                                 j < (k + 1) * half; ++j) {
                                const auto s0 = Clock::now();
                                const std::string line =
                                    c.exchange(block[j].line);
                                tally[k].latencies.push_back(
                                    seconds_since(s0));
                                check_response(block[j], line, ws_bytes,
                                               tally[k]);
                            }
                        } catch (...) {
                            errors[k] = std::current_exception();
                        }
                    });
                }
                for (auto& w : workers) w.join();
                const double wall = seconds_since(t0);
                for (const auto& e : errors) {
                    if (e) std::rethrow_exception(e);
                }
                for (const Tally& t : tally) {
                    latencies.insert(latencies.end(), t.latencies.begin(),
                                     t.latencies.end());
                    report.attempt(t.attempted);
                    for (std::uint64_t f = 0; f < t.failed; ++f) {
                        report.fail("serve response: " + t.first_failure);
                    }
                    to_verify.insert(to_verify.end(), t.fresh.begin(),
                                     t.fresh.end());
                }
                return wall;
            });

        const util::Json status = status_of(*served.conn[0]);
        report.check(count_of(status, "errors") == 0 &&
                         count_of(status, "busy") == 0,
                     "daemon reported errors or busy refusals");
        const double rss =
            peak_rss_mb() + peak_rss_mb(served.daemon->pid());
        served = Served{};
        for (std::size_t i = 0; i < ws.size(); ++i) {
            to_verify.emplace_back(ws[i], ws_bytes[i]);
        }
        check_in_process(report, to_verify);
        report_end_to_end(report, median(p.setups), p.walls,
                          static_cast<double>(block_size), latencies, rss);
        return;
    }

    set_up_daemon(0);
    for (std::size_t i = 0; i < ws.size(); ++i) {
        to_verify.emplace_back(ws[i], ws_bytes[i]);
    }

    // --- traced: a fixed stream in strict alternation, so every count is
    // a pure function of the seed --------------------------------------------
    std::vector<Request> stream;
    for (std::uint64_t b = 0; b < traced_blocks; ++b) {
        for (Request& q : make_block(seed, b, ws_lines)) {
            stream.push_back(std::move(q));
        }
    }

    struct Traced_pass {
        double wall_s = 0.0;
        std::vector<double> server_ms, transport_ms;
        std::vector<std::uint64_t> result_hashes;
        std::vector<double> counts;  ///< status + cache counters
        util::Json status;
        double cache_hits = 0, cache_misses = 0, cache_stores = 0;
    };
    trace::Recorder recorder;
    const auto pass = [&](Served& sv, bool traced) {
        Traced_pass p;
        Tally tally;
        if (traced) trace::set_active(&recorder);
        const auto t0 = Clock::now();
        {
            PB_SPAN(root, "workload");
            for (std::size_t r = 0; r < stream.size(); ++r) {
                const Request& q = stream[r];
                Connection& c = *sv.conn[r % 2];
                const auto s0 = Clock::now();
                {
                    PB_SPAN(span, "util.socket.write");
                    c.send(q.line);
                }
                std::string line;
                {
                    PB_SPAN(span, "util.socket.read");
                    line = c.read_line();
                }
                const double latency_ms = 1e3 * seconds_since(s0);
                check_response(q, line, ws_bytes, tally);
                if (!traced) continue;
                PB_SPAN(span, "util.json.parse");
                const std::string_view bytes = result_bytes(line);
                if (bytes.empty()) continue;
                p.result_hashes.push_back(util::fnv1a(bytes));
                const util::Json serve = util::Json::parse(line).at("serve");
                const double wall_ms = serve.at("wall_ms").as_double();
                p.server_ms.push_back(wall_ms);
                p.transport_ms.push_back(latency_ms - wall_ms);
                p.cache_hits += serve.at("cache_hits").as_double();
                p.cache_misses += serve.at("cache_misses").as_double();
                p.cache_stores += serve.at("cache_stores").as_double();
            }
        }
        p.wall_s = seconds_since(t0);
        trace::set_active(nullptr);
        report.attempt(tally.attempted);
        for (std::uint64_t f = 0; f < tally.failed; ++f) {
            report.fail("serve response: " + tally.first_failure);
        }
        p.status = status_of(*sv.conn[0]);
        for (const char* key : {"requests", "queries", "memo_hits",
                                "memo_entries", "memo_evictions", "errors",
                                "busy", "query_runs", "corner_searches",
                                "surface_fits"}) {
            p.counts.push_back(count_of(p.status, key));
        }
        p.counts.push_back(p.cache_hits);
        p.counts.push_back(p.cache_misses);
        p.counts.push_back(p.cache_stores);
        return p;
    };

    const Traced_pass untraced = pass(served, false);
    Traced_pass traced[2];
    for (int k = 0; k < 2; ++k) {
        served = Served{};
        std::vector<std::string> bytes;
        served = set_up(args, setup_repeats + k, ws_lines, bytes, report);
        report.check(bytes == ws_bytes, "warm-up bytes changed");
        traced[k] = pass(served, true);
    }
    served = Served{};
    report.check(traced[0].counts == traced[1].counts &&
                     traced[0].result_hashes == traced[1].result_hashes,
                 "serve counts or results did not repeat");
    if (!args.trace_out.empty()) recorder.write(args.trace_out);
    check_in_process(report, to_verify);

    // In-process replay of the same stream through Query_service: the
    // protocol, serialize, json and cache layers without the socket.
    const std::string replay_dir = args.work_dir + "/replay";
    fs::remove_all(replay_dir);
    core::Study_options opts;
    opts.cache.mode = core::Cache_mode::readwrite;
    opts.cache.directory = replay_dir + "/cache";
    const core::Study_session session(tech::n10(), opts);
    core::Service_options sopts;
    sopts.max_memo_entries = memo_entries;
    core::Query_service service(session, sopts);
    for (const auto& line : ws_lines) {
        service.handle_line(line.substr(0, line.size() - 1));
    }
    std::vector<double> handle_us, response_bytes;
    std::vector<std::uint64_t> replay_hashes;
    double parse_ns = 0, dump_ns = 0, json_bytes = 0;
    for (const Request& q : stream) {
        const auto t0 = Clock::now();
        const std::string response =
            service.handle_line(q.line.substr(0, q.line.size() - 1));
        handle_us.push_back(1e6 * seconds_since(t0));
        const std::string_view bytes = result_bytes(response);
        if (!bytes.empty()) {
            replay_hashes.push_back(util::fnv1a(bytes));
            response_bytes.push_back(static_cast<double>(response.size()));
        }
        const auto p0 = Clock::now();
        const util::Json parsed = util::Json::parse(response);
        parse_ns += 1e9 * seconds_since(p0);
        const auto d0 = Clock::now();
        const std::string dumped = parsed.dump();
        dump_ns += 1e9 * seconds_since(d0);
        json_bytes += static_cast<double>(response.size());
        report.check(dumped == response, "json round trip changed bytes");
    }
    report.check(replay_hashes == traced[0].result_hashes,
                 "in-process replay results differ from the daemon's");

    // Per-artifact costs over the working set.
    const std::string cache_dir = replay_dir + "/probe";
    core::Result_cache probe(cache_dir, core::Cache_mode::readwrite,
                             core::serialization_version);
    double encode_us = 0, decode_us = 0, key_us = 0, load_us = 0, store_us = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
        const core::Result_table table = session.run(ws[i]);
        auto t0 = Clock::now();
        const util::Json encoded = core::json_of_result_table(table);
        encode_us += 1e6 * seconds_since(t0);
        t0 = Clock::now();
        const core::Result_table decoded = core::result_table_of_json(encoded);
        decode_us += 1e6 * seconds_since(t0);
        report.check(decoded == table, "table decode mismatch");
        t0 = Clock::now();
        const std::uint64_t key = core::query_key(session, ws[i]);
        key_us += 1e6 * seconds_since(t0);
        t0 = Clock::now();
        probe.store("perfbench", key, encoded);
        store_us += 1e6 * seconds_since(t0);
        t0 = Clock::now();
        const auto loaded = probe.load("perfbench", key);
        load_us += 1e6 * seconds_since(t0);
        report.check(loaded && loaded->dump() == encoded.dump(),
                     "cache load mismatch");
    }
    fs::remove_all(replay_dir);
    const double n_ws = static_cast<double>(ws.size());

    const trace::Totals root =
        trace::totals_of(recorder.totals(), "workload");
    const Traced_pass& t = traced[0];
    const util::Json& st = t.status;
    const double queries = count_of(st, "queries");
    Layer_metrics m;
    m["service.requests"] = count_of(st, "requests");
    m["service.memo_hits"] = count_of(st, "memo_hits");
    m["service.memo_hit_ratio"] = count_of(st, "memo_hits") / queries;
    m["service.memo_evictions"] = count_of(st, "memo_evictions");
    m["service.errors"] = count_of(st, "errors");
    m["service.busy"] = count_of(st, "busy");
    m["mc.corner_searches"] = count_of(st, "corner_searches");
    m["core.cache_hits"] = t.cache_hits;
    m["core.cache_misses"] = t.cache_misses;
    m["core.cache_stores"] = t.cache_stores;
    m["core.cache_hit_ratio"] = t.cache_hits / (t.cache_hits + t.cache_misses);
    m["service.server_ms_p50"] = quantile(t.server_ms, 0.50);
    m["service.server_ms_p99"] = quantile(t.server_ms, 0.99);
    m["util.socket.transport_ms_p50"] = quantile(t.transport_ms, 0.50);
    m["service.handle_line_us_p50"] = quantile(handle_us, 0.50);
    m["util.json.parse_ns_per_byte"] = parse_ns / json_bytes;
    m["util.json.dump_ns_per_byte"] = dump_ns / json_bytes;
    m["core.serialize.encode_us"] = encode_us / n_ws;
    m["core.serialize.decode_us"] = decode_us / n_ws;
    m["core.query_key_us"] = key_us / n_ws;
    m["core.cache.load_us"] = load_us / n_ws;
    m["core.cache.store_us"] = store_us / n_ws;
    m["service.response_bytes_p50"] = quantile(response_bytes, 0.50);
    m["service.response_bytes_p99"] = quantile(response_bytes, 0.99);
    m["trace.overhead_s"] = t.wall_s - untraced.wall_s;
    m["trace.unattributed_share"] = root.self_s / root.total_s;
    m["error_ratio"] = report.error_ratio();
    report_per_layer(report, m);
}

} // namespace perfbench
