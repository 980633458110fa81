// Query service (core/service.h + util/socket.h): protocol envelopes,
// malformed-input rejection, the bitwise identity of daemon-served
// results, warm memo serving, backpressure, graceful-shutdown drain, and
// N concurrent clients receiving identical tables from one daemon.
//
// The protocol core is exercised socket-free through handle_line (the
// designed seam); the daemon loop end to end through a forked server
// child, mirroring the mpsram_shard exec pattern.  The fork happens
// while this process is single-threaded (pools join between uses), so
// the suite stays TSan-clean.
#include "core/service.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/query.h"
#include "core/runner.h"
#include "core/serialize.h"
#include "core/session.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/socket.h"

namespace {

using namespace mpsram;

/// Session used by every test: cache off, so results come from compute
/// and the daemon's memo — no test scratch leaks into a shared cache.
core::Study_options uncached()
{
    core::Study_options opts;
    opts.cache.mode = core::Cache_mode::off;
    return opts;
}

/// The cheapest real query: one nominal-td SPICE transient.
core::Query small_query()
{
    return core::Query(core::Metric::nominal_td)
        .with_case({tech::Patterning_option::euv, 8, -1.0});
}

std::string query_line(const core::Query& q, std::uint64_t id)
{
    util::Json request;
    request.set("v", core::service_protocol_version);
    request.set("op", "query");
    request.set("id", id);
    request.set("query", core::json_of_query(q));
    return request.dump();
}

std::string op_line(const std::string& op)
{
    util::Json request;
    request.set("v", core::service_protocol_version);
    request.set("op", op);
    return request.dump();
}

// --- protocol core (socket-free) ---------------------------------------------

TEST(CoreService, MalformedRequestsGetStructuredErrors)
{
    const core::Study_session session(tech::n10(), uncached());
    core::Query_service service(session, {});

    const auto code_of = [&](const std::string& line) {
        const util::Json response =
            util::Json::parse(service.handle_line(line));
        EXPECT_FALSE(response.at("ok").as_bool());
        return response.at("error").at("code").as_string();
    };

    EXPECT_EQ(code_of("this is not json"), "malformed");
    EXPECT_EQ(code_of("[1,2,3]"), "malformed");
    EXPECT_EQ(code_of("{\"op\":\"status\"}"), "malformed");  // no version
    EXPECT_EQ(code_of("{\"v\":\"x\",\"op\":\"status\"}"), "malformed");
    EXPECT_EQ(code_of("{\"v\":99,\"op\":\"status\"}"), "bad_version");
    EXPECT_EQ(code_of("{\"v\":1}"), "malformed");  // no op
    EXPECT_EQ(code_of("{\"v\":1,\"op\":\"frobnicate\"}"), "unsupported_op");
    EXPECT_EQ(code_of("{\"v\":1,\"op\":\"query\"}"), "malformed");
    EXPECT_EQ(code_of("{\"v\":1,\"op\":\"query\",\"query\":{\"bad\":1}}"),
              "malformed");
    // The retired "iterative" solver tier: a decode error, never a
    // fallback to another tier.
    util::Json retired = core::json_of_query(small_query());
    retired.set("solver", "iterative");
    util::Json request = util::Json::parse(query_line(small_query(), 1));
    request.set("query", std::move(retired));
    const util::Json error =
        util::Json::parse(service.handle_line(request.dump())).at("error");
    EXPECT_EQ(error.at("code").as_string(), "malformed");
    EXPECT_NE(error.at("message").as_string().find("'direct', 'bypass'"),
              std::string::npos);

    // Every rejection produced a response; none touched the session.
    EXPECT_EQ(service.stats().requests, 10u);
    EXPECT_EQ(service.stats().errors, 10u);
    EXPECT_EQ(service.stats().queries, 0u);
    EXPECT_EQ(session.query_run_count(), 0u);
    EXPECT_FALSE(service.shutdown_requested());
}

TEST(CoreService, NonIntWordLinesAreMalformedNotTheDefaultColumn)
{
    const core::Study_session session(tech::n10(), uncached());
    core::Query_service service(session, {});

    // 3e9 rows used to decode to INT_MIN, which resolves to the session's
    // default word lines: the daemon answered a query nobody sent.
    for (const std::string value : {"3e9", "-1e300", "8.5"}) {
        std::string line = query_line(small_query(), 1);
        const std::string from = "\"word_lines\":8";
        ASSERT_NE(line.find(from), std::string::npos) << line;
        line.replace(line.find(from), from.size(),
                     "\"word_lines\":" + value);
        const util::Json response =
            util::Json::parse(service.handle_line(line));
        EXPECT_FALSE(response.at("ok").as_bool()) << value;
        EXPECT_EQ(response.at("error").at("code").as_string(), "malformed")
            << value;
    }
    EXPECT_EQ(service.stats().errors, 3u);
    EXPECT_EQ(session.query_run_count(), 0u);
}

TEST(CoreService, ErrorEnvelopeEchoesTheRequestId)
{
    const core::Study_session session(tech::n10(), uncached());
    core::Query_service service(session, {});
    const util::Json response = util::Json::parse(service.handle_line(
        "{\"v\":1,\"op\":\"nope\",\"id\":\"req-17\"}"));
    EXPECT_EQ(response.at("id").as_string(), "req-17");
    EXPECT_EQ(response.at("error").at("code").as_string(),
              "unsupported_op");
}

TEST(CoreService, QueryIsServedBitwiseIdenticalAndMemoized)
{
    const core::Study_session session(tech::n10(), uncached());
    core::Query_service service(session, {});
    const core::Query query = small_query();

    // The reference bytes: an in-process run on the same session.
    const std::string expected =
        core::json_of_result_table(session.run(query)).dump();

    const util::Json cold =
        util::Json::parse(service.handle_line(query_line(query, 1)));
    ASSERT_TRUE(cold.at("ok").as_bool());
    EXPECT_EQ(cold.at("op").as_string(), "query");
    EXPECT_EQ(cold.at("id").as_u64(), 1u);
    EXPECT_EQ(cold.at("result").dump(), expected);
    EXPECT_FALSE(cold.at("serve").at("memo_hit").as_bool());
    EXPECT_EQ(cold.at("serve").at("query_hash").as_string(),
              util::hex16(core::query_key(session, query)));

    // Same query again: served from the daemon memo, same bytes, no new
    // session run.
    const std::size_t runs_after_cold = session.query_run_count();
    const util::Json warm =
        util::Json::parse(service.handle_line(query_line(query, 2)));
    ASSERT_TRUE(warm.at("ok").as_bool());
    EXPECT_EQ(warm.at("result").dump(), expected);
    EXPECT_TRUE(warm.at("serve").at("memo_hit").as_bool());
    EXPECT_EQ(warm.at("serve").at("corner_searches").as_u64(), 0u);
    EXPECT_EQ(warm.at("serve").at("surface_fits").as_u64(), 0u);
    EXPECT_EQ(session.query_run_count(), runs_after_cold);

    EXPECT_EQ(service.stats().queries, 2u);
    EXPECT_EQ(service.stats().memo_hits, 1u);
    EXPECT_EQ(service.memo_entries(), 1u);
}

TEST(CoreService, StatusAndCacheStatsReportTheCounters)
{
    const core::Study_session session(tech::n10(), uncached());
    core::Query_service service(session, {});
    (void)service.handle_line(query_line(small_query(), 1));

    const util::Json status =
        util::Json::parse(service.handle_line(op_line("status")));
    ASSERT_TRUE(status.at("ok").as_bool());
    const util::Json& s = status.at("status");
    EXPECT_EQ(s.at("queries").as_u64(), 1u);
    EXPECT_EQ(s.at("memo_entries").as_u64(), 1u);
    EXPECT_EQ(s.at("query_runs").as_u64(), session.query_run_count());
    EXPECT_EQ(s.at("cache_mode").as_string(), "off");
    EXPECT_EQ(s.at("protocol_version").as_u64(),
              core::service_protocol_version);
    EXPECT_EQ(s.at("config_fingerprint").as_string(),
              util::hex16(session.config_fingerprint()));

    const util::Json cache =
        util::Json::parse(service.handle_line(op_line("cache_stats")));
    ASSERT_TRUE(cache.at("ok").as_bool());
    EXPECT_EQ(cache.at("cache_stats").at("session").at("hits").as_u64(),
              0u);
    EXPECT_EQ(cache.at("cache_stats").at("session").at("mode").as_string(),
              "off");
}

TEST(CoreService, ShutdownAcksAndSetsTheFlag)
{
    const core::Study_session session(tech::n10(), uncached());
    core::Query_service service(session, {});
    const util::Json ack =
        util::Json::parse(service.handle_line(op_line("shutdown")));
    ASSERT_TRUE(ack.at("ok").as_bool());
    EXPECT_EQ(ack.at("op").as_string(), "shutdown");
    EXPECT_EQ(ack.at("draining").as_u64(), 0u);
    EXPECT_TRUE(service.shutdown_requested());
}

TEST(CoreService, BusyLineIsAStructuredRejection)
{
    const core::Study_session session(tech::n10(), uncached());
    core::Service_options opts;
    opts.max_pending = 1;
    core::Query_service service(session, opts);

    const util::Json busy = util::Json::parse(service.busy_line(
        "{\"v\":1,\"op\":\"query\",\"id\":7,\"query\":{}}"));
    EXPECT_FALSE(busy.at("ok").as_bool());
    EXPECT_EQ(busy.at("error").at("code").as_string(), "busy");
    EXPECT_EQ(busy.at("id").as_u64(), 7u);  // id salvaged for correlation
    EXPECT_EQ(service.stats().busy, 1u);
    // busy is backpressure, not a protocol error.
    EXPECT_EQ(service.stats().errors, 0u);
}

TEST(CoreService, MemoIsBoundedWithLruEviction)
{
    const core::Study_session session(tech::n10(), uncached());
    core::Service_options opts;
    opts.max_memo_entries = 2;
    core::Query_service service(session, opts);

    const auto serve = [&](int word_lines) {
        const core::Query query =
            core::Query(core::Metric::nominal_td)
                .with_case(
                    {tech::Patterning_option::euv, word_lines, -1.0});
        return util::Json::parse(
            service.handle_line(query_line(query, word_lines)));
    };

    EXPECT_FALSE(serve(8).at("serve").at("memo_hit").as_bool());
    EXPECT_FALSE(serve(16).at("serve").at("memo_hit").as_bool());
    EXPECT_EQ(service.memo_entries(), 2u);

    // Touch 8 so 16 becomes least recently served, then force an
    // eviction with a third distinct query.
    EXPECT_TRUE(serve(8).at("serve").at("memo_hit").as_bool());
    EXPECT_FALSE(serve(32).at("serve").at("memo_hit").as_bool());
    EXPECT_EQ(service.memo_entries(), 2u);
    EXPECT_EQ(service.stats().memo_evictions, 1u);

    // 8 survived (recently served); 16 was the eviction victim.
    EXPECT_TRUE(serve(8).at("serve").at("memo_hit").as_bool());
    EXPECT_FALSE(serve(16).at("serve").at("memo_hit").as_bool());
}

TEST(CoreService, MemoBoundOfZeroDisablesMemoization)
{
    const core::Study_session session(tech::n10(), uncached());
    core::Service_options opts;
    opts.max_memo_entries = 0;
    core::Query_service service(session, opts);

    const std::string line = query_line(small_query(), 1);
    EXPECT_TRUE(
        util::Json::parse(service.handle_line(line)).at("ok").as_bool());
    const util::Json repeat = util::Json::parse(service.handle_line(line));
    EXPECT_FALSE(repeat.at("serve").at("memo_hit").as_bool());
    EXPECT_EQ(service.memo_entries(), 0u);
}

// --- listener path safety ----------------------------------------------------

TEST(UtilSocket, ListenerRefusesALiveDaemonPath)
{
    const std::string path = "service_test_takeover.sock";
    std::filesystem::remove(path);
    util::Unix_listener listener(path);

    // A second daemon on the same path fails loudly instead of silently
    // deleting the live daemon's socket and taking over...
    EXPECT_THROW({ util::Unix_listener usurper(path); },
                 std::runtime_error);

    // ...and the first is untouched: the file is still its socket and
    // still accepts connections.
    EXPECT_TRUE(std::filesystem::is_socket(path));
    EXPECT_TRUE(util::Socket::connect_unix(path).valid());
}

TEST(UtilSocket, ListenerRefusesToDeleteANonSocketFile)
{
    const std::string path = "service_test_not_a_socket";
    { std::ofstream(path) << "precious bytes\n"; }
    EXPECT_THROW({ util::Unix_listener listener(path); },
                 std::runtime_error);
    EXPECT_TRUE(std::filesystem::exists(path));
    std::filesystem::remove(path);
}

TEST(UtilSocket, ListenerReclaimsAStaleSocketFile)
{
    const std::string path = "service_test_stale.sock";
    std::filesystem::remove(path);

    // A daemon that died uncleanly: the child binds, then _Exits without
    // running destructors, leaving a socket file nobody listens on.
    const pid_t pid = ::fork();
    if (pid == 0) {
        try {
            util::Unix_listener stale(path);
            std::_Exit(0);
        } catch (...) {
            std::_Exit(3);
        }
    }
    ASSERT_GT(pid, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 0);
    ASSERT_TRUE(std::filesystem::is_socket(path));

    // The connect probe finds no listener, so the stale file is
    // reclaimed and the new daemon binds.
    util::Unix_listener listener(path);
    EXPECT_TRUE(util::Socket::connect_unix(path).valid());
}

// --- daemon loop (forked server) ---------------------------------------------

/// Forked mpsram-serve-alike: runs Query_service::serve() over a fresh
/// uncached session in a child process; the destructor reaps it (SIGKILL
/// only if a test failed before the graceful shutdown).
struct Server {
    explicit Server(const core::Service_options& opts)
    {
        std::filesystem::remove(opts.socket_path);
        pid = ::fork();
        if (pid == 0) {
            try {
                const core::Study_session session(tech::n10(), uncached());
                core::Query_service service(session, opts);
                std::_Exit(service.serve());
            } catch (...) {
                std::_Exit(3);
            }
        }
    }

    /// Wait for the daemon to exit and return its status (-1 on reap
    /// failure).  The graceful-shutdown contract is exit code 0.
    int wait()
    {
        int status = 0;
        if (::waitpid(pid, &status, 0) < 0) return -1;
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    ~Server()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    }

    pid_t pid = -1;
};

/// Connect, retrying until the forked server has bound its socket.
util::Socket connect_with_retry(const std::string& path)
{
    for (int attempt = 0;; ++attempt) {
        try {
            return util::Socket::connect_unix(path);
        } catch (const std::exception&) {
            if (attempt > 100) throw;
            ::usleep(50 * 1000);
        }
    }
}

/// Send `lines` in ONE syscall (AF_UNIX delivers a small write
/// contiguously, so the server admits the whole pipeline in one read
/// pass) and collect exactly `expected` response lines.
std::vector<std::string> exchange(util::Socket& sock,
                                  const std::vector<std::string>& lines,
                                  std::size_t expected)
{
    std::string batch;
    for (const std::string& line : lines) batch += line + "\n";
    sock.write_all(batch, 10000);

    std::vector<std::string> responses;
    util::Line_buffer buffer;
    char buf[4096];
    while (responses.size() < expected) {
        if (auto line = buffer.pop_line()) {
            responses.push_back(std::move(*line));
            continue;
        }
        const auto n = sock.read_some(buf, sizeof buf, 60000);
        if (!n || *n == 0) break;  // timeout or daemon gone
        buffer.append(buf, *n);
    }
    return responses;
}

TEST(CoreServiceDaemon, ConcurrentClientsReceiveIdenticalTables)
{
    const std::string socket_path = "service_test_concurrent.sock";
    core::Service_options opts;
    opts.socket_path = socket_path;
    opts.poll_interval_ms = 10;
    Server server(opts);
    ASSERT_GT(server.pid, 0);
    connect_with_retry(socket_path);  // wait for the bind, then drop

    const core::Query query = small_query();
    const core::Study_session local(tech::n10(), uncached());
    const std::string expected =
        core::json_of_result_table(local.run(query)).dump();

    // >= 4 clients, all connected before any request is sent, hammering
    // one daemon concurrently.  Every response must carry the same bytes
    // as the in-process run.
    constexpr std::size_t clients = 4;
    std::vector<std::string> results(clients);
    core::run_indexed(
        clients,
        [&](std::size_t i, const core::Run_context&) {
            util::Socket sock = connect_with_retry(socket_path);
            const auto responses =
                exchange(sock, {query_line(query, i)}, 1);
            if (responses.size() == 1) results[i] = responses[0];
        },
        core::Runner_options{static_cast<int>(clients)});

    for (std::size_t i = 0; i < clients; ++i) {
        ASSERT_FALSE(results[i].empty()) << "client " << i;
        const util::Json response = util::Json::parse(results[i]);
        ASSERT_TRUE(response.at("ok").as_bool()) << results[i];
        EXPECT_EQ(response.at("result").dump(), expected)
            << "client " << i;
    }

    util::Socket admin = connect_with_retry(socket_path);
    exchange(admin, {op_line("shutdown")}, 1);
    EXPECT_EQ(server.wait(), 0);
    EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(CoreServiceDaemon, QueueOverflowGetsBusyNotAHang)
{
    const std::string socket_path = "service_test_busy.sock";
    core::Service_options opts;
    opts.socket_path = socket_path;
    opts.max_pending = 1;
    opts.poll_interval_ms = 10;
    Server server(opts);
    ASSERT_GT(server.pid, 0);

    // Three pipelined requests against a queue of one: the first is
    // admitted, the other two are rejected immediately with `busy`
    // (emitted at admission time, so they arrive before the executed
    // request's response).
    const core::Query query = small_query();
    util::Socket sock = connect_with_retry(socket_path);
    const auto responses = exchange(sock,
                                    {query_line(query, 1),
                                     query_line(query, 2),
                                     query_line(query, 3)},
                                    3);
    ASSERT_EQ(responses.size(), 3u);

    std::size_t ok = 0, busy = 0;
    for (const std::string& line : responses) {
        const util::Json response = util::Json::parse(line);
        if (response.at("ok").as_bool()) {
            ++ok;
        } else {
            EXPECT_EQ(response.at("error").at("code").as_string(), "busy");
            ++busy;
        }
    }
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(busy, 2u);

    exchange(sock, {op_line("shutdown")}, 1);
    EXPECT_EQ(server.wait(), 0);
}

TEST(CoreServiceDaemon, ShutdownDrainsAdmittedRequests)
{
    const std::string socket_path = "service_test_drain.sock";
    core::Service_options opts;
    opts.socket_path = socket_path;
    opts.poll_interval_ms = 10;
    Server server(opts);
    ASSERT_GT(server.pid, 0);

    // query / shutdown / query pipelined in one write: ALL THREE were
    // admitted before the shutdown executes, so all three get answered
    // (the drain), then the daemon exits 0 and unlinks its socket.
    const core::Query query = small_query();
    util::Socket sock = connect_with_retry(socket_path);
    const auto responses = exchange(sock,
                                    {query_line(query, 1),
                                     op_line("shutdown"),
                                     query_line(query, 2)},
                                    3);
    ASSERT_EQ(responses.size(), 3u);

    const util::Json first = util::Json::parse(responses[0]);
    const util::Json ack = util::Json::parse(responses[1]);
    const util::Json last = util::Json::parse(responses[2]);
    EXPECT_TRUE(first.at("ok").as_bool());
    EXPECT_EQ(first.at("op").as_string(), "query");
    EXPECT_EQ(ack.at("op").as_string(), "shutdown");
    EXPECT_EQ(ack.at("draining").as_u64(), 1u);  // one request behind it
    EXPECT_TRUE(last.at("ok").as_bool());
    EXPECT_EQ(last.at("result").dump(), first.at("result").dump());

    EXPECT_EQ(server.wait(), 0);
    EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(CoreServiceDaemon, OversizedLineIsRejectedAndDisconnected)
{
    const std::string socket_path = "service_test_oversize.sock";
    core::Service_options opts;
    opts.socket_path = socket_path;
    opts.max_line_bytes = 1024;
    opts.poll_interval_ms = 10;
    Server server(opts);
    ASSERT_GT(server.pid, 0);

    // 4 KiB with no terminator can never become a request; the bounded
    // line buffer rejects it instead of growing forever.
    util::Socket sock = connect_with_retry(socket_path);
    sock.write_all(std::string(4096, 'x'), 10000);

    util::Line_buffer buffer;
    char buf[4096];
    std::string line;
    for (;;) {
        if (auto popped = buffer.pop_line()) {
            line = std::move(*popped);
            break;
        }
        const auto n = sock.read_some(buf, sizeof buf, 60000);
        ASSERT_TRUE(n && *n > 0) << "no rejection envelope arrived";
        buffer.append(buf, *n);
    }
    const util::Json response = util::Json::parse(line);
    EXPECT_FALSE(response.at("ok").as_bool());
    EXPECT_EQ(response.at("error").at("code").as_string(), "malformed");

    // The connection is cut after the one rejection envelope.
    const auto n = sock.read_some(buf, sizeof buf, 60000);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 0u);

    util::Socket admin = connect_with_retry(socket_path);
    exchange(admin, {op_line("shutdown")}, 1);
    EXPECT_EQ(server.wait(), 0);
}

TEST(CoreServiceDaemon, HalfClosedClientStillGetsItsAnswers)
{
    const std::string socket_path = "service_test_halfclose.sock";
    core::Service_options opts;
    opts.socket_path = socket_path;
    opts.poll_interval_ms = 10;
    Server server(opts);
    ASSERT_GT(server.pid, 0);

    // Pipeline two requests, then half-close: the daemon sees the EOF
    // with (or after) the request bytes, but must answer everything the
    // connection admitted before reaping it.
    const core::Query query = small_query();
    util::Socket sock = connect_with_retry(socket_path);
    sock.write_all(query_line(query, 1) + "\n" + query_line(query, 2) +
                       "\n",
                   10000);
    sock.shutdown_write();

    util::Line_buffer buffer;
    char buf[4096];
    std::vector<std::string> responses;
    while (responses.size() < 2) {
        if (auto line = buffer.pop_line()) {
            responses.push_back(std::move(*line));
            continue;
        }
        const auto n = sock.read_some(buf, sizeof buf, 60000);
        if (!n || *n == 0) break;
        buffer.append(buf, *n);
    }
    ASSERT_EQ(responses.size(), 2u);
    for (const std::string& response : responses) {
        EXPECT_TRUE(util::Json::parse(response).at("ok").as_bool())
            << response;
    }

    util::Socket admin = connect_with_retry(socket_path);
    exchange(admin, {op_line("shutdown")}, 1);
    EXPECT_EQ(server.wait(), 0);
}

TEST(CoreServiceDaemon, VanishingBusyClientDoesNotKillTheDaemon)
{
    const std::string socket_path = "service_test_vanish.sock";
    core::Service_options opts;
    opts.socket_path = socket_path;
    opts.max_pending = 1;
    opts.poll_interval_ms = 10;
    Server server(opts);
    ASSERT_GT(server.pid, 0);

    // Overflow the queue, then vanish without reading a byte: the busy
    // rejections hit a dead connection mid-drain (the use-after-free
    // regression scenario — the daemon must survive the failed sends).
    {
        util::Socket burst = connect_with_retry(socket_path);
        std::string lines;
        for (int i = 0; i < 32; ++i) {
            lines += query_line(small_query(), i) + "\n";
        }
        burst.write_all(lines, 10000);
    } // closed here, every response unread

    // The daemon is still alive and answering.  `busy` is admission-time
    // backpressure, so a status racing the burst's drain may transiently
    // be rejected too — retry until an answer lands.
    util::Socket admin = connect_with_retry(socket_path);
    util::Json status;
    for (int attempt = 0;; ++attempt) {
        const auto responses = exchange(admin, {op_line("status")}, 1);
        ASSERT_EQ(responses.size(), 1u) << "daemon stopped answering";
        status = util::Json::parse(responses[0]);
        if (status.at("ok").as_bool()) break;
        ASSERT_EQ(status.at("error").at("code").as_string(), "busy")
            << responses[0];
        ASSERT_LT(attempt, 100);
        ::usleep(10 * 1000);
    }
    EXPECT_GE(status.at("status").at("busy").as_u64(), 1u);

    exchange(admin, {op_line("shutdown")}, 1);
    EXPECT_EQ(server.wait(), 0);
}

TEST(CoreServiceDaemon, ClientClosingOverUnreadReplyDoesNotKillTheDaemon)
{
    const std::string socket_path = "service_test_reset.sock";
    core::Service_options opts;
    opts.socket_path = socket_path;
    opts.poll_interval_ms = 10;
    Server server(opts);
    ASSERT_GT(server.pid, 0);

    // Ask, wait until the reply is readable, then close without reading
    // it.  Linux turns that close into ECONNRESET on the daemon's next
    // read of this connection.
    {
        util::Socket reader = connect_with_retry(socket_path);
        reader.write_all(op_line("status") + "\n", 10000);
        ASSERT_TRUE(util::poll_readable(reader.fd(), 10000));
    } // closed here, the reply unread

    util::Socket admin = connect_with_retry(socket_path);
    const auto responses = exchange(admin, {op_line("status")}, 1);
    ASSERT_EQ(responses.size(), 1u) << "daemon stopped answering";
    EXPECT_TRUE(util::Json::parse(responses[0]).at("ok").as_bool());

    exchange(admin, {op_line("shutdown")}, 1);
    EXPECT_EQ(server.wait(), 0);
}

} // namespace
