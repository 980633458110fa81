#include "core/service.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/serialize.h"
#include "util/hash.h"
#include "util/socket.h"

namespace mpsram::core {

namespace {

/// Service-side wall time of a request [ms].  Diagnostic metadata only —
/// it rides in the `serve` object, never inside a result payload, so the
/// bitwise-identity contract is untouched.
double wall_ms_since(std::chrono::steady_clock::time_point start)
{
    const auto end = std::chrono::steady_clock::now(); // lint:allow(wall-clock)
    return std::chrono::duration<double, std::milli>(end - start).count();
}

} // namespace

Query_service::Query_service(const Study_session& session,
                             Service_options opts)
    : session_(session), opts_(std::move(opts))
{
}

util::Json Query_service::error_json(std::string_view code,
                                     std::string_view message,
                                     const util::Json* id)
{
    util::Json response;
    response.set("v", service_protocol_version);
    response.set("ok", false);
    if (id != nullptr) response.set("id", *id);
    util::Json error;
    error.set("code", code);
    error.set("message", message);
    response.set("error", std::move(error));
    if (code != "busy") ++stats_.errors;
    return response;
}

util::Json Query_service::ok_json(std::string_view op, const util::Json* id)
{
    util::Json response;
    response.set("v", service_protocol_version);
    response.set("ok", true);
    response.set("op", op);
    if (id != nullptr) response.set("id", *id);
    return response;
}

util::Json Query_service::op_query(const util::Json& request,
                                   const util::Json* id)
{
    const util::Json* payload = request.find("query");
    if (payload == nullptr) {
        return error_json("malformed", "op 'query' requires a 'query' member",
                          id);
    }
    Query query;
    try {
        query = query_of_json(*payload);
    } catch (const std::exception& ex) {
        return error_json("malformed",
                          std::string("undecodable query payload: ") +
                              ex.what(),
                          id);
    }
    // The wire format deliberately carries no runner (execution policy,
    // not key material); the daemon's policy applies to every request.
    query.runner = opts_.runner;
    query.mc.runner = opts_.runner;

    const auto start = std::chrono::steady_clock::now(); // lint:allow(wall-clock)
    const std::uint64_t hits0 = session_.cache_hit_count();
    const std::uint64_t misses0 = session_.cache_miss_count();
    const std::uint64_t stores0 = session_.cache_store_count();
    const std::size_t corners0 = session_.corner_search_count();
    const std::size_t surfaces0 = session_.surface_fit_count();

    std::uint64_t key = 0;
    util::Json table;
    bool memo_hit = false;
    try {
        key = query_key(session_, query);
        const auto memoized = memo_.find(key);
        if (memoized != memo_.end()) {
            table = memoized->second.table;
            memo_lru_.splice(memo_lru_.begin(), memo_lru_,
                             memoized->second.lru);
            memo_hit = true;
            ++stats_.memo_hits;
        } else {
            table = json_of_result_table(session_.run(query));
            if (opts_.max_memo_entries > 0) {
                memo_lru_.push_front(key);
                memo_.emplace(key, Memo_entry{table, memo_lru_.begin()});
                if (memo_.size() > opts_.max_memo_entries) {
                    memo_.erase(memo_lru_.back());
                    memo_lru_.pop_back();
                    ++stats_.memo_evictions;
                }
            }
        }
    } catch (const std::exception& ex) {
        return error_json("failed", ex.what(), id);
    }
    ++stats_.queries;

    util::Json serve;
    serve.set("query_hash", util::hex16(key));
    serve.set("memo_hit", memo_hit);
    serve.set("cache_hits", session_.cache_hit_count() - hits0);
    serve.set("cache_misses", session_.cache_miss_count() - misses0);
    serve.set("cache_stores", session_.cache_store_count() - stores0);
    serve.set("corner_searches", static_cast<std::uint64_t>(
                                     session_.corner_search_count() -
                                     corners0));
    serve.set("surface_fits", static_cast<std::uint64_t>(
                                  session_.surface_fit_count() - surfaces0));
    serve.set("wall_ms", wall_ms_since(start));
    serve.set("queue_depth", static_cast<std::uint64_t>(queue_depth_));

    util::Json response = ok_json("query", id);
    response.set("result", std::move(table));
    response.set("serve", std::move(serve));
    return response;
}

util::Json Query_service::op_status(const util::Json* id)
{
    util::Json status;
    status.set("requests", stats_.requests);
    status.set("queries", stats_.queries);
    status.set("memo_hits", stats_.memo_hits);
    status.set("memo_entries", static_cast<std::uint64_t>(memo_.size()));
    status.set("memo_evictions", stats_.memo_evictions);
    status.set("errors", stats_.errors);
    status.set("busy", stats_.busy);
    status.set("queue_depth", static_cast<std::uint64_t>(queue_depth_));
    status.set("max_pending", static_cast<std::uint64_t>(opts_.max_pending));
    status.set("query_runs",
               static_cast<std::uint64_t>(session_.query_run_count()));
    status.set("corner_searches",
               static_cast<std::uint64_t>(session_.corner_search_count()));
    status.set("surface_fits",
               static_cast<std::uint64_t>(session_.surface_fit_count()));
    status.set("cache_mode", to_string(session_.cache_mode()));
    status.set("config_fingerprint",
               util::hex16(session_.config_fingerprint()));
    status.set("protocol_version", service_protocol_version);
    status.set("serialization_version", serialization_version);

    util::Json response = ok_json("status", id);
    response.set("status", std::move(status));
    return response;
}

util::Json Query_service::op_cache_stats(const util::Json* id)
{
    util::Json session;
    session.set("mode", to_string(session_.cache_mode()));
    session.set("hits", session_.cache_hit_count());
    session.set("misses", session_.cache_miss_count());
    session.set("stores", session_.cache_store_count());

    const Cache_stats aggregate = process_cache_stats();
    util::Json process;
    process.set("hits", aggregate.hits);
    process.set("misses", aggregate.misses);
    process.set("stores", aggregate.stores);

    util::Json stats;
    stats.set("session", std::move(session));
    stats.set("process", std::move(process));

    util::Json response = ok_json("cache_stats", id);
    response.set("cache_stats", std::move(stats));
    return response;
}

util::Json Query_service::handle_request(const util::Json& request)
{
    if (!request.is_object()) {
        return error_json("malformed", "request is not a JSON object",
                          nullptr);
    }
    const util::Json* id = request.find("id");
    const util::Json* version = request.find("v");
    if (version == nullptr) {
        return error_json("malformed", "missing protocol version 'v'", id);
    }
    std::uint64_t v = 0;
    try {
        v = version->as_u64();
    } catch (const std::exception&) {
        return error_json("malformed", "'v' is not an integer", id);
    }
    if (v != service_protocol_version) {
        return error_json("bad_version",
                          "unsupported protocol version " +
                              std::to_string(v) + " (this daemon speaks " +
                              std::to_string(service_protocol_version) + ")",
                          id);
    }
    const util::Json* op = request.find("op");
    if (op == nullptr || !op->is_string()) {
        return error_json("malformed", "missing or non-string 'op'", id);
    }
    const std::string& name = op->as_string();
    if (name == "query") return op_query(request, id);
    if (name == "status") return op_status(id);
    if (name == "cache_stats") return op_cache_stats(id);
    if (name == "shutdown") {
        shutdown_ = true;
        util::Json response = ok_json("shutdown", id);
        response.set("draining", static_cast<std::uint64_t>(queue_depth_));
        return response;
    }
    return error_json("unsupported_op", "unknown op '" + name + "'", id);
}

std::string Query_service::handle_line(const std::string& line)
{
    ++stats_.requests;
    util::Json request;
    try {
        request = util::Json::parse(line);
    } catch (const std::exception& ex) {
        return error_json("malformed", ex.what(), nullptr).dump();
    }
    return handle_request(request).dump();
}

std::string Query_service::busy_line(const std::string& line)
{
    ++stats_.requests;
    ++stats_.busy;
    const util::Json* id = nullptr;
    util::Json request;
    try {
        request = util::Json::parse(line);
        if (request.is_object()) id = request.find("id");
    } catch (const std::exception&) {
        // A malformed line that also hit backpressure still gets `busy`:
        // it was never admitted, so it was never parsed for real.
    }
    return error_json("busy",
                      "request queue is full (max_pending=" +
                          std::to_string(opts_.max_pending) + ")",
                      id)
        .dump();
}

int Query_service::serve()
{
    struct Client {
        util::Socket sock;
        util::Line_buffer lines;
    };
    util::Unix_listener listener(opts_.socket_path,
                                 static_cast<int>(opts_.max_clients));

    std::map<std::uint64_t, Client> clients;
    std::uint64_t next_client = 0;
    struct Pending {
        std::uint64_t client;
        std::string line;
    };
    std::deque<Pending> queue;
    char buf[4096];

    // Deliver one response line.  Returns false when the client is gone
    // or its write failed — a vanished or stalled client costs itself
    // its connection, never the daemon.  NEVER erases from `clients`:
    // callers iterate the map while sending, so removal is always theirs
    // to defer (the high-severity use-after-free this design prevents).
    auto send = [&](std::uint64_t client_id,
                    const std::string& body) -> bool {
        const auto it = clients.find(client_id);
        if (it == clients.end()) return false;
        try {
            it->second.sock.write_all(body + "\n", opts_.write_timeout_ms);
            return true;
        } catch (const std::exception&) {
            return false;
        }
    };

    while (true) {
        // 1. Poll the listener and every client for readability.  Idle
        //    ticks block for poll_interval_ms; with work queued we only
        //    sweep what is already ready.
        std::vector<int> fds;
        std::vector<std::uint64_t> owner; // fds[i] belongs to owner[i-1]
        fds.push_back(listener.fd());
        for (const auto& [cid, client] : clients) {
            fds.push_back(client.sock.fd());
            owner.push_back(cid);
        }
        const auto ready = util::poll_readable_set(
            fds, queue.empty() ? opts_.poll_interval_ms : 0);

        // 2. Admit new connections; beyond max_clients they are closed
        //    on sight (connect succeeds, first read sees EOF).
        for (const std::size_t index : ready) {
            if (index != 0) continue;
            while (auto accepted = listener.accept_client()) {
                if (clients.size() >= opts_.max_clients) continue;
                clients.emplace(next_client++,
                                Client{std::move(*accepted), {}});
            }
        }

        // 3. Drain every readable client and admit ALL complete lines
        //    before executing anything, so a pipelined burst observes the
        //    queue bound atomically (overflow -> immediate busy envelope).
        //    Removal is deferred: `dead` (failed read or write, oversized
        //    line) is reaped before execution, `eof` (orderly half-close)
        //    only AFTER the execute loop, so a client that pipelines
        //    requests and shuts down its write side still gets every
        //    answer.
        std::vector<std::uint64_t> dead;
        std::vector<std::uint64_t> eof;
        for (const std::size_t index : ready) {
            if (index == 0) continue;
            const std::uint64_t cid = owner[index - 1];
            auto it = clients.find(cid);
            if (it == clients.end()) continue;
            Client& client = it->second;
            bool hung_up = false;
            bool broken = false;
            try {
                while (auto n = client.sock.try_read(buf, sizeof buf)) {
                    if (*n == 0) {
                        hung_up = true;
                        break;
                    }
                    client.lines.append(buf, *n);
                }
            } catch (const std::exception&) {
                // A failed read is a dead client, like a broken write:
                // Linux reports ECONNRESET here when a peer closes with
                // our reply still unread.
                broken = true;
            }
            while (!broken) {
                auto line = client.lines.pop_line();
                if (!line) break;
                if (queue.size() >= opts_.max_pending) {
                    if (!send(cid, busy_line(*line))) {
                        broken = true;
                        break;
                    }
                } else {
                    queue.push_back(Pending{cid, std::move(*line)});
                }
            }
            if (!broken &&
                client.lines.pending_bytes() > opts_.max_line_bytes) {
                // An unterminated stream past the bound can never become
                // a request; answer once and cut the connection so the
                // buffer cannot grow without limit.
                send(cid,
                     error_json("malformed",
                                "request line exceeds max_line_bytes=" +
                                    std::to_string(opts_.max_line_bytes),
                                nullptr)
                         .dump());
                broken = true;
            }
            if (broken) {
                dead.push_back(cid);
            } else if (hung_up) {
                eof.push_back(cid);
            }
        }
        for (const std::uint64_t cid : dead) clients.erase(cid);

        // 4. Execute the admitted requests in admission order.  Requests
        //    admitted before a shutdown drain normally; the loop then
        //    exits without reading or accepting again.
        while (!queue.empty()) {
            Pending pending = std::move(queue.front());
            queue.pop_front();
            queue_depth_ = queue.size();
            if (!send(pending.client, handle_line(pending.line))) {
                clients.erase(pending.client);
            }
        }
        for (const std::uint64_t cid : eof) clients.erase(cid);
        if (shutdown_) break;
    }
    // ~Unix_listener closes and unlinks the socket file.
    return 0;
}

} // namespace mpsram::core
