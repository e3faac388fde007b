/**
 * @file
 * The `capstan-serve` daemon core: a Unix-domain-socket job service
 * over one shared engine::Engine.
 *
 * Architecture (docs/ARCHITECTURE.md, "Engine and service"):
 *  - The accept loop (run(), on the caller's thread) polls the listen
 *    socket and spawns one reader thread per connection. Each tick it
 *    joins and drops the readers of ended connections, so a closed
 *    connection's fd closes once no job holds it.
 *  - Readers split the byte stream into newline-delimited request
 *    lines, parse them under strict wire JsonLimits
 *    (serve/protocol.hpp), and answer control ops (ping/stats/cancel/
 *    shutdown) inline. Submissions go through admission control into a
 *    bounded FIFO queue — a full queue is a structured
 *    `{"event": "rejected", "code": "queue_full"}`, never a block.
 *  - One executor thread drains the queue in order and runs each job
 *    on the shared engine, streaming `started` / `progress` / `result`
 *    events to the submitting connection. One executor means jobs
 *    never contend for the dataset cache or the sweep workers — the
 *    second job on a dataset is a warm cache hit by construction.
 *  - Cancellation is cooperative: cancelling a queued job removes it;
 *    cancelling the running job fires its token, which the sweep loop
 *    (skip unclaimed points) and the simulation step loop
 *    (common/interrupt.hpp) both poll. The client still gets a result
 *    event, marked `"interrupted": true`, with the partial document.
 *  - Shutdown (SIGTERM/SIGINT, a `shutdown` op, or requestStop())
 *    stops accepting, lets the executor drain the queue, broadcasts
 *    `{"event": "shutdown"}`, and joins every thread before run()
 *    returns — a clean exit under TSan.
 *
 * Writes to one connection are serialized by a per-connection mutex,
 * so a streamed progress event never interleaves with a control reply.
 * A dead connection (EPIPE / reader EOF) cancels that client's jobs.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "serve/protocol.hpp"

namespace capstan::serve {

/** Daemon configuration (`capstan-serve` flags). */
struct ServeConfig
{
    /** Filesystem path of the Unix socket to listen on. */
    std::string socket_path;
    /** Max jobs waiting (the running job is not counted). */
    int queue_capacity = 8;
    /** Wire limit: max bytes in one request line. */
    std::size_t max_request_bytes = 1 << 20;
    /** Wire limit: max JSON nesting depth in one request. */
    int max_request_depth = 32;
};

class Server
{
  public:
    Server(engine::Engine &engine, ServeConfig cfg);
    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind + listen on the configured socket and start the executor.
     * Returns false with a diagnostic in @p error on failure (e.g.
     * the path is taken by a live daemon).
     */
    bool start(std::string &error);

    /**
     * Serve until a stop arrives (requestStop(), a `shutdown` op, or
     * the process interrupt flag — common/interrupt.hpp). Drains the
     * queue and joins every thread before returning.
     */
    void run();

    /** Ask run() to shut down; safe from any thread. */
    void requestStop();

    /** The per-process stats document (the `stats` op's payload). */
    JsonValue statsJson();

  private:
    struct Connection;
    struct Job;

    void readerLoop(std::shared_ptr<Connection> conn);
    void handleLine(const std::shared_ptr<Connection> &conn,
                    const std::string &line);
    void handleSubmit(const std::shared_ptr<Connection> &conn,
                      const Request &req);
    void handleCancel(const std::shared_ptr<Connection> &conn,
                      const Request &req);
    void executorLoop();
    void executeJob(const std::shared_ptr<Job> &job);
    void dropConnectionJobs(const Connection *conn);
    static bool sendLine(const std::shared_ptr<Connection> &conn,
                         const JsonValue &doc);

    engine::Engine &engine_;
    ServeConfig cfg_;

    int listen_fd_ = -1;
    std::atomic<bool> stop_{false};

    // Queue state: guarded by mu_, signalled through cv_ (see .cpp).
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Job>> queue_;
    std::shared_ptr<Job> running_;
    std::int64_t next_job_id_ = 1; //!< Every lower id was admitted.

    std::thread executor_;

    /** A connection and its reader; only run() and ~Server() touch them. */
    struct Reader
    {
        std::shared_ptr<Connection> conn;
        std::thread thread;
    };
    std::vector<Reader> readers_;

    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> cancelled_{0};
};

} // namespace capstan::serve
