#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/interrupt.hpp"

namespace capstan::serve {

namespace {

/** How long the accept loop waits before re-checking its stop flags. */
constexpr int kPollTickMs = 200;

} // namespace

/** One client connection; shared by its reader and the executor. */
struct Server::Connection
{
    int fd = -1;
    std::mutex write_mu;          //!< Serializes whole event lines.
    std::atomic<bool> alive{true};
    std::atomic<bool> reader_done{false}; //!< The reader has returned.

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/** One submitted job, from admission to its result event. */
struct Server::Job
{
    std::int64_t job_id = 0;
    std::optional<std::int64_t> client_id; //!< Submit echo tag.
    engine::JobRequest request;
    std::shared_ptr<Connection> conn; //!< Where events stream to.
    std::atomic<bool> cancel{false};  //!< The job's cancel token.
};

Server::Server(engine::Engine &engine, ServeConfig cfg)
    : engine_(engine), cfg_(std::move(cfg))
{
}

Server::~Server()
{
    requestStop();
    if (executor_.joinable())
        executor_.join();
    for (Reader &r : readers_) {
        if (r.thread.joinable())
            r.thread.join();
    }
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
}

bool
Server::start(std::string &error)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.socket_path.empty() ||
        cfg_.socket_path.size() >= sizeof(addr.sun_path)) {
        error = "socket path must be 1.." +
                std::to_string(sizeof(addr.sun_path) - 1) +
                " bytes: '" + cfg_.socket_path + "'";
        return false;
    }
    std::memcpy(addr.sun_path, cfg_.socket_path.c_str(),
                cfg_.socket_path.size() + 1);

    // A stale socket file from a crashed daemon would fail the bind;
    // probe it first so we never unlink a live daemon's socket.
    int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
        bool live = ::connect(probe,
                              reinterpret_cast<sockaddr *>(&addr),
                              sizeof(addr)) == 0;
        ::close(probe);
        if (live) {
            error = "a daemon is already listening on " +
                    cfg_.socket_path;
            return false;
        }
    }
    ::unlink(cfg_.socket_path.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
        error = "bind " + cfg_.socket_path + ": " +
                std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    executor_ = std::thread([this] { executorLoop(); });
    return true;
}

void
Server::run()
{
    while (!stop_.load(std::memory_order_acquire)) {
        // The process interrupt flag is the daemon's SIGTERM/SIGINT
        // path: the handler only latches the flag, and this loop turns
        // it into an orderly drain.
        if (common::interruptRequested()) {
            requestStop();
            break;
        }
        // Reap ended connections: their fds close once no job holds
        // them, so a long-lived daemon keeps only live clients.
        for (auto it = readers_.begin(); it != readers_.end();) {
            if (it->conn->reader_done.load(std::memory_order_acquire)) {
                it->thread.join();
                it = readers_.erase(it);
            } else {
                ++it;
            }
        }
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        int ready = ::poll(&pfd, 1, kPollTickMs);
        if (ready <= 0)
            continue; // Timeout or EINTR: re-check the stop flags.
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            // A failed accept (out of fds) leaves the socket readable:
            // wait a tick for connections to end, not spin on poll.
            ::poll(nullptr, 0, kPollTickMs);
            continue;
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        Reader &reader = readers_.emplace_back(Reader{conn, {}});
        reader.thread = std::thread([this, conn] { readerLoop(conn); });
    }

    // Drain: the executor finishes the running job plus everything
    // already queued (new submissions are rejected "shutting_down"),
    // then exits.
    cv_.notify_all();
    if (executor_.joinable())
        executor_.join();

    // Tell every client, then wake the readers by shutting their
    // sockets down so run() can join them.
    for (const Reader &r : readers_) {
        if (r.conn->alive.load(std::memory_order_acquire))
            sendLine(r.conn, eventShutdown(std::nullopt));
        ::shutdown(r.conn->fd, SHUT_RDWR);
    }
    for (Reader &r : readers_)
        r.thread.join();
    readers_.clear();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    ::unlink(cfg_.socket_path.c_str());
}

void
Server::requestStop()
{
    stop_.store(true, std::memory_order_release);
    cv_.notify_all();
}

void
Server::readerLoop(std::shared_ptr<Connection> conn)
{
    std::string buffer;
    char chunk[4096];
    while (true) {
        ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl = buffer.find('\n', start);
             nl != std::string::npos;
             nl = buffer.find('\n', start)) {
            std::string line = buffer.substr(start, nl - start);
            start = nl + 1;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty())
                handleLine(conn, line);
        }
        buffer.erase(0, start);
        if (buffer.size() > kMaxRequestBytes) {
            // No newline within the wire size limit: the stream can
            // never re-synchronize, so report and hang up.
            sendLine(conn,
                     eventError("parse_error",
                                "request line exceeds limit (" +
                                    std::to_string(kMaxRequestBytes) +
                                    " bytes)",
                                std::nullopt));
            break;
        }
    }
    conn->alive.store(false, std::memory_order_release);
    ::shutdown(conn->fd, SHUT_RDWR);
    // A vanished client should not keep burning the executor.
    dropConnectionJobs(conn.get());
    conn->reader_done.store(true, std::memory_order_release);
}

void
Server::handleLine(const std::shared_ptr<Connection> &conn,
                   const std::string &line)
{
    common::JsonLimits limits;
    limits.max_bytes = kMaxRequestBytes;
    limits.max_depth = kMaxRequestDepth;

    Request req;
    try {
        req = parseRequest(line, limits);
    } catch (const ProtocolError &e) {
        sendLine(conn,
                 eventError(e.code(), e.what(), std::nullopt));
        return;
    }

    switch (req.op) {
    case Request::Op::Submit:
        handleSubmit(conn, req);
        break;
    case Request::Op::Cancel:
        handleCancel(conn, req);
        break;
    case Request::Op::Stats: {
        JsonValue doc = statsJson();
        JsonValue reply = JsonValue::object();
        reply.set("event", "stats");
        if (req.id)
            reply.set("id", *req.id);
        for (const auto &[key, value] : doc.members())
            reply.set(key, value);
        sendLine(conn, reply);
        break;
    }
    case Request::Op::Ping:
        sendLine(conn, eventPong(req.id));
        break;
    case Request::Op::Shutdown:
        sendLine(conn, eventShutdown(req.id));
        requestStop();
        break;
    }
}

void
Server::handleSubmit(const std::shared_ptr<Connection> &conn,
                     const Request &req)
{
    // Validate before admission so a malformed job never occupies a
    // queue slot; host knobs come from the engine's config.
    auto job = std::make_shared<Job>();
    job->client_id = req.id;
    job->conn = conn;
    try {
        job->request =
            engine::JobRequest::fromJson(req.job, engine_.config());
    } catch (const std::exception &e) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        sendLine(conn, eventError("bad_request", e.what(), req.id));
        return;
    }

    int depth = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_.load(std::memory_order_acquire)) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            sendLine(conn,
                     eventRejected(req.id, "shutting_down",
                                   "daemon is draining"));
            return;
        }
        if (queue_.size() >=
            static_cast<std::size_t>(cfg_.queue_capacity)) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            sendLine(conn,
                     eventRejected(
                         req.id, "queue_full",
                         "job queue is full (" +
                             std::to_string(cfg_.queue_capacity) +
                             " waiting)"));
            return;
        }
        job->job_id = next_job_id_++;
        queue_.push_back(job);
        depth = static_cast<int>(queue_.size());
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    sendLine(conn, eventAccepted(req.id, job->job_id, depth));
    cv_.notify_all();
}

void
Server::handleCancel(const std::shared_ptr<Connection> &conn,
                     const Request &req)
{
    std::string state = "unknown";
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const auto &j) {
                                   return j->job_id == req.job_id;
                               });
        if (it != queue_.end()) {
            // Still queued: it will simply never run (no result
            // event follows).
            queue_.erase(it);
            state = "queued";
        } else if (running_ && running_->job_id == req.job_id) {
            running_->cancel.store(true, std::memory_order_release);
            state = "running";
        } else if (req.job_id >= 1 && req.job_id < next_job_id_) {
            // Admitted, and neither queued nor running.
            state = "finished";
        }
    }
    if (state == "queued" || state == "running")
        cancelled_.fetch_add(1, std::memory_order_relaxed);
    sendLine(conn, eventCancelled(req.id, req.job_id, state));
}

void
Server::executorLoop()
{
    while (true) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [&] {
                return stop_.load(std::memory_order_acquire) ||
                       !queue_.empty();
            });
            if (queue_.empty())
                break; // Stop requested and nothing left to drain.
            job = queue_.front();
            queue_.pop_front();
            running_ = job;
        }
        executeJob(job);
    }
}

void
Server::executeJob(const std::shared_ptr<Job> &job)
{
    sendLine(job->conn, eventStarted(job->job_id));
    engine::ExecHooks hooks;
    hooks.cancel = &job->cancel;
    hooks.progress = [this, &job](std::size_t done,
                                  std::size_t total,
                                  const driver::SweepPointResult &p) {
        sendLine(job->conn,
                 eventProgress(job->job_id, done, total, p));
    };
    engine::JobResult result = engine_.execute(job->request, hooks);
    completed_.fetch_add(1, std::memory_order_relaxed);
    {
        // Finished before its result goes out, so a cancel sent after
        // the client reads the result finds it finished, not running.
        std::lock_guard<std::mutex> lock(mu_);
        running_.reset();
    }
    sendLine(job->conn, eventResult(job->job_id, result));
}

void
Server::dropConnectionJobs(const Connection *conn)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = queue_.begin(); it != queue_.end();) {
        if ((*it)->conn.get() == conn) {
            cancelled_.fetch_add(1, std::memory_order_relaxed);
            it = queue_.erase(it);
        } else {
            ++it;
        }
    }
    if (running_ && running_->conn.get() == conn)
        running_->cancel.store(true, std::memory_order_release);
}

bool
Server::sendLine(const std::shared_ptr<Connection> &conn,
                 const JsonValue &doc)
{
    if (!conn->alive.load(std::memory_order_acquire))
        return false;
    std::string line = doc.dump();
    line += '\n';
    std::lock_guard<std::mutex> lock(conn->write_mu);
    std::size_t sent = 0;
    while (sent < line.size()) {
        ssize_t n = ::send(conn->fd, line.data() + sent,
                           line.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            conn->alive.store(false, std::memory_order_release);
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

JsonValue
Server::statsJson()
{
    engine::EngineStats es = engine_.stats();
    std::size_t depth = 0;
    bool running = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        depth = queue_.size();
        running = running_ != nullptr;
    }
    JsonValue jobs = JsonValue::object();
    jobs.set("accepted", accepted_.load(std::memory_order_relaxed));
    jobs.set("rejected", rejected_.load(std::memory_order_relaxed));
    jobs.set("completed",
             completed_.load(std::memory_order_relaxed));
    jobs.set("cancelled",
             cancelled_.load(std::memory_order_relaxed));
    jobs.set("failed", es.jobs_failed);
    jobs.set("interrupted", es.jobs_interrupted);

    JsonValue queue = JsonValue::object();
    queue.set("depth", static_cast<std::int64_t>(depth));
    queue.set("capacity", cfg_.queue_capacity);
    queue.set("running", running);

    JsonValue cache = JsonValue::object();
    cache.set("hits", es.dataset_cache.hits);
    cache.set("misses", es.dataset_cache.misses);

    JsonValue eng = JsonValue::object();
    eng.set("jobs", engine_.jobs());

    JsonValue doc = JsonValue::object();
    doc.set("jobs", std::move(jobs));
    doc.set("queue", std::move(queue));
    doc.set("dataset_cache", std::move(cache));
    doc.set("engine", std::move(eng));
    return doc;
}

} // namespace capstan::serve
