/**
 * @file
 * Tests for the capstan-serve layer (src/serve/): wire-protocol
 * parsing and event shapes (pure, no sockets), then end-to-end socket
 * tests against an in-process Server — structured errors for
 * malformed requests, queue-full admission control, cancellation of a
 * running sweep, the byte-identity of streamed results with CLI
 * output, warm-cache sharing across clients, closed connections giving
 * their fds back, and a clean drain.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "engine/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace capstan;
using common::JsonValue;

common::JsonLimits
wireLimits()
{
    common::JsonLimits limits;
    limits.max_bytes = 1 << 16;
    limits.max_depth = 16;
    return limits;
}

/** The ProtocolError code a request line raises ("" = no error). */
std::string
errorCode(const std::string &line)
{
    try {
        serve::parseRequest(line, wireLimits());
    } catch (const serve::ProtocolError &e) {
        return e.code();
    }
    return "";
}

TEST(ServeProtocol, MalformedLinesRaiseStructuredCodes)
{
    EXPECT_EQ(errorCode("{oops"), "parse_error");
    EXPECT_EQ(errorCode(""), "parse_error");
    EXPECT_EQ(errorCode("[1, 2]"), "bad_request");
    EXPECT_EQ(errorCode("\"ping\""), "bad_request");
    EXPECT_EQ(errorCode("{}"), "bad_request");
    EXPECT_EQ(errorCode("{\"op\": 7}"), "bad_request");
    EXPECT_EQ(errorCode("{\"op\": \"fly\"}"), "unknown_op");
    EXPECT_EQ(errorCode("{\"op\": \"submit\"}"), "bad_request");
    EXPECT_EQ(errorCode("{\"op\": \"submit\", \"job\": 3}"),
              "bad_request");
    EXPECT_EQ(errorCode("{\"op\": \"cancel\"}"), "bad_request");
    EXPECT_EQ(errorCode("{\"op\": \"cancel\", \"job_id\": 1.5}"),
              "bad_request");
    EXPECT_EQ(errorCode("{\"op\": \"cancel\", \"job_id\": -1}"),
              "bad_request");
    EXPECT_EQ(errorCode("{\"op\": \"ping\", \"id\": \"tag\"}"),
              "bad_request");
    EXPECT_EQ(errorCode("{\"op\": \"ping\", \"turbo\": true}"),
              "bad_request");
    EXPECT_EQ(errorCode("{\"op\": \"stats\", \"job\": {}}"),
              "bad_request");

    // Wire limits surface as parse errors, not crashes.
    std::string deep = "{\"op\": \"ping\", \"id\": ";
    deep += std::string(32, '[');
    deep += std::string(32, ']');
    deep += "}";
    EXPECT_EQ(errorCode(deep), "parse_error");
    EXPECT_EQ(errorCode("{\"op\": \"ping\", \"pad\": \"" +
                        std::string(1 << 17, 'x') + "\"}"),
              "parse_error");
}

TEST(ServeProtocol, WellFormedRequestsParse)
{
    serve::Request ping =
        serve::parseRequest("{\"op\": \"ping\", \"id\": 42}",
                            wireLimits());
    EXPECT_EQ(ping.op, serve::Request::Op::Ping);
    ASSERT_TRUE(ping.id.has_value());
    EXPECT_EQ(*ping.id, 42);

    serve::Request submit = serve::parseRequest(
        "{\"op\": \"submit\", \"job\": {\"type\": \"run\"}}",
        wireLimits());
    EXPECT_EQ(submit.op, serve::Request::Op::Submit);
    EXPECT_FALSE(submit.id.has_value());
    EXPECT_EQ(submit.job.at("type").asString(), "run");

    serve::Request cancel = serve::parseRequest(
        "{\"op\": \"cancel\", \"job_id\": 7}", wireLimits());
    EXPECT_EQ(cancel.op, serve::Request::Op::Cancel);
    EXPECT_EQ(cancel.job_id, 7);
}

TEST(ServeProtocol, ResultEventEndsWithTheExactDocumentBytes)
{
    engine::JobResult result;
    result.ok = true;
    result.document = JsonValue::parse(
        "{\"app\": \"spmv\", \"cycles\": 123, \"nested\": "
        "{\"deep\": [1, 2, 3]}}");
    std::string line = serve::eventResult(9, result).dump();
    std::string expected =
        "\"stats\":" + result.document.dump() + "}";
    ASSERT_GE(line.size(), expected.size());
    EXPECT_EQ(line.substr(line.size() - expected.size()), expected)
        << line;

    engine::JobResult bad;
    bad.ok = false;
    bad.interrupted = true;
    bad.error = "interrupted";
    JsonValue doc = serve::eventResult(3, bad);
    EXPECT_TRUE(doc.at("interrupted").asBool());
    EXPECT_EQ(doc.at("error").asString(), "interrupted");
}

// ---------------------------------------------------------------------
// Socket tests: an in-process Server on a private socket path.
// ---------------------------------------------------------------------

/** An in-process daemon: engine + server + acceptor thread. */
class Harness
{
  public:
    explicit Harness(const std::string &name, int queue_capacity = 8)
    {
        engine::EngineConfig ecfg;
        ecfg.jobs = 1; // Keep the test daemon single-threaded.
        engine_ = std::make_unique<engine::Engine>(ecfg);
        cfg_.socket_path = "/tmp/capstan-serve-test-" +
                           std::to_string(::getpid()) + "-" + name +
                           ".sock";
        cfg_.queue_capacity = queue_capacity;
        server_ =
            std::make_unique<serve::Server>(*engine_, cfg_);
        std::string error;
        started_ = server_->start(error);
        EXPECT_TRUE(started_) << error;
        if (started_)
            acceptor_ = std::thread([this] { server_->run(); });
    }

    ~Harness()
    {
        if (started_)
            server_->requestStop();
        if (acceptor_.joinable())
            acceptor_.join();
        server_.reset();
        ::unlink(cfg_.socket_path.c_str());
    }

    const std::string &socketPath() const { return cfg_.socket_path; }
    bool started() const { return started_; }
    /** run() returns once the drain completes. */
    void joinAcceptor()
    {
        if (acceptor_.joinable())
            acceptor_.join();
    }

  private:
    serve::ServeConfig cfg_;
    std::unique_ptr<engine::Engine> engine_;
    std::unique_ptr<serve::Server> server_;
    std::thread acceptor_;
    bool started_ = false;
};

// GTest's ASSERT_* needs a void function; Client's constructor and
// helpers just bail and leave fd_ < 0 for ok() to report.
#define ASSERT_TRUE_OR_RETURN(cond)                                   \
    do {                                                              \
        if (!(cond)) {                                                \
            ADD_FAILURE() << #cond;                                   \
            return;                                                   \
        }                                                             \
    } while (0)

/** A line-oriented protocol client with poll()-based timeouts. */
class Client
{
  public:
    explicit Client(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_TRUE_OR_RETURN(fd_ >= 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool ok() const { return fd_ >= 0; }

    void send(const std::string &line) { sendRaw(line + "\n"); }

    /** Send @p bytes as they are, with or without a newline. */
    void sendRaw(const std::string &bytes)
    {
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
            ASSERT_TRUE_OR_RETURN(n > 0);
            sent += static_cast<std::size_t>(n);
        }
    }

    /** A read saw the daemon close the connection. */
    bool closed() const { return closed_; }

    /**
     * Next raw event line, or std::nullopt on EOF/timeout. The budget
     * is a poll-slice count (100 ms each), not a wall clock, so the
     * test source stays free of time calls.
     */
    std::optional<std::string> readLine(int slices = 600)
    {
        while (true) {
            std::size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return line;
            }
            if (slices-- <= 0)
                return std::nullopt;
            pollfd pfd{};
            pfd.fd = fd_;
            pfd.events = POLLIN;
            if (::poll(&pfd, 1, 100) <= 0)
                continue;
            char chunk[4096];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0) {
                closed_ = true;
                return std::nullopt;
            }
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** Next parsed event, skipping none. */
    std::optional<JsonValue> read(int slices = 600)
    {
        std::optional<std::string> line = readLine(slices);
        if (!line)
            return std::nullopt;
        return JsonValue::parse(*line);
    }

    /** Skip forward to the next event named @p name. */
    std::optional<JsonValue> readEvent(const std::string &name,
                                       int slices = 600)
    {
        while (true) {
            std::optional<JsonValue> doc = read(slices);
            if (!doc)
                return std::nullopt;
            if (doc->at("event").asString() == name)
                return doc;
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
    bool closed_ = false;
};

std::string
submitLine(int id, const std::string &job)
{
    return "{\"op\": \"submit\", \"id\": " + std::to_string(id) +
           ", \"job\": " + job + "}";
}

const char *const kQuickRunJob =
    "{\"type\": \"run\", \"options\": {\"app\": \"spmv\", "
    "\"config\": \"capstan\", \"scale\": 0.02, \"tiles\": 4, "
    "\"iterations\": 1}}";

/**
 * An 8-point sweep slow enough to still be running mid-test: about
 * 0.16 s on one thread, where the test's cancel follows its start by
 * three round trips.
 */
const char *const kSlowSweepJob =
    "{\"type\": \"sweep\", \"options\": {\"scale\": 1, "
    "\"tiles\": 4, \"iterations\": 2}, \"axes\": {\"app\": "
    "[\"spmv\", \"bfs\", \"matadd\", \"pagerank\"], "
    "\"memtech\": [\"hbm2e\", \"ddr4\"]}}";

TEST(ServeSocket, MalformedRequestGetsErrorAndConnectionSurvives)
{
    Harness h("malformed");
    ASSERT_TRUE(h.started());
    Client c(h.socketPath());
    ASSERT_TRUE(c.ok());

    c.send("this is not json");
    std::optional<JsonValue> err = c.read();
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->at("event").asString(), "error");
    EXPECT_EQ(err->at("code").asString(), "parse_error");
    ASSERT_TRUE(err->contains("message"));

    // A bad job document is rejected without occupying a queue slot.
    c.send(submitLine(5, "{\"type\": \"run\", \"options\": "
                         "{\"app\": \"nope\"}}"));
    std::optional<JsonValue> bad = c.read();
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(bad->at("event").asString(), "error");
    EXPECT_EQ(bad->at("code").asString(), "bad_request");
    EXPECT_EQ(bad->at("id").asNumber(), 5);

    // The worker count is the daemon's --jobs; a job cannot carry one.
    c.send(submitLine(6, "{\"type\": \"sweep\", \"axes\": "
                         "{\"app\": [\"spmv\"]}, \"jobs\": 2}"));
    std::optional<JsonValue> jobs = c.read();
    ASSERT_TRUE(jobs.has_value());
    EXPECT_EQ(jobs->at("code").asString(), "bad_request");
    EXPECT_EQ(jobs->at("id").asNumber(), 6);

    // The stream stayed line-synchronized: the connection still works.
    c.send("{\"op\": \"ping\", \"id\": 7}");
    std::optional<JsonValue> pong = c.read();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->at("event").asString(), "pong");
    EXPECT_EQ(pong->at("id").asNumber(), 7);
}

TEST(ServeSocket, WireLimitsAnswerParseErrorsAndOthersAreServed)
{
    Harness h("limits");
    ASSERT_TRUE(h.started());
    Client other(h.socketPath());
    ASSERT_TRUE(other.ok());

    // JSON nested past serve::kMaxRequestDepth is a parse_error; at
    // the limit it parses (and its unknown member is a bad_request).
    // The line-synchronized connection stays usable either way.
    Client c(h.socketPath());
    ASSERT_TRUE(c.ok());
    auto nested = [](int arrays) {
        return "{\"op\": \"ping\", \"pad\": " +
               std::string(static_cast<std::size_t>(arrays), '[') +
               std::string(static_cast<std::size_t>(arrays), ']') + "}";
    };
    c.send(nested(serve::kMaxRequestDepth));
    std::optional<JsonValue> deep = c.read();
    ASSERT_TRUE(deep.has_value());
    EXPECT_EQ(deep->at("code").asString(), "parse_error");
    c.send(nested(serve::kMaxRequestDepth - 1));
    std::optional<JsonValue> at_limit = c.read();
    ASSERT_TRUE(at_limit.has_value());
    EXPECT_EQ(at_limit->at("code").asString(), "bad_request");

    // A line with no newline within serve::kMaxRequestBytes can never
    // re-synchronize: one parse_error, then the daemon hangs up.
    c.sendRaw(std::string(serve::kMaxRequestBytes + 1, 'x'));
    std::optional<JsonValue> long_line = c.read();
    ASSERT_TRUE(long_line.has_value());
    EXPECT_EQ(long_line->at("event").asString(), "error");
    EXPECT_EQ(long_line->at("code").asString(), "parse_error");
    EXPECT_FALSE(c.readLine().has_value());
    EXPECT_TRUE(c.closed());

    // Every other client is still served, old and new.
    other.send("{\"op\": \"ping\", \"id\": 1}");
    EXPECT_TRUE(other.readEvent("pong").has_value());
    Client late(h.socketPath());
    ASSERT_TRUE(late.ok());
    late.send("{\"op\": \"ping\", \"id\": 2}");
    EXPECT_TRUE(late.readEvent("pong").has_value());
}

TEST(ServeSocket, TooManyTilesIsABadRequestAndTheDaemonRunsOn)
{
    Harness h("tiles");
    ASSERT_TRUE(h.started());
    Client c(h.socketPath());
    ASSERT_TRUE(c.ok());

    // More tiles than a lane's int8_t owner can name: refused at
    // submit, before any machine is built.
    c.send(submitLine(1, "{\"type\": \"run\", \"options\": "
                         "{\"app\": \"pagerank\", \"scale\": 0.3, "
                         "\"tiles\": 300}}"));
    std::optional<JsonValue> bad = c.read();
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(bad->at("event").asString(), "error");
    EXPECT_EQ(bad->at("code").asString(), "bad_request");
    EXPECT_EQ(bad->at("id").asNumber(), 1);

    // A study job's own "tiles" member is held to the same cap.
    c.send(submitLine(2, "{\"type\": \"study\", \"study\": "
                         "\"table10\", \"tiles\": 300}"));
    bad = c.read();
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(bad->at("event").asString(), "error");
    EXPECT_EQ(bad->at("code").asString(), "bad_request");
    EXPECT_EQ(bad->at("id").asNumber(), 2);

    // A queue deeper than the SpMU's 64 ring positions is refused the
    // same way.
    c.send(submitLine(3, "{\"type\": \"run\", \"options\": "
                         "{\"app\": \"spmv\", \"scale\": 0.3, "
                         "\"queue-depth\": 65}}"));
    bad = c.read();
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(bad->at("event").asString(), "error");
    EXPECT_EQ(bad->at("code").asString(), "bad_request");
    EXPECT_EQ(bad->at("id").asNumber(), 3);

    // The daemon is alive and still runs a valid job to its result.
    c.send(submitLine(4, kQuickRunJob));
    std::optional<JsonValue> result = c.readEvent("result");
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->at("ok").asBool());
}

TEST(ServeSocket, RunJobStreamsEventsAndMatchesCliBytes)
{
    Harness h("run");
    ASSERT_TRUE(h.started());
    Client c(h.socketPath());
    ASSERT_TRUE(c.ok());

    c.send(submitLine(1, kQuickRunJob));
    std::optional<JsonValue> accepted = c.readEvent("accepted");
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(accepted->at("id").asNumber(), 1);
    std::int64_t job_id =
        static_cast<std::int64_t>(accepted->at("job_id").asNumber());

    std::optional<JsonValue> started = c.readEvent("started");
    ASSERT_TRUE(started.has_value());
    EXPECT_EQ(started->at("job_id").asNumber(), job_id);

    std::optional<JsonValue> progress = c.readEvent("progress");
    ASSERT_TRUE(progress.has_value());
    EXPECT_EQ(progress->at("done").asNumber(), 1);
    EXPECT_EQ(progress->at("total").asNumber(), 1);
    EXPECT_EQ(progress->at("app").asString(), "spmv");
    EXPECT_TRUE(progress->at("ok").asBool());

    std::optional<std::string> result_line;
    while (true) {
        std::optional<std::string> line = c.readLine();
        ASSERT_TRUE(line.has_value());
        JsonValue doc = JsonValue::parse(*line);
        if (doc.at("event").asString() == "result") {
            EXPECT_TRUE(doc.at("ok").asBool());
            EXPECT_EQ(doc.at("job_id").asNumber(), job_id);
            result_line = line;
            break;
        }
    }

    // Byte-identity: the result line ends with `"stats":<exactly the
    // document capstan-run --json --compact would print>}`.
    driver::DriverOptions opts;
    ASSERT_EQ(driver::applyOption(opts, "app", "spmv"), "");
    ASSERT_EQ(driver::applyOption(opts, "config", "capstan"), "");
    ASSERT_EQ(driver::applyOption(opts, "scale", "0.02"), "");
    ASSERT_EQ(driver::applyOption(opts, "tiles", "4"), "");
    ASSERT_EQ(driver::applyOption(opts, "iterations", "1"), "");
    std::string expected =
        "\"stats\":" +
        driver::statsToJson(driver::runDriver(opts)).dump() + "}";
    ASSERT_GE(result_line->size(), expected.size());
    EXPECT_EQ(result_line->substr(result_line->size() -
                                  expected.size()),
              expected);
}

TEST(ServeSocket, QueueFullRejectsAndCancelInterruptsRunningSweep)
{
    Harness h("queue", /*queue_capacity=*/1);
    ASSERT_TRUE(h.started());
    Client c(h.socketPath());
    ASSERT_TRUE(c.ok());

    // Job 1: a slow sweep. Wait until the executor owns it, so the
    // queue is empty and admission below is deterministic.
    c.send(submitLine(1, kSlowSweepJob));
    std::optional<JsonValue> accepted = c.readEvent("accepted");
    ASSERT_TRUE(accepted.has_value());
    std::int64_t sweep_id =
        static_cast<std::int64_t>(accepted->at("job_id").asNumber());
    ASSERT_TRUE(c.readEvent("started").has_value());

    // Job 2 occupies the single queue slot; job 3 must be rejected
    // with the structured queue-full error.
    c.send(submitLine(2, kQuickRunJob));
    std::optional<JsonValue> queued = c.readEvent("accepted");
    ASSERT_TRUE(queued.has_value());
    EXPECT_EQ(queued->at("id").asNumber(), 2);
    EXPECT_EQ(queued->at("queue_depth").asNumber(), 1);

    c.send(submitLine(3, kQuickRunJob));
    std::optional<JsonValue> rejected = c.readEvent("rejected");
    ASSERT_TRUE(rejected.has_value());
    EXPECT_EQ(rejected->at("id").asNumber(), 3);
    EXPECT_EQ(rejected->at("code").asString(), "queue_full");
    ASSERT_TRUE(rejected->contains("message"));

    // Cancel the running sweep: unfinished points come back skipped
    // and the job's result event is an interrupted partial report.
    c.send("{\"op\": \"cancel\", \"id\": 4, \"job_id\": " +
           std::to_string(sweep_id) + "}");
    std::optional<JsonValue> cancelled = c.readEvent("cancelled");
    ASSERT_TRUE(cancelled.has_value());
    EXPECT_EQ(cancelled->at("state").asString(), "running");

    std::optional<JsonValue> result = c.readEvent("result");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->at("job_id").asNumber(), sweep_id);
    EXPECT_FALSE(result->at("ok").asBool());
    ASSERT_TRUE(result->contains("interrupted"));
    EXPECT_TRUE(result->at("interrupted").asBool());
    const JsonValue &meta = result->at("stats").at("sweep");
    ASSERT_TRUE(meta.contains("interrupted"));
    EXPECT_TRUE(meta.at("interrupted").asBool());

    // The daemon survived the cancellation: job 2 still runs to a
    // successful result, and the connection still answers pings.
    std::optional<JsonValue> second = c.readEvent("result");
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(second->at("ok").asBool());

    c.send("{\"op\": \"ping\", \"id\": 9}");
    std::optional<JsonValue> pong = c.readEvent("pong");
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->at("id").asNumber(), 9);

    // Both admitted jobs have finished; an id never admitted is unknown.
    const std::int64_t second_id =
        static_cast<std::int64_t>(second->at("job_id").asNumber());
    for (std::int64_t job_id : {sweep_id, second_id, second_id + 1,
                                std::int64_t{0}}) {
        c.send("{\"op\": \"cancel\", \"id\": 11, \"job_id\": " +
               std::to_string(job_id) + "}");
        std::optional<JsonValue> reply = c.readEvent("cancelled");
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->at("state").asString(),
                  job_id == sweep_id || job_id == second_id ? "finished"
                                                            : "unknown")
            << "job " << job_id;
    }

    c.send("{\"op\": \"stats\", \"id\": 10}");
    std::optional<JsonValue> stats = c.readEvent("stats");
    ASSERT_TRUE(stats.has_value());
    EXPECT_GE(stats->at("jobs").at("rejected").asNumber(), 1);
    EXPECT_GE(stats->at("jobs").at("cancelled").asNumber(), 1);
    EXPECT_GE(stats->at("jobs").at("interrupted").asNumber(), 1);
    EXPECT_EQ(stats->at("queue").at("capacity").asNumber(), 1);
}

TEST(ServeSocket, ConcurrentClientsShareOneWarmCache)
{
    Harness h("cache");
    ASSERT_TRUE(h.started());
    Client a(h.socketPath());
    Client b(h.socketPath());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());

    a.send("{\"op\": \"stats\", \"id\": 1}");
    std::optional<JsonValue> before = a.readEvent("stats");
    ASSERT_TRUE(before.has_value());
    double hits_before =
        before->at("dataset_cache").at("hits").asNumber();
    double done_before = before->at("jobs").at("completed").asNumber();

    // Both clients request the same dataset; the single engine's
    // generate-once cache means at most one generation between them.
    a.send(submitLine(2, kQuickRunJob));
    b.send(submitLine(3, kQuickRunJob));
    std::optional<JsonValue> ra = a.readEvent("result");
    std::optional<JsonValue> rb = b.readEvent("result");
    ASSERT_TRUE(ra.has_value());
    ASSERT_TRUE(rb.has_value());
    EXPECT_TRUE(ra->at("ok").asBool());
    EXPECT_TRUE(rb->at("ok").asBool());

    // And byte-identity holds across clients: identical jobs produce
    // identical stats bytes.
    std::string da = ra->at("stats").dump();
    std::string db = rb->at("stats").dump();
    EXPECT_EQ(da, db);

    b.send("{\"op\": \"stats\", \"id\": 4}");
    std::optional<JsonValue> after = b.readEvent("stats");
    ASSERT_TRUE(after.has_value());
    EXPECT_GE(after->at("dataset_cache").at("hits").asNumber(),
              hits_before + 1);
    EXPECT_EQ(after->at("jobs").at("completed").asNumber(),
              done_before + 2);
}

/** Open file descriptors of this process. */
int
openFds()
{
    namespace fs = std::filesystem;
    return static_cast<int>(std::distance(
        fs::directory_iterator("/proc/self/fd"), fs::directory_iterator()));
}

TEST(ServeSocket, ClosedConnectionsReleaseTheirFds)
{
    Harness h("churn");
    ASSERT_TRUE(h.started());
    const int before = openFds();
    for (int i = 0; i < 200; ++i) {
        Client c(h.socketPath());
        ASSERT_TRUE(c.ok()) << "client " << i;
        c.send("{\"op\": \"ping\", \"id\": " + std::to_string(i) + "}");
        ASSERT_TRUE(c.readEvent("pong").has_value()) << "client " << i;
    }
    // The accept loop reaps ended connections once per poll tick; allow
    // it 100 slices of 100 ms.
    int after = openFds();
    for (int slice = 0; slice < 100 && after != before; ++slice) {
        ::poll(nullptr, 0, 100);
        after = openFds();
    }
    EXPECT_EQ(after, before);
}

TEST(ServeSocket, ShutdownOpDrainsQueuedJobsThenExits)
{
    Harness h("shutdown");
    ASSERT_TRUE(h.started());
    Client c(h.socketPath());
    ASSERT_TRUE(c.ok());

    // Submit, then immediately ask for shutdown: the accepted job is
    // drained to a full result before the daemon exits.
    c.send(submitLine(1, kQuickRunJob));
    c.send("{\"op\": \"shutdown\", \"id\": 2}");

    bool saw_result = false;
    bool saw_shutdown = false;
    while (true) {
        std::optional<JsonValue> doc = c.read();
        if (!doc)
            break; // EOF: the daemon closed the connection.
        const std::string &event = doc->at("event").asString();
        if (event == "result") {
            EXPECT_TRUE(doc->at("ok").asBool());
            saw_result = true;
        } else if (event == "shutdown") {
            saw_shutdown = true;
        }
    }
    EXPECT_TRUE(saw_result);
    EXPECT_TRUE(saw_shutdown);
    h.joinAcceptor(); // run() must return: the drain completed.

    // New submissions after the drain cannot connect.
    Client late(h.socketPath());
    EXPECT_FALSE(late.ok());
}

} // namespace
