/**
 * @file
 * `capstan-serve` — the long-running job daemon (docs/SERVE_PROTOCOL.md).
 *
 * Front-end only: flags resolve to an engine::EngineConfig (the shared
 * execution environment) plus a serve::ServeConfig (socket + queue
 * capacity), and everything else lives in src/serve/. Runs until
 * SIGINT/SIGTERM or a `shutdown` op, then drains the queue and exits 0.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/interrupt.hpp"
#include "driver/options.hpp"
#include "engine/engine.hpp"
#include "serve/server.hpp"

namespace {

using namespace capstan;

const char *const kUsage =
    "usage: capstan-serve --socket PATH [options]\n"
    "\n"
    "Serve capstan jobs (runs, sweeps, report studies) over a local\n"
    "Unix socket, newline-delimited JSON both ways. One process keeps\n"
    "one warm dataset cache across every job; see docs/SERVE_PROTOCOL.md\n"
    "for the wire format.\n"
    "\n"
    "  --socket PATH           Unix socket to listen on (required)\n"
    "  --jobs N                sweep worker threads (0 = all cores;\n"
    "                          default: all cores)\n"
    "  --queue-capacity N      max waiting jobs before submissions\n"
    "                          are rejected (default: 8)\n"
    "  --dataset-dir DIR       real dataset directory (as capstan-run)\n"
    "  --reference PATH        paper reference for study --check\n"
    "  --help                  print this help\n";

int
usageError(const std::string &message)
{
    std::fprintf(stderr, "capstan-serve: %s\n%s", message.c_str(),
                 kUsage);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    engine::EngineConfig ecfg;
    ecfg.jobs = 0; // The daemon defaults to the full machine.
    serve::ServeConfig scfg;

    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&](std::string &out) {
            if (i + 1 >= args.size())
                return false;
            out = args[++i];
            return true;
        };
        std::string v;
        if (a == "--help" || a == "-h") {
            std::fputs(kUsage, stdout);
            return 0;
        } else if (a == "--socket") {
            if (!value(v))
                return usageError("--socket requires a path");
            scfg.socket_path = v;
        } else if (a == "--jobs") {
            if (!value(v) || !driver::parseJobs(v, ecfg.jobs))
                return usageError(
                    "--jobs requires an integer in [0, 4096]");
        } else if (a == "--queue-capacity") {
            if (!value(v) ||
                !driver::parseInt(v, scfg.queue_capacity) ||
                scfg.queue_capacity < 1)
                return usageError(
                    "--queue-capacity requires an integer >= 1");
        } else if (a == "--dataset-dir") {
            if (!value(v))
                return usageError(
                    "--dataset-dir requires a directory");
            ecfg.dataset_dir = v;
        } else if (a == "--reference") {
            if (!value(v))
                return usageError("--reference requires a path");
            ecfg.reference = v;
        } else {
            return usageError("unknown option '" + a + "'");
        }
    }
    if (scfg.socket_path.empty())
        return usageError("--socket is required");
    // Checked before the socket exists: a mistyped directory would
    // serve every Table 6 name from its synthetic stand-in.
    std::string dir_error = driver::datasetDirError(ecfg.dataset_dir);
    if (!dir_error.empty())
        return usageError(dir_error);

    engine::Engine engine(ecfg);
    serve::Server server(engine, scfg);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "capstan-serve: %s\n", error.c_str());
        return 1;
    }
    common::installInterruptHandlers();
    std::fprintf(stderr,
                 "capstan-serve: listening on %s (jobs=%d, "
                 "queue-capacity=%d)\n",
                 scfg.socket_path.c_str(), engine.jobs(),
                 scfg.queue_capacity);
    server.run();
    std::fprintf(stderr, "capstan-serve: drained, exiting\n");
    return 0;
}
