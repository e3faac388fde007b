/**
 * @file
 * Persistent worker pool behind the sweep engine (`--jobs`).
 *
 * `WorkerPool` owns `workers - 1` persistent host threads; the caller
 * participates as worker 0, so a pool of N uses exactly N cores while
 * a dispatch is in flight. `run(n, fn)` partitions the index range
 * [0, n) into `workers` *contiguous, statically sized* chunks — chunk
 * boundaries depend only on (n, workers, w), never on timing — and
 * blocks until every chunk has been processed. `driver::runSweep`
 * dispatches one slot per sweep worker, and each slot drains a shared
 * point-claim counter; the engine keeps one pool alive across jobs so
 * a daemon does not respawn threads per sweep.
 *
 * Determinism contract (docs/ARCHITECTURE.md "Threading model"):
 * workers may only write per-worker or per-index state, and any
 * reduction happens after `run` returns, on the calling thread.
 *
 * Dispatches are coarse (one per sweep or study), so helpers and the
 * caller simply wait on condition variables; all job state is guarded
 * by one mutex.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace capstan::common {

class WorkerPool {
public:
    /** Spawns `workers - 1` threads; requires workers >= 2. */
    explicit WorkerPool(int workers);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    int workers() const { return workers_; }

    /**
     * Contiguous chunk [begin, end) of [0, n) owned by worker w.
     * Purely arithmetic: the first `n % workers` chunks are one
     * element longer. Exposed so tests can pin the partition.
     */
    static std::pair<int, int> chunk(int n, int workers, int w);

    /**
     * Run `fn(begin, end, worker)` over the static partition of
     * [0, n). The calling thread executes chunk 0; helpers execute
     * the rest. Returns once all chunks are done, with every worker
     * write visible to the caller.
     */
    template <typename Fn>
    void run(int n, Fn &&fn)
    {
        if (n <= 0) {
            return;
        }
        Thunk thunk = [](void *ctx, int begin, int end, int w) {
            (*static_cast<std::remove_reference_t<Fn> *>(ctx))(begin, end,
                                                               w);
        };
        dispatch(n, thunk, &fn);
    }

private:
    using Thunk = void (*)(void *ctx, int begin, int end, int w);

    void dispatch(int n, Thunk fn, void *ctx);
    void workerMain(int w);

    int workers_;
    std::vector<std::thread> threads_;

    // Everything below is guarded by m_.
    std::mutex m_;
    std::condition_variable job_cv_;  //!< A job was published, or stop.
    std::condition_variable done_cv_; //!< pending_ reached zero.
    std::uint64_t epoch_ = 0;
    int pending_ = 0;
    bool stop_ = false;

    Thunk job_fn_ = nullptr;
    void *job_ctx_ = nullptr;
    int job_n_ = 0;
};

} // namespace capstan::common
