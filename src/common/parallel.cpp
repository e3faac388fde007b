#include "common/parallel.hpp"

#include "common/check.hpp"

#include <algorithm>

namespace capstan::common {

std::pair<int, int> WorkerPool::chunk(int n, int workers, int w)
{
    const int base = n / workers;
    const int rem = n % workers;
    const int begin = w * base + std::min(w, rem);
    const int end = begin + base + (w < rem ? 1 : 0);
    return {begin, end};
}

WorkerPool::WorkerPool(int workers) : workers_(workers)
{
    CAPSTAN_CHECK(workers >= 2,
                  "WorkerPool below two workers is pointless; run serially");
    threads_.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) {
        threads_.emplace_back([this, w] { workerMain(w); });
    }
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    job_cv_.notify_all();
    for (auto &t : threads_) {
        t.join();
    }
}

void WorkerPool::dispatch(int n, Thunk fn, void *ctx)
{
    {
        std::lock_guard<std::mutex> lk(m_);
        job_fn_ = fn;
        job_ctx_ = ctx;
        job_n_ = n;
        pending_ = workers_ - 1;
        ++epoch_;
    }
    job_cv_.notify_all();

    const auto [begin, end] = chunk(n, workers_, 0);
    fn(ctx, begin, end, 0);

    // Each helper decrements pending_ under m_ after its chunk, so
    // taking the lock here makes every helper write visible.
    std::unique_lock<std::mutex> lk(m_);
    done_cv_.wait(lk, [&] { return pending_ == 0; });
}

void WorkerPool::workerMain(int w)
{
    std::uint64_t seen = 0;
    for (;;) {
        Thunk fn = nullptr;
        void *ctx = nullptr;
        int n = 0;
        {
            std::unique_lock<std::mutex> lk(m_);
            job_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
            if (stop_) {
                return;
            }
            seen = epoch_;
            fn = job_fn_;
            ctx = job_ctx_;
            n = job_n_;
        }
        const auto [begin, end] = chunk(n, workers_, w);
        fn(ctx, begin, end, w);
        bool last = false;
        {
            std::lock_guard<std::mutex> lk(m_);
            last = --pending_ == 0;
        }
        if (last) {
            done_cv_.notify_one();
        }
    }
}

} // namespace capstan::common
