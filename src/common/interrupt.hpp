/**
 * @file
 * Cooperative interruption and cancellation, shared by every entry
 * point.
 *
 * Two related mechanisms live here, both polled — never preemptive —
 * so the determinism contract holds (a run that is not interrupted is
 * byte-identical whether or not a handler is installed):
 *
 *  - *Process interrupts*: installInterruptHandlers() latches SIGINT /
 *    SIGTERM into an atomic flag instead of killing the process, so
 *    the CLIs can finish the current sweep point and flush a partial
 *    report marked `"interrupted": true` (the second signal restores
 *    the default disposition, so a stuck process can still be killed).
 *
 *  - *Cancel tokens*: a process-wide token slot the engine arms around
 *    each job (engine/engine.hpp). The sweep's claim loop polls it via
 *    cancelRequested() and stops claiming points; the Machine's step
 *    loop polls it via pollCancel() and unwinds with CancelledError,
 *    which is how `capstan-serve` aborts an in-flight simulation
 *    without tearing down the daemon. The slot holds one token at a
 *    time; jobs execute sequentially on the service's executor thread,
 *    so nesting never occurs.
 */

#pragma once

#include <atomic>
#include <stdexcept>
#include <string>

namespace capstan::common {

/** Thrown out of a step loop when the armed cancel token fires. */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Latch SIGINT/SIGTERM into interruptFlag() instead of terminating.
 * Idempotent; a second delivery of the same signal restores the
 * default disposition and re-raises, so repeated Ctrl-C still kills.
 */
void installInterruptHandlers();

/** True once SIGINT or SIGTERM was delivered. */
bool interruptRequested();

/** The latched flag itself, usable as a sweep/engine cancel token. */
std::atomic<bool> &interruptFlag();

/**
 * Arm (token != nullptr) or clear (nullptr) the process-wide cancel
 * token polled by pollCancel(). The caller keeps @p token alive until
 * the slot is cleared; ScopedCancelToken wraps the pairing.
 */
void setCancelToken(const std::atomic<bool> *token);

/** True when a token is armed and set. Never throws. */
bool cancelRequested();

/** Throw CancelledError when the armed token is set; else no-op. */
void pollCancel();

/** RAII arm/clear of the cancel token slot. */
class ScopedCancelToken
{
  public:
    explicit ScopedCancelToken(const std::atomic<bool> *token)
    {
        setCancelToken(token);
    }
    ~ScopedCancelToken() { setCancelToken(nullptr); }
    ScopedCancelToken(const ScopedCancelToken &) = delete;
    ScopedCancelToken &operator=(const ScopedCancelToken &) = delete;
};

} // namespace capstan::common
