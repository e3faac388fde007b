/**
 * @file
 * Contract/assert layer: the project's two invariant-checking macros.
 *
 * `CAPSTAN_CHECK(cond, ...)` is *always on*, in every build type. Use
 * it at subsystem boundaries where a violated precondition would turn
 * into silent corruption of simulation results: the phase watchdog,
 * cache-header consistency, constructor parameter ranges. A failure
 * prints the expression, location, and optional message to stderr and
 * aborts — a reproduction that would produce wrong numbers must die
 * loudly, not publish them.
 *
 * `CAPSTAN_DCHECK(cond, ...)` compiles to nothing in plain Release
 * builds and is enabled (CAPSTAN_ENABLE_DCHECKS) in Debug and every
 * sanitizer preset. Use it for hot-path invariants — per-token queue
 * operations, per-cycle allocator postconditions — where an always-on
 * branch would tax the stepping engine that perf_smoke guards.
 *
 * Both accept an optional message after the condition:
 *
 *     CAPSTAN_CHECK(now_ - start <= max_cycles, "phase not draining");
 *     CAPSTAN_DCHECK(!empty());
 *
 * docs/STATIC_ANALYSIS.md documents when to reach for which.
 */

#pragma once

namespace capstan::common {

/** Print `expr` + location (+ optional message) to stderr and abort. */
[[noreturn]] void checkFailed(const char *expr, const char *file,
                              int line, const char *msg);

} // namespace capstan::common

#define CAPSTAN_CHECK(cond, ...)                                       \
    do {                                                               \
        if (!(cond)) [[unlikely]] {                                    \
            ::capstan::common::checkFailed(#cond, __FILE__, __LINE__,  \
                                           "" __VA_ARGS__);            \
        }                                                              \
    } while (false)

#if defined(CAPSTAN_ENABLE_DCHECKS)
#define CAPSTAN_DCHECK(cond, ...)                                      \
    CAPSTAN_CHECK(cond __VA_OPT__(, ) __VA_ARGS__)
#else
#define CAPSTAN_DCHECK(cond, ...)                                      \
    do {                                                               \
    } while (false)
#endif
