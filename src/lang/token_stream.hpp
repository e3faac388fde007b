/**
 * @file
 * A lazy producer of one tile's source tokens for one phase.
 *
 * An application writes each tile's phase input as a coroutine that
 * `co_yield`s Tokens, made by the PhaseSource it hands to
 * Machine::runPhase(). The machine pulls one token when it makes the
 * stream and one more each time its source stage consumes a token, so
 * a phase's tokens never exist all at once: token memory scales with
 * the pipeline's queues, not with the work fed.
 *
 * Lifetimes: a coroutine frame copies the stream function's parameters,
 * but not what a reference parameter (or a lambda's `[&]` capture)
 * points to. A stream may refer only to data that outlives the
 * Machine::runPhase() that drains it; data built for one phase (a
 * per-tile work list) moves in by value. Prefer named functions, or
 * captureless lambdas with explicit parameters.
 */

#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "lang/token.hpp"

namespace capstan::lang {

/** Move-only coroutine generator of Tokens. */
class TokenStream
{
  public:
    struct promise_type
    {
        /**
         * The yielded token: a local of the frame, or a temporary of the
         * co_yield expression, alive while the coroutine is suspended.
         */
        const Token *current = nullptr;
        std::exception_ptr error;

        TokenStream get_return_object()
        {
            return TokenStream(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        std::suspend_always yield_value(const Token &token) noexcept
        {
            current = &token;
            return {};
        }
        void return_void() noexcept {}
        void unhandled_exception() { error = std::current_exception(); }
    };

    /** An empty stream: it yields nothing. */
    TokenStream() = default;
    TokenStream(TokenStream &&other) noexcept
        : h_(std::exchange(other.h_, {}))
    {
    }
    TokenStream &operator=(TokenStream &&other) noexcept
    {
        if (this != &other) {
            reset();
            h_ = std::exchange(other.h_, {});
        }
        return *this;
    }
    TokenStream(const TokenStream &) = delete;
    TokenStream &operator=(const TokenStream &) = delete;
    /** Destroys an unfinished producer's frame (and its locals). */
    ~TokenStream() { reset(); }

    /** True until next() has reported the end or rethrown an error. */
    explicit operator bool() const { return static_cast<bool>(h_); }

    /**
     * Resume the producer. Returns the token it yields, valid until the
     * next call, or nullptr once it returns. When it returns or throws,
     * its frame is destroyed (the stream becomes empty) and its
     * exception is rethrown here.
     */
    const Token *next()
    {
        if (!h_)
            return nullptr;
        h_.resume();
        if (!h_.done())
            return h_.promise().current;
        std::exception_ptr error = std::move(h_.promise().error);
        reset();
        if (error)
            std::rethrow_exception(error);
        return nullptr;
    }

  private:
    using Handle = std::coroutine_handle<promise_type>;

    explicit TokenStream(Handle h) : h_(h) {}

    void reset()
    {
        if (h_)
            h_.destroy();
        h_ = {};
    }

    Handle h_;
};

} // namespace capstan::lang
