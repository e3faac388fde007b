/**
 * @file
 * Token streams for the machine tests: a vector of tokens, and the
 * lowering of a bit-vector's scanner-window populations into scan
 * tokens.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "lang/token_stream.hpp"
#include "sim/config.hpp"

namespace capstan::test {

/** @p tokens in order; the vector moves into the stream's frame. */
inline lang::TokenStream
tokenStream(std::vector<lang::Token> tokens)
{
    for (const lang::Token &token : tokens)
        co_yield token;
}

/** @p n copies of @p token. */
inline lang::TokenStream
repeated(const lang::Token &token, int n)
{
    return tokenStream(std::vector<lang::Token>(n, token));
}

/**
 * Scan tokens for a bit-vector with @p window_pops set bits per scanner
 * window: each window's bits in 16-lane body tokens, the first carrying
 * the all-zero windows before it (the Scan stage burns one cycle per
 * empty window), and @p bytes_per_window DRAM bytes per window riding on
 * the next token. Trailing empty windows (or trailing bytes) become one
 * token with no live lanes.
 */
inline lang::TokenStream
scanWindows(std::vector<Index> window_pops,
            std::uint32_t bytes_per_window = 0)
{
    std::int32_t empty_run = 0;
    std::uint32_t pending_bytes = 0;
    for (Index pop : window_pops) {
        pending_bytes += bytes_per_window;
        if (pop <= 0) {
            ++empty_run;
            continue;
        }
        for (Index remaining = pop; remaining > 0;) {
            int v = static_cast<int>(
                std::min<Index>(remaining, sim::kMaxLanes));
            lang::Token t = lang::Token::compute(v);
            t.scan_skip = empty_run;
            t.bytes = pending_bytes;
            pending_bytes = 0;
            empty_run = 0;
            co_yield t;
            remaining -= v;
        }
    }
    if (empty_run > 0 || pending_bytes > 0) {
        lang::Token t;
        t.valid_mask = 0;
        t.scan_skip = empty_run;
        t.bytes = pending_bytes;
        co_yield t;
    }
}

} // namespace capstan::test
