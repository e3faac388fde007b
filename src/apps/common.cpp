#include "apps/common.hpp"

#include <algorithm>

#include "sim/compression.hpp"

namespace capstan::apps {

double
streamCompressionRatio(std::span<const Index> pointers,
                       double pointer_fraction)
{
    if (pointers.empty() || pointer_fraction <= 0.0)
        return 1.0;
    double ptr_ratio = sim::compressPointerStream(pointers).ratio();
    // Amdahl over the byte mix: pointers shrink, values do not.
    double effective =
        1.0 / (pointer_fraction / ptr_ratio + (1.0 - pointer_fraction));
    return std::max(1.0, effective);
}

TokenStream
laneChunks(Index count, std::uint32_t bytes_per_lane, bool close_group)
{
    for (Index base = 0; base < count; base += sim::kMaxLanes) {
        int lanes = chunkLanes(count, base);
        Token tok = Token::compute(lanes);
        tok.bytes = bytes_per_lane * static_cast<std::uint32_t>(lanes);
        tok.end_group = close_group && base + lanes >= count;
        co_yield tok;
    }
}

TokenStream
dramBursts(Index64 bytes)
{
    while (bytes > 0) {
        Token tok = Token::compute(sim::kMaxLanes);
        tok.bytes = static_cast<std::uint32_t>(
            std::min<Index64>(bytes, 4096));
        bytes -= tok.bytes;
        co_yield tok;
    }
}

} // namespace capstan::apps
