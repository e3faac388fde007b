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

} // namespace capstan::apps
