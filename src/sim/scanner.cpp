#include "sim/scanner.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace capstan::sim {

Cycle
ScannerModel::cyclesForWindow(Index popcount) const
{
    if (popcount <= 0)
        return 1;
    return (popcount + cfg_.outputs - 1) / cfg_.outputs;
}

ScanTiming
ScannerModel::scanRegion(const std::vector<Index> &window_popcounts) const
{
    ScanTiming t;
    for (Index p : window_popcounts) {
        Cycle c = cyclesForWindow(p);
        t.cycles += c;
        if (p <= 0) {
            t.empty_window_cycles += c;
        } else {
            t.output_vectors += c;
            t.outputs += p;
        }
    }
    return t;
}

namespace {

std::vector<Index>
windowPopcounts(const sparse::BitVector &combined, int window_bits)
{
    std::vector<Index> pops;
    Index size = combined.size();
    pops.reserve((size + window_bits - 1) / window_bits);
    for (Index base = 0; base < size; base += window_bits) {
        Index pop = 0;
        Index end = std::min<Index>(base + window_bits, size);
        // Count via 64-bit windows for speed.
        for (Index w = base; w < end; w += 64) {
            std::uint64_t bits = combined.window64(w);
            if (end - w < 64)
                bits &= (std::uint64_t{1} << (end - w)) - 1;
            pop += std::popcount(bits);
        }
        pops.push_back(pop);
    }
    return pops;
}

} // namespace

ScanTiming
ScannerModel::scanBitVectors(const sparse::BitVector &a,
                             const sparse::BitVector &b,
                             ScanMode mode) const
{
    CAPSTAN_DCHECK(a.size() == b.size());
    sparse::BitVector combined =
        (mode == ScanMode::Union) ? (a | b) : (a & b);
    return scanRegion(windowPopcounts(combined, cfg_.window_bits));
}

} // namespace capstan::sim
