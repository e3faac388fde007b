#include "sim/allocator.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace capstan::sim {

SeparableAllocator::SeparableAllocator(int lanes, int banks, int iterations)
    : lanes_(lanes), iterations_(iterations),
      bank_mask_(banks >= 32 ? ~std::uint32_t{0}
                             : (std::uint32_t{1} << banks) - 1)
{
    CAPSTAN_CHECK(lanes > 0 && lanes <= kMaxVirtualLanes,
                  "lane count outside the grant bitmask");
    CAPSTAN_CHECK(banks > 0 && banks <= 32,
                  "bank count outside the taken bitmask");
    CAPSTAN_CHECK(iterations > 0);
}

AllocResult
SeparableAllocator::allocate(std::span<const RequestMatrix> iter_requests) const
{
    CAPSTAN_DCHECK(!iter_requests.empty());
    AllocResult result;
    const int last = static_cast<int>(iter_requests.size()) - 1;
    // Only a lane that requests a bank in some matrix can be granted.
    // The matrices need not be nested, so the union is over all of them.
    RequestMatrix any{};
    for (const RequestMatrix &req : iter_requests) {
        for (int l = 0; l < kMaxVirtualLanes; ++l)
            any[l] |= req[l];
    }
    std::uint32_t requesting = 0;
    for (int l = 0; l < lanes_; ++l)
        requesting |= std::uint32_t{any[l] != 0} << l;
    std::uint32_t granted = 0;
    std::uint32_t taken_banks = 0;

    for (int iter = 0; iter < iterations_; ++iter) {
        const RequestMatrix &req = iter_requests[std::min(iter, last)];
        const std::uint32_t granted_before = granted;

        // Both arbiter stages in one ascending pass over the ungranted
        // requesting lanes, with no data-dependent branch. Stage 1: a
        // lane bids for its lowest requested bank that was free when
        // the iteration started. Stage 2: a bank accepts its
        // lowest-index bidder, which in ascending order is the first. A
        // bid at or above `banks` is never granted; it still occupies
        // the lane's bid for this iteration.
        const std::uint32_t free_banks = bank_mask_ & ~taken_banks;
        std::uint32_t unwon = free_banks;
        for (std::uint32_t todo = requesting & ~granted_before; todo != 0;
             todo &= todo - 1) {
            int l = std::countr_zero(todo);
            std::uint32_t avail = req[l] & ~taken_banks;
            std::uint32_t bid = avail & (~avail + 1); // Lowest set bit.
            std::uint32_t win = bid & unwon;
            unwon ^= win;
            // A lost bid writes 32 | -1, the -1 of "no grant".
            result.bank_for_lane[l] =
                std::countr_zero(std::uint64_t{win} | std::uint64_t{1} << 32) |
                -static_cast<int>(win == 0);
            granted |= std::uint32_t{win != 0} << l;
        }
        taken_banks |= free_banks ^ unwon;

        // Nothing is left to grant once every requesting lane holds a
        // grant or every bank is taken. A zero-grant iteration over the
        // final request matrix is a fixed point: later iterations see
        // the same requests and the same taken/granted state, so they
        // grant nothing either.
        if (granted == requesting || taken_banks == bank_mask_ ||
            (granted == granted_before && iter >= last)) {
            break;
        }
    }
    result.granted = granted;
    result.grant_count = std::popcount(granted);
    // Each lane bids once and each bank accepts once per iteration,
    // so grants can never exceed either resource.
    CAPSTAN_DCHECK(result.grant_count <= lanes_ &&
                   result.grant_count <= std::popcount(bank_mask_));
    return result;
}

} // namespace capstan::sim
