#include "sim/allocator.hpp"

#include <bit>

#include "common/check.hpp"

namespace capstan::sim {

SeparableAllocator::SeparableAllocator(int lanes, int banks, int iterations)
    : lanes_(lanes), banks_(banks), iterations_(iterations)
{
    CAPSTAN_CHECK(lanes > 0 && lanes <= kMaxVirtualLanes,
                  "lane count outside the grant bitmask");
    CAPSTAN_CHECK(banks > 0 && banks <= 32,
                  "bank count outside the taken bitmask");
    CAPSTAN_CHECK(iterations > 0);
}

AllocResult
SeparableAllocator::allocate(
    const std::vector<RequestMatrix> &iter_requests) const
{
    CAPSTAN_DCHECK(!iter_requests.empty());
    AllocResult result;
    std::uint32_t taken_banks = 0;
    std::uint32_t granted_lanes = 0;
    const std::uint32_t lane_mask =
        lanes_ >= 32 ? ~std::uint32_t{0}
                     : ((std::uint32_t{1} << lanes_) - 1);
    const std::uint32_t bank_mask =
        banks_ >= 32 ? ~std::uint32_t{0}
                     : ((std::uint32_t{1} << banks_) - 1);

    for (int iter = 0; iter < iterations_; ++iter) {
        const RequestMatrix &req =
            iter_requests[std::min<std::size_t>(iter,
                                                iter_requests.size() - 1)];
        int grants_before = result.grant_count;

        // Both arbiter stages in one ascending pass over the ungranted
        // lanes. Stage 1: a lane bids for its lowest requested bank
        // that was free when the iteration started. Stage 2: a bank
        // accepts its lowest-index bidder, which in ascending order is
        // the first. A bid at or above `banks` is never granted; it
        // still occupies the lane's bid for this iteration.
        std::uint32_t won = 0;
        forEachSetBit(lane_mask & ~granted_lanes, [&](int l) {
            std::uint32_t avail = req[l] & ~taken_banks;
            if (avail == 0)
                return;
            std::uint32_t bid = avail & (~avail + 1); // Lowest set bit.
            if ((bid & bank_mask & ~won) == 0)
                return;
            won |= bid;
            result.bank_for_lane[l] = std::countr_zero(bid);
            ++result.grant_count;
            granted_lanes |= std::uint32_t{1} << l;
        });
        taken_banks |= won;

        // A zero-grant iteration over the final request matrix is a
        // fixed point: later iterations see the same requests and the
        // same taken/granted state, so they grant nothing either.
        if (result.grant_count == grants_before &&
            iter + 1 >= static_cast<int>(iter_requests.size())) {
            break;
        }
    }
    // Each lane bids once and each bank accepts once per iteration,
    // so grants can never exceed either resource.
    CAPSTAN_DCHECK(result.grant_count <= lanes_ &&
                   result.grant_count <= banks_);
    return result;
}

} // namespace capstan::sim
