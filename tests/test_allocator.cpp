/**
 * @file
 * Tests for the separable bank allocator (Section 3.1.1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <span>
#include <vector>

#include "sim/allocator.hpp"

using namespace capstan::sim;

namespace {

RequestMatrix
emptyMatrix()
{
    RequestMatrix m{};
    m.fill(0);
    return m;
}

/**
 * Reference model: the allocator written as its two arbiter stages.
 * Stage 1: every ungranted lane picks its lowest requested bank still
 * free at the start of the iteration. Stage 2: every bank accepts its
 * lowest-index chooser; a choice at or above `banks` is never granted.
 */
AllocResult
twoStageReference(int lanes, int banks, int iterations,
                  const std::vector<RequestMatrix> &iter_requests)
{
    AllocResult result;
    std::uint32_t taken_banks = 0;
    std::uint32_t granted_lanes = 0;
    for (int iter = 0; iter < iterations; ++iter) {
        const RequestMatrix &req = iter_requests[std::min<std::size_t>(
            iter, iter_requests.size() - 1)];
        int grants_before = result.grant_count;
        std::array<int, kMaxVirtualLanes> choice;
        choice.fill(-1);
        for (int l = 0; l < lanes; ++l) {
            if (granted_lanes & (1u << l))
                continue;
            std::uint32_t avail = req[l] & ~taken_banks;
            if (avail != 0)
                choice[l] = std::countr_zero(avail);
        }
        std::array<int, 32> bank_winner;
        bank_winner.fill(-1);
        for (int l = 0; l < lanes; ++l) {
            if (choice[l] >= 0 && bank_winner[choice[l]] < 0)
                bank_winner[choice[l]] = l;
        }
        for (int b = 0; b < banks; ++b) {
            int l = bank_winner[b];
            if (l < 0)
                continue;
            result.bank_for_lane[l] = b;
            ++result.grant_count;
            taken_banks |= 1u << b;
            granted_lanes |= 1u << l;
        }
        if (result.grant_count == grants_before &&
            iter + 1 >= static_cast<int>(iter_requests.size())) {
            break;
        }
    }
    return result;
}

/** A random request word: sparse, dense, or confined to the banks. */
std::uint32_t
randomRequest(std::mt19937 &rng, int banks)
{
    std::uint32_t bits = 0;
    switch (rng() % 4) {
      case 0: // Sparse over all 32 bits, including ones >= banks.
        for (int b = 0; b < 32; ++b)
            bits |= (rng() % 10 == 0 ? 1u : 0u) << b;
        return bits;
      case 1: // Dense over all 32 bits.
        return static_cast<std::uint32_t>(rng()) |
               static_cast<std::uint32_t>(rng());
      case 2: // Dense within the bank range.
        bits = static_cast<std::uint32_t>(rng());
        return banks >= 32 ? bits : bits & ((1u << banks) - 1);
      default: // One bank, sometimes out of range.
        return rng() % 8 == 0 ? 0u : 1u << (rng() % 32);
    }
}

} // namespace

TEST(Allocator, GrantsAreConflictFree)
{
    SeparableAllocator alloc(16, 16, 3);
    RequestMatrix m = emptyMatrix();
    // Everyone wants bank 0 and their own bank.
    for (int l = 0; l < 16; ++l)
        m[l] = (1u << 0) | (1u << l);
    AllocResult res = alloc.allocate(std::span(&m, 1));
    std::uint32_t banks_seen = 0;
    int grants = 0;
    for (int l = 0; l < 16; ++l) {
        int b = res.bank_for_lane[l];
        if (b < 0)
            continue;
        EXPECT_TRUE(m[l] & (1u << b)) << "grant must match a request";
        EXPECT_FALSE(banks_seen & (1u << b)) << "bank granted twice";
        banks_seen |= 1u << b;
        ++grants;
    }
    EXPECT_EQ(grants, res.grant_count);
    // Lane 0 only wants bank 0; every other lane can fall back to its
    // own bank, so the allocator should grant everyone.
    EXPECT_EQ(res.grant_count, 16);
}

TEST(Allocator, SingleIterationMissesSomeMatches)
{
    // Classic separable-allocator suboptimality: lanes 0 and 1 both
    // pick bank 0 in stage 1 (it is lane 1's lowest requested bank), so
    // lane 1 loses the stage-2 arbitration and sits idle in a single-
    // iteration design. A second iteration lets it claim bank 1.
    SeparableAllocator one_iter(2, 2, 1);
    SeparableAllocator three_iter(2, 2, 3);
    RequestMatrix m = emptyMatrix();
    m[0] = 0b01;
    m[1] = 0b11;
    AllocResult weak = one_iter.allocate(std::span(&m, 1));
    AllocResult full = three_iter.allocate(std::span(&m, 1));
    EXPECT_EQ(weak.grant_count, 1);
    EXPECT_EQ(full.grant_count, 2);
    EXPECT_EQ(full.bank_for_lane[0], 0);
    EXPECT_EQ(full.bank_for_lane[1], 1);
}

TEST(Allocator, LaterIterationsRespectEarlierGrants)
{
    SeparableAllocator alloc(4, 4, 3);
    RequestMatrix first = emptyMatrix();
    first[0] = 0b0001; // Iteration 0: only lane 0 bids (priority window).
    RequestMatrix rest = emptyMatrix();
    rest[0] = 0b0001;
    rest[1] = 0b0001; // Lane 1 also wants bank 0, appears later.
    rest[2] = 0b0100;
    AllocResult res = alloc.allocate(std::array{first, rest, rest});
    EXPECT_EQ(res.bank_for_lane[0], 0) << "older lane keeps its grant";
    EXPECT_EQ(res.bank_for_lane[1], -1) << "bank 0 already taken";
    EXPECT_EQ(res.bank_for_lane[2], 2);
    EXPECT_EQ(res.grant_count, 2);
}

TEST(Allocator, EmptyRequestsYieldNoGrants)
{
    SeparableAllocator alloc(16, 16, 3);
    RequestMatrix m = emptyMatrix();
    AllocResult res = alloc.allocate(std::span(&m, 1));
    EXPECT_EQ(res.grant_count, 0);
}

TEST(Allocator, FullPermutationIsPerfectlyMatched)
{
    SeparableAllocator alloc(16, 16, 3);
    RequestMatrix m = emptyMatrix();
    for (int l = 0; l < 16; ++l)
        m[l] = 1u << ((l + 5) % 16);
    AllocResult res = alloc.allocate(std::span(&m, 1));
    EXPECT_EQ(res.grant_count, 16);
}

/** Property: grants always form a partial matching, never exceed bids. */
TEST(AllocatorProperty, AlwaysAPartialMatching)
{
    std::mt19937 rng(77);
    SeparableAllocator alloc(16, 16, 3);
    for (int trial = 0; trial < 200; ++trial) {
        RequestMatrix m = emptyMatrix();
        for (int l = 0; l < 16; ++l)
            m[l] = rng() & 0xFFFF;
        AllocResult res = alloc.allocate(std::span(&m, 1));
        std::uint32_t banks = 0;
        for (int l = 0; l < 16; ++l) {
            int b = res.bank_for_lane[l];
            if (b < 0)
                continue;
            ASSERT_TRUE(m[l] & (1u << b));
            ASSERT_FALSE(banks & (1u << b));
            banks |= 1u << b;
        }
    }
}

/** Property: more iterations never reduce the matching size. */
TEST(AllocatorProperty, IterationsMonotonicallyImprove)
{
    std::mt19937 rng(101);
    SeparableAllocator a1(16, 16, 1);
    SeparableAllocator a2(16, 16, 2);
    SeparableAllocator a3(16, 16, 3);
    long total1 = 0, total2 = 0, total3 = 0;
    for (int trial = 0; trial < 300; ++trial) {
        RequestMatrix m = emptyMatrix();
        for (int l = 0; l < 16; ++l)
            m[l] = rng() & 0xFFFF;
        int g1 = a1.allocate(std::span(&m, 1)).grant_count;
        int g2 = a2.allocate(std::span(&m, 1)).grant_count;
        int g3 = a3.allocate(std::span(&m, 1)).grant_count;
        ASSERT_LE(g1, g2);
        ASSERT_LE(g2, g3);
        total1 += g1;
        total2 += g2;
        total3 += g3;
    }
    // On aggregate the extra iterations must add real value.
    EXPECT_LT(total1, total3);
    EXPECT_LT(total1, total2);
}

/**
 * Differential property: the allocator matches the two-stage reference
 * exactly over random shapes (lanes 1-32, banks 1-32, iterations 1-4,
 * 1-4 matrices) and random requests, including request bits at and
 * above the bank count and idle lanes past `lanes`.
 */
TEST(AllocatorProperty, MatchesTwoStageReference)
{
    std::mt19937 rng(20260417);
    constexpr int kCases = 120000;
    for (int c = 0; c < kCases; ++c) {
        int lanes = 1 + static_cast<int>(rng() % 32);
        int banks = 1 + static_cast<int>(rng() % 32);
        int iterations = 1 + static_cast<int>(rng() % 4);
        int n_mats = 1 + static_cast<int>(rng() % 4);
        bool expanding = rng() % 2 == 0;
        std::vector<RequestMatrix> mats(n_mats, emptyMatrix());
        for (int i = 0; i < n_mats; ++i) {
            if (expanding && i > 0)
                mats[i] = mats[i - 1];
            for (int l = 0; l < kMaxVirtualLanes; ++l) {
                if (rng() % 3 != 0)
                    mats[i][l] |= randomRequest(rng, banks);
            }
        }
        SeparableAllocator alloc(lanes, banks, iterations);
        AllocResult got = alloc.allocate(mats);
        AllocResult want = twoStageReference(lanes, banks, iterations, mats);
        ASSERT_EQ(got.grant_count, want.grant_count)
            << "case " << c << " lanes " << lanes << " banks " << banks;
        ASSERT_EQ(got.bank_for_lane, want.bank_for_lane)
            << "case " << c << " lanes " << lanes << " banks " << banks;
    }
}
