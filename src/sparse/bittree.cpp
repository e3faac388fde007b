#include "sparse/bittree.hpp"


#include "common/check.hpp"

namespace capstan::sparse {

BitTree::BitTree(Index size, Index leaf_bits)
    : size_(size),
      leaf_bits_(leaf_bits),
      top_((size + leaf_bits - 1) / leaf_bits)
{
    CAPSTAN_CHECK(size >= 0 && leaf_bits > 0);
}

BitTree
BitTree::fromBitVector(const BitVector &bv, Index leaf_bits)
{
    return fromPositions(bv.size(), bv.toPositions(), leaf_bits);
}

BitTree
BitTree::fromPositions(Index size, const std::vector<Index> &positions,
                       Index leaf_bits)
{
    BitTree tree(size, leaf_bits);
    for (Index pos : positions)
        tree.set(pos);
    return tree;
}

void
BitTree::set(Index pos)
{
    CAPSTAN_DCHECK(pos >= 0 && pos < size_);
    Index slot = pos / leaf_bits_;
    Index within = pos % leaf_bits_;
    if (!top_.test(slot)) {
        // Materialize the leaf at its compressed position.
        Index insert_at = top_.rank(slot);
        top_.set(slot);
        leaves_.insert(leaves_.begin() + insert_at, BitVector(leaf_bits_));
    }
    leaves_[top_.rank(slot)].set(within);
}

bool
BitTree::test(Index pos) const
{
    CAPSTAN_DCHECK(pos >= 0 && pos < size_);
    Index slot = pos / leaf_bits_;
    if (!top_.test(slot))
        return false;
    return leaves_[top_.rank(slot)].test(pos % leaf_bits_);
}

Index
BitTree::count() const
{
    Index total = 0;
    for (const BitVector &leaf : leaves_)
        total += leaf.count();
    return total;
}

const BitVector &
BitTree::leaf(Index leaf_slot) const
{
    CAPSTAN_DCHECK(leaf_slot >= 0 &&
           leaf_slot < static_cast<Index>(leaves_.size()));
    return leaves_[leaf_slot];
}

BitVector
BitTree::toBitVector() const
{
    BitVector out(size_);
    for (Index pos : toPositions())
        out.set(pos);
    return out;
}

std::vector<Index>
BitTree::toPositions() const
{
    std::vector<Index> out;
    out.reserve(count());
    // Running rank over the ascending slot walk: every set top slot
    // owns the next compressed leaf, so the leaf index just counts up.
    Index leaf_idx = 0;
    for (Index slot = top_.nextSet(0); slot != kNoIndex;
         slot = top_.nextSet(slot + 1), ++leaf_idx) {
        const BitVector &lf = leaves_[leaf_idx];
        for (Index p : lf.toPositions())
            out.push_back(slot * leaf_bits_ + p);
    }
    return out;
}

Index64
BitTree::storageBytes() const
{
    Index64 total = top_.storageBytes();
    for (const BitVector &leaf : leaves_)
        total += leaf.storageBytes();
    return total;
}

std::vector<AlignedLeafPair>
alignUnion(const BitTree &a, const BitTree &b)
{
    CAPSTAN_DCHECK(a.size() == b.size() && a.leafBits() == b.leafBits());
    const BitVector &ta = a.topLevel();
    const BitVector &tb = b.topLevel();
    BitVector merged = ta | tb;

    std::vector<AlignedLeafPair> out;
    out.reserve(merged.count());
    // Running ranks via countRange over the gap since the previous
    // slot keep the walk linear (rank() rescans the whole prefix).
    Index rank_a = 0;
    Index rank_b = 0;
    Index prev = 0;
    for (Index slot = merged.nextSet(0); slot != kNoIndex;
         slot = merged.nextSet(slot + 1)) {
        rank_a += ta.countRange(prev, slot);
        rank_b += tb.countRange(prev, slot);
        prev = slot;
        AlignedLeafPair pair;
        pair.top_slot = slot;
        pair.leaf_a = ta.test(slot) ? rank_a : kNoIndex;
        pair.leaf_b = tb.test(slot) ? rank_b : kNoIndex;
        out.push_back(pair);
    }
    return out;
}

} // namespace capstan::sparse
