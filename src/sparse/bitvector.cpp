#include "sparse/bitvector.hpp"

#include <bit>

#include "common/check.hpp"

namespace capstan::sparse {

namespace {

constexpr Index kWordBits = 64;

Index
wordCount(Index bits)
{
    return (bits + kWordBits - 1) / kWordBits;
}

} // namespace

BitVector::BitVector(Index size)
    : size_(size), words_(wordCount(size), 0)
{
    CAPSTAN_CHECK(size >= 0);
}

bool
BitVector::test(Index pos) const
{
    CAPSTAN_DCHECK(pos >= 0 && pos < size_);
    return (words_[pos / kWordBits] >> (pos % kWordBits)) & 1;
}

void
BitVector::set(Index pos)
{
    CAPSTAN_DCHECK(pos >= 0 && pos < size_);
    words_[pos / kWordBits] |= std::uint64_t{1} << (pos % kWordBits);
}

Index
BitVector::count() const
{
    Index total = 0;
    for (std::uint64_t w : words_)
        total += std::popcount(w);
    return total;
}

Index
BitVector::rank(Index pos) const
{
    CAPSTAN_DCHECK(pos >= 0 && pos <= size_);
    return countRange(0, pos);
}

Index
BitVector::countRange(Index begin, Index end) const
{
    CAPSTAN_DCHECK(begin >= 0 && begin <= end && end <= size_);
    if (begin == end)
        return 0;
    // Mask the partial edge words; count the interior words whole.
    Index first = begin / kWordBits;
    Index last = (end - 1) / kWordBits;
    std::uint64_t head = ~std::uint64_t{0} << (begin % kWordBits);
    std::uint64_t tail = ~std::uint64_t{0} >> (63 - (end - 1) % kWordBits);
    if (first == last)
        return std::popcount(words_[first] & head & tail);
    Index total = std::popcount(words_[first] & head);
    for (Index wi = first + 1; wi < last; ++wi)
        total += std::popcount(words_[wi]);
    return total + std::popcount(words_[last] & tail);
}

Index
BitVector::nextSet(Index pos) const
{
    if (pos < 0)
        pos = 0;
    if (pos >= size_)
        return kNoIndex;
    Index wi = pos / kWordBits;
    std::uint64_t w = words_[wi] >> (pos % kWordBits);
    if (w != 0)
        return pos + std::countr_zero(w);
    for (++wi; wi < static_cast<Index>(words_.size()); ++wi) {
        if (words_[wi] != 0)
            return wi * kWordBits + std::countr_zero(words_[wi]);
    }
    return kNoIndex;
}

std::vector<Index>
BitVector::toPositions() const
{
    std::vector<Index> out;
    out.reserve(count());
    for (Index pos = nextSet(0); pos != kNoIndex; pos = nextSet(pos + 1))
        out.push_back(pos);
    return out;
}

BitVector
BitVector::operator&(const BitVector &other) const
{
    CAPSTAN_DCHECK(size_ == other.size_);
    BitVector out(size_);
    for (std::size_t i = 0; i < words_.size(); ++i)
        out.words_[i] = words_[i] & other.words_[i];
    return out;
}

BitVector
BitVector::operator|(const BitVector &other) const
{
    CAPSTAN_DCHECK(size_ == other.size_);
    BitVector out(size_);
    for (std::size_t i = 0; i < words_.size(); ++i)
        out.words_[i] = words_[i] | other.words_[i];
    return out;
}

std::uint64_t
BitVector::window64(Index pos) const
{
    CAPSTAN_DCHECK(pos >= 0);
    if (pos >= size_)
        return 0;
    Index wi = pos / kWordBits;
    Index shift = pos % kWordBits;
    std::uint64_t lo = words_[wi] >> shift;
    if (shift != 0 && wi + 1 < static_cast<Index>(words_.size()))
        lo |= words_[wi + 1] << (kWordBits - shift);
    return lo;
}

} // namespace capstan::sparse
