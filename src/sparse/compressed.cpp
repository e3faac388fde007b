#include "sparse/compressed.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/check.hpp"

namespace capstan::sparse {

namespace {

/** Payload bytes (1..4) a delta value needs. */
inline int
varintBytes(std::uint32_t v)
{
    return 1 + (v > 0xFFu) + (v > 0xFFFFu) + (v > 0xFFFFFFu);
}

constexpr std::size_t kMaxPayload =
    std::numeric_limits<std::uint32_t>::max();

} // namespace

CompressedCsrMatrix
CompressedCsrMatrix::fromCsr(const CsrMatrix &m)
{
    CompressedCsrMatrix out;
    out.rows_ = m.rows();
    out.cols_ = m.cols();
    out.entry_offsets_ = m.rowPtr();
    if (out.entry_offsets_.empty())
        out.entry_offsets_.push_back(0); // Default-constructed input.
    out.values_ = m.values();
    out.byte_off_.reserve(m.rows() + 1);

    std::vector<Index> skip_counts(m.rows(), 0);
    std::uint64_t total_skips = 0;
    for (Index r = 0; r < m.rows(); ++r) {
        Index len = m.rowLength(r);
        if (len > kSkipInterval) {
            skip_counts[r] = (len - 1) / kSkipInterval;
            total_skips += static_cast<std::uint64_t>(skip_counts[r]);
        }
    }
    if (total_skips > 0) {
        out.skip_ptr_.reserve(m.rows() + 1);
        out.skip_ptr_.push_back(0);
        out.skip_prev_col_.reserve(total_skips);
        out.skip_byte_.reserve(total_skips);
    }

    for (Index r = 0; r < m.rows(); ++r) {
        out.byte_off_.push_back(
            static_cast<std::uint32_t>(out.payload_.size()));
        std::span<const Index> idx = m.rowIndices(r);
        Index len = static_cast<Index>(idx.size());
        for (Index g = 0; g < len; g += 4) {
            if (g > 0 && g % kSkipInterval == 0) {
                out.skip_prev_col_.push_back(idx[g - 1]);
                out.skip_byte_.push_back(
                    static_cast<std::uint32_t>(out.payload_.size()));
            }
            std::size_t ctrl_pos = out.payload_.size();
            out.payload_.push_back(0);
            int slots = static_cast<int>(std::min<Index>(4, len - g));
            for (int s = 0; s < slots; ++s) {
                Index i = g + s;
                std::uint32_t v =
                    i == 0 ? static_cast<std::uint32_t>(idx[0])
                           : static_cast<std::uint32_t>(idx[i] -
                                                        idx[i - 1] - 1);
                int nb = varintBytes(v);
                out.payload_[ctrl_pos] |= static_cast<std::uint8_t>(
                    (nb - 1) << (2 * s));
                for (int b = 0; b < nb; ++b)
                    out.payload_.push_back(
                        static_cast<std::uint8_t>(v >> (8 * b)));
            }
        }
        if (out.payload_.size() > kMaxPayload)
            throw std::invalid_argument(
                "CompressedCsrMatrix: encoded payload exceeds 32-bit "
                "offsets");
        if (!out.skip_ptr_.empty())
            out.skip_ptr_.push_back(
                static_cast<Index>(out.skip_prev_col_.size()));
    }
    out.byte_off_.push_back(
        static_cast<std::uint32_t>(out.payload_.size()));
    return out;
}

Index
CompressedCsrMatrix::decodeRow(Index r, Index *out) const
{
    Index len = entryCount(r);
    std::size_t pos = byte_off_[r];
    Index prev = 0;
    for (Index g = 0; g < len; g += 4) {
        std::uint8_t ctrl = payload_[pos++];
        int slots = static_cast<int>(std::min<Index>(4, len - g));
        for (int s = 0; s < slots; ++s) {
            int nb = 1 + ((ctrl >> (2 * s)) & 3);
            std::uint32_t v = 0;
            for (int b = 0; b < nb; ++b)
                v |= static_cast<std::uint32_t>(payload_[pos++])
                     << (8 * b);
            Index i = g + s;
            Index col = i == 0 ? static_cast<Index>(v)
                               : prev + 1 + static_cast<Index>(v);
            out[i] = col;
            prev = col;
        }
    }
    return len;
}

Value
CompressedCsrMatrix::at(Index r, Index c) const
{
    CAPSTAN_DCHECK(r >= 0 && r < rows_, "at(): row out of range");
    Index len = entryCount(r);
    if (len == 0)
        return 0;

    // Find the decode window: either the row start or the last skip
    // point whose predecessor column is still below c.
    Index base = 0;
    Index prev = 0;
    std::size_t pos = byte_off_[r];
    if (!skip_ptr_.empty() && skip_ptr_[r + 1] > skip_ptr_[r]) {
        Index lo = skip_ptr_[r], hi = skip_ptr_[r + 1];
        // Last skip s in [lo, hi) with skip_prev_col_[s] < c.
        Index found = -1;
        while (lo < hi) {
            Index mid = lo + (hi - lo) / 2;
            if (skip_prev_col_[mid] < c) {
                found = mid;
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if (found >= 0) {
            base = (found - skip_ptr_[r] + 1) * kSkipInterval;
            prev = skip_prev_col_[found];
            pos = skip_byte_[found];
        }
    }

    Index limit = std::min<Index>(len, base + kSkipInterval);
    for (Index g = base; g < limit; g += 4) {
        std::uint8_t ctrl = payload_[pos++];
        int slots = static_cast<int>(std::min<Index>(4, len - g));
        for (int s = 0; s < slots; ++s) {
            int nb = 1 + ((ctrl >> (2 * s)) & 3);
            std::uint32_t v = 0;
            for (int b = 0; b < nb; ++b)
                v |= static_cast<std::uint32_t>(payload_[pos++])
                     << (8 * b);
            Index i = g + s;
            Index col = i == 0 ? static_cast<Index>(v)
                               : prev + 1 + static_cast<Index>(v);
            prev = col;
            if (col == c)
                return values_[entry_offsets_[r] + i];
            if (col > c)
                return 0;
        }
    }
    return 0;
}

CompressedCsrMatrix
CompressedCsrMatrix::fromParts(Index rows, Index cols,
                               std::vector<Index> entry_offsets,
                               std::vector<std::uint8_t> payload,
                               std::vector<Value> values)
{
    auto invalid = [](const char *why) {
        throw std::invalid_argument(
            std::string("CompressedCsrMatrix::fromParts: ") + why);
    };
    if (rows < 0 || cols < 0)
        invalid("negative dimensions");
    if (entry_offsets.size() != static_cast<std::size_t>(rows) + 1)
        invalid("entry_offsets length != rows + 1");
    if (entry_offsets.front() != 0)
        invalid("entry_offsets must start at 0");
    if (payload.size() > kMaxPayload)
        invalid("payload exceeds 32-bit offsets");
    for (Index r = 0; r < rows; ++r)
        if (entry_offsets[r + 1] < entry_offsets[r])
            invalid("entry_offsets must be non-decreasing");
    if (static_cast<std::size_t>(entry_offsets.back()) != values.size())
        invalid("values length != entry_offsets.back()");

    CompressedCsrMatrix out;
    out.rows_ = rows;
    out.cols_ = cols;
    out.entry_offsets_ = std::move(entry_offsets);
    out.payload_ = std::move(payload);
    out.values_ = std::move(values);

    // Validating decode walk; rebuilds byte offsets and skip tables.
    std::uint64_t total_skips = 0;
    for (Index r = 0; r < rows; ++r) {
        Index len = out.entryCount(r);
        if (len > kSkipInterval)
            total_skips +=
                static_cast<std::uint64_t>((len - 1) / kSkipInterval);
    }
    if (total_skips > 0) {
        out.skip_ptr_.reserve(rows + 1);
        out.skip_ptr_.push_back(0);
        out.skip_prev_col_.reserve(total_skips);
        out.skip_byte_.reserve(total_skips);
    }
    out.byte_off_.reserve(rows + 1);

    std::size_t pos = 0;
    const std::size_t end = out.payload_.size();
    for (Index r = 0; r < rows; ++r) {
        out.byte_off_.push_back(static_cast<std::uint32_t>(pos));
        Index len = out.entryCount(r);
        std::int64_t prev = -1;
        for (Index g = 0; g < len; g += 4) {
            if (g > 0 && g % kSkipInterval == 0) {
                out.skip_prev_col_.push_back(static_cast<Index>(prev));
                out.skip_byte_.push_back(
                    static_cast<std::uint32_t>(pos));
            }
            if (pos >= end)
                invalid("payload truncated (control byte)");
            std::uint8_t ctrl = out.payload_[pos++];
            int slots = static_cast<int>(std::min<Index>(4, len - g));
            for (int s = 0; s < slots; ++s) {
                int nb = 1 + ((ctrl >> (2 * s)) & 3);
                if (pos + static_cast<std::size_t>(nb) > end)
                    invalid("payload truncated (value bytes)");
                std::uint32_t v = 0;
                for (int b = 0; b < nb; ++b)
                    v |= static_cast<std::uint32_t>(out.payload_[pos++])
                         << (8 * b);
                Index i = g + s;
                std::int64_t col =
                    i == 0 ? static_cast<std::int64_t>(v)
                           : prev + 1 + static_cast<std::int64_t>(v);
                if (col >= static_cast<std::int64_t>(cols))
                    invalid("column index out of range");
                prev = col;
            }
        }
        if (!out.skip_ptr_.empty())
            out.skip_ptr_.push_back(
                static_cast<Index>(out.skip_prev_col_.size()));
    }
    if (pos != end)
        invalid("trailing bytes after the last row");
    out.byte_off_.push_back(static_cast<std::uint32_t>(pos));
    return out;
}

CsrMatrix
CompressedCsrMatrix::toCsr() const
{
    std::vector<Index> col_idx(values_.size());
    for (Index r = 0; r < rows_; ++r)
        decodeRow(r, col_idx.data() + entry_offsets_[r]);
    return CsrMatrix::fromParts(rows_, cols_, entry_offsets_,
                                std::move(col_idx), values_);
}

std::uint64_t
CompressedCsrMatrix::encodedBytes() const
{
    std::uint64_t bytes = 0;
    bytes += entry_offsets_.size() * sizeof(Index);
    bytes += byte_off_.size() * sizeof(std::uint32_t);
    bytes += payload_.size();
    bytes += values_.size() * sizeof(Value);
    bytes += skip_ptr_.size() * sizeof(Index);
    bytes += skip_prev_col_.size() * sizeof(Index);
    bytes += skip_byte_.size() * sizeof(std::uint32_t);
    return bytes;
}

std::uint64_t
CompressedCsrMatrix::measureEncodedBytes(const CsrMatrix &m)
{
    std::uint64_t payload = 0;
    std::uint64_t skips = 0;
    for (Index r = 0; r < m.rows(); ++r) {
        std::span<const Index> idx = m.rowIndices(r);
        Index len = static_cast<Index>(idx.size());
        payload += static_cast<std::uint64_t>((len + 3) / 4); // control
        for (Index i = 0; i < len; ++i) {
            std::uint32_t v =
                i == 0 ? static_cast<std::uint32_t>(idx[0])
                       : static_cast<std::uint32_t>(idx[i] -
                                                    idx[i - 1] - 1);
            payload += static_cast<std::uint64_t>(varintBytes(v));
        }
        if (len > kSkipInterval)
            skips += static_cast<std::uint64_t>((len - 1) /
                                                kSkipInterval);
    }
    std::uint64_t rows1 = static_cast<std::uint64_t>(m.rows()) + 1;
    std::uint64_t bytes = rows1 * sizeof(Index)          // entry_offsets_
                          + rows1 * sizeof(std::uint32_t) // byte_off_
                          + payload
                          + static_cast<std::uint64_t>(m.nnz()) *
                                sizeof(Value);
    if (skips > 0)
        bytes += rows1 * sizeof(Index)                       // skip_ptr_
                 + skips * (sizeof(Index) + sizeof(std::uint32_t));
    return bytes;
}

MatrixStore::MatrixStore(CsrMatrix m)
    : csr_(std::move(m)),
      encoded_bytes_(CompressedCsrMatrix::measureEncodedBytes(csr_))
{
}

std::uint64_t
MatrixStore::csrBytes() const
{
    return std::uint64_t{4} * (static_cast<std::uint64_t>(rows()) + 1) +
           std::uint64_t{8} * static_cast<std::uint64_t>(nnz());
}

Index
MatrixView::rows() const
{
    return csr_ ? csr_->rows() : comp_->rows();
}

Index
MatrixView::cols() const
{
    return csr_ ? csr_->cols() : comp_->cols();
}

Index
MatrixView::nnz() const
{
    return csr_ ? csr_->nnz() : comp_->nnz();
}

Index
MatrixView::length(Index r) const
{
    return csr_ ? csr_->rowLength(r) : comp_->entryCount(r);
}

std::span<const Index>
MatrixView::indices(Index r) const
{
    if (csr_)
        return csr_->rowIndices(r);
    Index len = comp_->entryCount(r);
    if (scratch_.size() < static_cast<std::size_t>(len))
        scratch_.resize(len);
    comp_->decodeRow(r, scratch_.data());
    return {scratch_.data(), static_cast<std::size_t>(len)};
}

std::span<const Value>
MatrixView::values(Index r) const
{
    return csr_ ? csr_->rowValues(r) : comp_->valueSpan(r);
}

const std::vector<Index> &
MatrixView::columnStream() const
{
    if (csr_)
        return csr_->colIdx();
    if (!stream_ready_) {
        stream_.resize(static_cast<std::size_t>(comp_->nnz()));
        for (Index r = 0; r < comp_->rows(); ++r)
            comp_->decodeRow(r,
                             stream_.data() + comp_->entryOffsets()[r]);
        stream_ready_ = true;
    }
    return stream_;
}

Value
MatrixView::at(Index r, Index c) const
{
    return csr_ ? csr_->at(r, c) : comp_->at(r, c);
}

CooMatrix
MatrixView::toCoo() const
{
    return csr_ ? csr_->toCoo() : comp_->toCsr().toCoo();
}

CsrMatrix
MatrixView::transposed() const
{
    return csr_ ? csr_->transpose() : comp_->toCsr().transpose();
}

} // namespace capstan::sparse
