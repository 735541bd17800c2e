#include "formats/csr.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace multigrain {

void
append_columns(const std::vector<ColumnInterval> &intervals,
               std::vector<index_t> &out)
{
    for (const ColumnInterval &iv : intervals) {
        const std::size_t at = out.size();
        out.resize(at + static_cast<std::size_t>(iv.end - iv.begin));
        std::iota(out.begin() + static_cast<std::ptrdiff_t>(at), out.end(),
                  iv.begin);
    }
}

index_t
CsrLayout::max_row_nnz() const
{
    index_t best = 0;
    for (index_t r = 0; r < rows; ++r) {
        best = std::max(best, row_nnz(r));
    }
    return best;
}

void
CsrLayout::validate() const
{
    MG_CHECK(rows >= 0 && cols >= 0)
        << "CSR dims must be non-negative: " << rows << "x" << cols;
    MG_CHECK(static_cast<index_t>(row_offsets.size()) - 1 == rows)
        << "CSR row_offsets must have rows+1 entries, got "
        << row_offsets.size() << " for " << rows << " rows";
    MG_CHECK(row_offsets.front() == 0) << "CSR row_offsets must start at 0";
    for (index_t r = 0; r < rows; ++r) {
        const index_t begin = row_offsets[static_cast<std::size_t>(r)];
        const index_t end = row_offsets[static_cast<std::size_t>(r + 1)];
        MG_CHECK(begin <= end &&
                 end <= static_cast<index_t>(col_indices.size()))
            << "CSR row_offsets must be non-decreasing and within "
            << "col_indices at row " << r;
        for (index_t i = begin; i < end; ++i) {
            const index_t c = col_indices[static_cast<std::size_t>(i)];
            MG_CHECK(c >= 0 && c < cols)
                << "CSR column index " << c << " out of range [0, " << cols
                << ") at row " << r;
            if (i > begin) {
                MG_CHECK(col_indices[static_cast<std::size_t>(i - 1)] < c)
                    << "CSR column indices must be strictly ascending in row "
                    << r;
            }
        }
    }
    MG_CHECK(static_cast<index_t>(col_indices.size()) == nnz())
        << "CSR col_indices size " << col_indices.size()
        << " does not match nnz " << nnz();
}

}  // namespace multigrain
