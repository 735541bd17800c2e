#ifndef MULTIGRAIN_FORMATS_CSR_H_
#define MULTIGRAIN_FORMATS_CSR_H_

#include <memory>
#include <vector>

#include "common/half.h"
#include "common/util.h"

/// Compressed sparse row format — the element-wise ("fine-grained") format
/// used by Sputnik-style kernels (paper §2.4). The structure (layout) and
/// the values are split: attention reuses one layout for the attention
/// score S and the attention probability P across every head and batch,
/// because the sparsity pattern is fixed per input while values change.
namespace multigrain {

/// A half-open run of columns [begin, end) of one row. Layout builders
/// and checks describe a row as a sorted list of disjoint intervals, so
/// regular patterns cost per interval, not per element.
struct ColumnInterval {
    index_t begin = 0;
    index_t end = 0;

    bool operator==(const ColumnInterval &) const = default;
};

/// Appends [begin, end) to `intervals`, extending the last one when they
/// touch.
inline void
push_interval(std::vector<ColumnInterval> &intervals, index_t begin,
              index_t end)
{
    if (!intervals.empty() && intervals.back().end == begin) {
        intervals.back().end = end;
    } else {
        intervals.push_back({begin, end});
    }
}

/// Appends every column of `intervals` to `out`, in order.
void append_columns(const std::vector<ColumnInterval> &intervals,
                    std::vector<index_t> &out);

struct CsrLayout {
    index_t rows = 0;
    index_t cols = 0;
    /// rows+1 entries; row r occupies [row_offsets[r], row_offsets[r+1]).
    std::vector<index_t> row_offsets;
    /// Column index per nonzero, ascending within each row.
    std::vector<index_t> col_indices;

    index_t nnz() const
    {
        return row_offsets.empty() ? 0 : row_offsets.back();
    }
    index_t row_nnz(index_t r) const
    {
        return row_offsets[static_cast<std::size_t>(r + 1)] -
               row_offsets[static_cast<std::size_t>(r)];
    }
    /// Largest nnz over all rows; 0 for an empty layout.
    index_t max_row_nnz() const;

    /// Throws Error if offsets are non-monotonic, indices are out of range,
    /// or column indices are not strictly ascending within a row.
    void validate() const;
};

/// A CSR matrix with FP16 values; values[i] pairs with col_indices[i].
struct CsrMatrix {
    std::shared_ptr<const CsrLayout> layout;
    std::vector<half> values;

    CsrMatrix() = default;
    explicit CsrMatrix(std::shared_ptr<const CsrLayout> l)
        : layout(std::move(l)),
          values(static_cast<std::size_t>(layout->nnz()))
    {
    }
};

}  // namespace multigrain

#endif  // MULTIGRAIN_FORMATS_CSR_H_
