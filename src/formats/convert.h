#ifndef MULTIGRAIN_FORMATS_CONVERT_H_
#define MULTIGRAIN_FORMATS_CONVERT_H_

#include <functional>
#include <memory>
#include <vector>

#include "formats/bcoo.h"
#include "formats/bsr.h"
#include "formats/csr.h"
#include "formats/matrix.h"

/// Conversions between the sparse formats and dense matrices. Layout
/// conversions are lossless in the set of *valid* elements: blockifying a
/// CSR layout into BSR records which elements of each stored block are
/// real via the validity bitmap, and converting back recovers exactly the
/// original element set (tested as a round-trip property).
namespace multigrain {

/// Builds a CSR layout from a 0/1 mask; nonzero mask entries are valid.
CsrLayout csr_from_mask(const MaskMatrix &mask);

/// Expands a CSR layout to a 0/1 mask.
MaskMatrix mask_from_csr(const CsrLayout &layout);

/// Blockifies a layout given row by row as non-empty column intervals:
/// `row_intervals(r)` is called once per row, in order. Every
/// block x block tile holding at least one element becomes a stored
/// block; the bitmap marks the real elements, set a word at a time.
/// Requires rows and cols to be multiples of `block`.
BsrLayout bsr_from_rows(
    index_t rows, index_t cols, index_t block,
    const std::function<const std::vector<ColumnInterval> &(index_t)>
        &row_intervals);

/// Blockifies a CSR layout (bsr_from_rows over its rows).
BsrLayout bsr_from_csr(const CsrLayout &csr, index_t block);

/// Appends the valid columns of row `r` of `bsr` to `out` as intervals,
/// ascending: a few bitmap words per stored block, not per element.
void append_row_intervals(const BsrLayout &bsr, index_t r,
                          std::vector<ColumnInterval> &out);

/// Recovers the element-wise layout of the *valid* elements of a BSR.
CsrLayout csr_from_bsr(const BsrLayout &bsr);

/// Re-expresses BSR block coordinates as BCOO (drops validity bitmaps;
/// BCOO consumers treat stored blocks as fully dense, as Triton does).
BcooLayout bcoo_from_bsr(const BsrLayout &bsr);

/// Transpose of a CSR layout (a CSC view of the same element set,
/// re-expressed as CSR of the transposed matrix). Backward passes run
/// their dV/dK SpMMs over transposed metadata, which — like all metadata
/// (§3.1) — is built offline.
CsrLayout transpose_layout(const CsrLayout &layout);

/// Transpose of a BSR layout: block coordinates swap and each validity
/// bitmap is transposed within its block, 64x64 bits at a time.
BsrLayout transpose_layout(const BsrLayout &layout);

/// Expands sparse values to a dense matrix; absent positions become 0.
/// For BSR, stored-but-invalid elements also become 0.
HalfMatrix dense_from_csr(const CsrMatrix &m);
HalfMatrix dense_from_bsr(const BsrMatrix &m);

/// Gathers values for every layout position from a dense matrix.
CsrMatrix gather_csr(const HalfMatrix &dense,
                     std::shared_ptr<const CsrLayout> layout);
BsrMatrix gather_bsr(const HalfMatrix &dense,
                     std::shared_ptr<const BsrLayout> layout);

}  // namespace multigrain

#endif  // MULTIGRAIN_FORMATS_CONVERT_H_
