#include "patterns/stats.h"

#include <cmath>
#include <sstream>

#include "common/error.h"
#include "formats/convert.h"

namespace multigrain {

PatternStats
analyze_pattern(const CompoundPattern &pattern, index_t block)
{
    MG_CHECK(block > 0 && pattern.seq_len % block == 0)
        << "analysis block must divide seq_len";

    PatternStats stats;
    stats.seq_len = pattern.seq_len;
    stats.block = block;

    SliceOptions options;
    options.block = block;
    const SlicePlan plan = slice_and_dice(pattern, options);
    const CsrLayout full = build_full_layout(pattern);

    stats.nnz = full.nnz();
    stats.density = static_cast<double>(stats.nnz) /
                    (static_cast<double>(pattern.seq_len) *
                     static_cast<double>(pattern.seq_len));
    double sum = 0, sq = 0;
    for (index_t r = 0; r < full.rows; ++r) {
        const double n = static_cast<double>(full.row_nnz(r));
        sum += n;
        sq += n * n;
        stats.max_row_nnz = std::max(stats.max_row_nnz, full.row_nnz(r));
    }
    stats.mean_row_nnz = sum / static_cast<double>(full.rows);
    const double var =
        sq / static_cast<double>(full.rows) -
        stats.mean_row_nnz * stats.mean_row_nnz;
    stats.row_cv = stats.mean_row_nnz > 0
                       ? std::sqrt(std::max(0.0, var)) / stats.mean_row_nnz
                       : 0;

    const BsrLayout blockified = bsr_from_csr(full, block);
    stats.stored_blocks = blockified.nnz_blocks();
    stats.stored_elements = blockified.total_stored();
    stats.block_inflation =
        stats.nnz > 0 ? static_cast<double>(stats.stored_elements) /
                            static_cast<double>(stats.nnz)
                      : 0;

    if (stats.nnz > 0) {
        stats.coarse_fraction =
            static_cast<double>(plan.coarse_valid_elements()) /
            static_cast<double>(stats.nnz);
        stats.fine_fraction = static_cast<double>(plan.fine_elements()) /
                              static_cast<double>(stats.nnz);
        stats.special_fraction =
            static_cast<double>(plan.special_elements()) /
            static_cast<double>(stats.nnz);
    }
    return stats;
}

std::string
PatternStats::summarize() const
{
    std::ostringstream os;
    os << "L=" << seq_len << " nnz=" << nnz << " (density "
       << density * 100 << "%), rows mean " << mean_row_nnz << " max "
       << max_row_nnz << " cv " << row_cv << "; blockified@" << block
       << ": " << stored_blocks << " blocks, inflation " << block_inflation
       << "x; slice: coarse " << coarse_fraction * 100 << "% fine "
       << fine_fraction * 100 << "% global " << special_fraction * 100
       << "%";
    return os.str();
}

}  // namespace multigrain
