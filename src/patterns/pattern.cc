#include "patterns/pattern.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"

namespace multigrain {

namespace {

/// Stable per-substream seed derivation so a row's random draw does not
/// depend on the order rows are materialized in.
std::uint64_t
substream_seed(std::uint64_t seed, index_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull *
                                 (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

const char *
to_string(AtomicKind kind)
{
    switch (kind) {
      case AtomicKind::kLocal:
        return "local";
      case AtomicKind::kDilated:
        return "dilated";
      case AtomicKind::kGlobal:
        return "global";
      case AtomicKind::kSelected:
        return "selected";
      case AtomicKind::kRandom:
        return "random";
      case AtomicKind::kClusteredRandom:
        return "clustered_random";
      case AtomicKind::kBlockedLocal:
        return "blocked_local";
      case AtomicKind::kBlockedRandom:
        return "blocked_random";
    }
    return "?";
}

AtomicPattern
AtomicPattern::local(index_t window)
{
    MG_CHECK(window >= 0) << "local window must be non-negative";
    AtomicPattern p;
    p.kind = AtomicKind::kLocal;
    p.window = window;
    return p;
}

AtomicPattern
AtomicPattern::dilated(index_t window, index_t stride)
{
    MG_CHECK(window >= 0 && stride >= 1)
        << "dilated pattern needs window >= 0 and stride >= 1";
    AtomicPattern p;
    p.kind = AtomicKind::kDilated;
    p.window = window;
    p.stride = stride;
    return p;
}

AtomicPattern
AtomicPattern::global(std::vector<index_t> tokens)
{
    AtomicPattern p;
    p.kind = AtomicKind::kGlobal;
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    MG_CHECK(tokens.empty() || tokens.front() >= 0)
        << "global token " << tokens.front() << " is negative";
    p.tokens = std::move(tokens);
    return p;
}

AtomicPattern
AtomicPattern::selected(std::vector<index_t> tokens)
{
    AtomicPattern p;
    p.kind = AtomicKind::kSelected;
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    MG_CHECK(tokens.empty() || tokens.front() >= 0)
        << "selected token " << tokens.front() << " is negative";
    p.tokens = std::move(tokens);
    return p;
}

AtomicPattern
AtomicPattern::random(index_t count, std::uint64_t seed)
{
    MG_CHECK(count >= 0) << "random count must be non-negative";
    AtomicPattern p;
    p.kind = AtomicKind::kRandom;
    p.count = count;
    p.seed = seed;
    return p;
}

AtomicPattern
AtomicPattern::clustered_random(index_t block, index_t blocks_per_row,
                                index_t count, std::uint64_t seed)
{
    MG_CHECK(block > 0 && blocks_per_row > 0 && count >= 0)
        << "clustered_random needs block > 0, blocks_per_row > 0, "
        << "count >= 0";
    AtomicPattern p;
    p.kind = AtomicKind::kClusteredRandom;
    p.block = block;
    p.window = blocks_per_row;
    p.count = count;
    p.seed = seed;
    return p;
}

AtomicPattern
AtomicPattern::blocked_local(index_t block, index_t window)
{
    MG_CHECK(block > 0 && window >= 0)
        << "blocked_local needs block > 0 and window >= 0";
    AtomicPattern p;
    p.kind = AtomicKind::kBlockedLocal;
    p.block = block;
    p.window = window;
    return p;
}

AtomicPattern
AtomicPattern::blocked_random(index_t block, index_t count,
                              std::uint64_t seed)
{
    MG_CHECK(block > 0 && count >= 0)
        << "blocked_random needs block > 0 and count >= 0";
    AtomicPattern p;
    p.kind = AtomicKind::kBlockedRandom;
    p.block = block;
    p.count = count;
    p.seed = seed;
    return p;
}

void
AtomicPattern::append_row_intervals(index_t seq_len, index_t valid_len,
                                    index_t row,
                                    std::vector<ColumnInterval> &out) const
{
    if (row >= valid_len) {
        return;  // Zero-padded query rows attend to nothing.
    }
    const auto span = [&out](index_t begin, index_t end) {
        if (begin < end) {
            out.push_back({begin, end});
        }
    };
    const auto unit = [&out](index_t c) { out.push_back({c, c + 1}); };
    switch (kind) {
      case AtomicKind::kLocal:
        span(std::max<index_t>(0, row - window),
             std::min<index_t>(valid_len - 1, row + window) + 1);
        break;
      case AtomicKind::kDilated: {
        // The left arm farthest first, the current token, the right arm.
        for (index_t m = std::min(window, row / stride); m >= 1; --m) {
            unit(row - m * stride);
        }
        unit(row);
        const index_t right = std::min(window, (valid_len - 1 - row) / stride);
        for (index_t m = 1; m <= right; ++m) {
            unit(row + m * stride);
        }
        break;
      }
      case AtomicKind::kGlobal:
        if (std::binary_search(tokens.begin(), tokens.end(), row)) {
            span(0, valid_len);
        }
        break;
      case AtomicKind::kSelected:
        for (const index_t t : tokens) {
            if (t >= valid_len) {
                break;
            }
            unit(t);
        }
        break;
      case AtomicKind::kRandom: {
        // Bernoulli draws with mean `count` per row. Per-row counts vary,
        // which is what makes random patterns a load-imbalance stress for
        // row-mapped kernels (§5.2.1, §5.3).
        Rng rng(substream_seed(seed, row));
        const float p = static_cast<float>(
            std::min<double>(1.0, static_cast<double>(count) /
                                      static_cast<double>(valid_len)));
        for (index_t c = 0; c < valid_len; ++c) {
            if (rng.next_float() < p) {
                unit(c);
            }
        }
        break;
      }
      case AtomicKind::kClusteredRandom: {
        // The cluster block-columns are fixed per block row so rows in a
        // block row share them (as block-level random configs do).
        // sample_distinct returns them ascending, so the per-row element
        // draws below visit columns in order.
        const index_t block_cols = ceil_div(seq_len, block);
        Rng cluster_rng(substream_seed(seed, row / block));
        const index_t nclusters = std::min<index_t>(window, block_cols);
        const std::vector<index_t> clusters =
            cluster_rng.sample_distinct(block_cols, nclusters);
        Rng rng(substream_seed(seed ^ 0x2545f4914f6cdd1dull, row));
        const double candidates =
            static_cast<double>(nclusters) * static_cast<double>(block);
        const float p = static_cast<float>(
            std::min(1.0, static_cast<double>(count) / candidates));
        for (const index_t bc : clusters) {
            const index_t end = std::min(valid_len, (bc + 1) * block);
            for (index_t c = bc * block; c < end; ++c) {
                if (rng.next_float() < p) {
                    unit(c);
                }
            }
        }
        break;
      }
      case AtomicKind::kBlockedLocal: {
        const index_t block_row = row / block;
        const index_t block_cols = ceil_div(seq_len, block);
        const index_t lo = std::max<index_t>(0, block_row - window);
        const index_t hi = std::min<index_t>(block_cols - 1,
                                             block_row + window);
        span(lo * block, std::min(valid_len, (hi + 1) * block));
        break;
      }
      case AtomicKind::kBlockedRandom: {
        const index_t block_cols = ceil_div(seq_len, block);
        Rng rng(substream_seed(seed, row / block));
        const float p = static_cast<float>(
            std::min<double>(1.0, static_cast<double>(count) /
                                      static_cast<double>(block_cols)));
        for (index_t bc = 0; bc < block_cols; ++bc) {
            if (rng.next_float() < p) {
                span(bc * block, std::min(valid_len, (bc + 1) * block));
            }
        }
        break;
      }
    }
}

bool
AtomicPattern::is_coarse() const
{
    switch (kind) {
      case AtomicKind::kLocal:
      case AtomicKind::kBlockedLocal:
      case AtomicKind::kBlockedRandom:
        return true;
      case AtomicKind::kDilated:
      case AtomicKind::kSelected:
      case AtomicKind::kRandom:
      case AtomicKind::kClusteredRandom:
      case AtomicKind::kGlobal:
        return false;
    }
    return false;
}

bool
AtomicPattern::is_special() const
{
    return kind == AtomicKind::kGlobal;
}

std::string
AtomicPattern::describe() const
{
    std::ostringstream os;
    os << to_string(kind);
    switch (kind) {
      case AtomicKind::kLocal:
        os << "(w=" << window << ")";
        break;
      case AtomicKind::kDilated:
        os << "(w=" << window << ", s=" << stride << ")";
        break;
      case AtomicKind::kGlobal:
      case AtomicKind::kSelected:
        os << "(" << tokens.size() << " tokens)";
        break;
      case AtomicKind::kRandom:
        os << "(" << count << "/row)";
        break;
      case AtomicKind::kClusteredRandom:
        os << "(" << count << "/row in " << window << " blocks)";
        break;
      case AtomicKind::kBlockedLocal:
        os << "(b=" << block << ", w=" << window << ")";
        break;
      case AtomicKind::kBlockedRandom:
        os << "(b=" << block << ", " << count << "/brow)";
        break;
    }
    return os.str();
}

namespace {

/// FNV-1a, the same folding for every field so the hash does not depend
/// on struct layout or platform integer widths.
struct Fnv64 {
    std::uint64_t h = 0xcbf29ce484222325ull;

    void mix(std::uint64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
};

}  // namespace

std::uint64_t
CompoundPattern::fingerprint() const
{
    Fnv64 fnv;
    fnv.mix(static_cast<std::uint64_t>(seq_len));
    fnv.mix(static_cast<std::uint64_t>(valid_len));
    fnv.mix(causal ? 1 : 0);
    fnv.mix(static_cast<std::uint64_t>(atoms.size()));
    for (const AtomicPattern &atom : atoms) {
        fnv.mix(static_cast<std::uint64_t>(atom.kind));
        fnv.mix(static_cast<std::uint64_t>(atom.window));
        fnv.mix(static_cast<std::uint64_t>(atom.stride));
        fnv.mix(static_cast<std::uint64_t>(atom.count));
        fnv.mix(static_cast<std::uint64_t>(atom.block));
        fnv.mix(atom.seed);
        fnv.mix(static_cast<std::uint64_t>(atom.tokens.size()));
        for (const index_t token : atom.tokens) {
            fnv.mix(static_cast<std::uint64_t>(token));
        }
    }
    return fnv.h;
}

std::string
CompoundPattern::describe() const
{
    std::ostringstream os;
    os << "L=" << seq_len;
    if (valid_len != 0 && valid_len != seq_len) {
        os << " (valid " << valid_len << ")";
    }
    if (causal) {
        os << " (causal)";
    }
    for (std::size_t i = 0; i < atoms.size(); ++i) {
        os << (i == 0 ? ": " : " + ") << atoms[i].describe();
    }
    return os.str();
}

void
CompoundPattern::validate() const
{
    MG_CHECK(seq_len > 0) << "compound pattern needs seq_len > 0";
    MG_CHECK(valid_len >= 0 && valid_len <= seq_len)
        << "valid_len " << valid_len << " outside [0, seq_len " << seq_len
        << "]";
    for (const AtomicPattern &atom : atoms) {
        MG_CHECK(!causal || !atom.is_special())
            << "causal patterns cannot contain global (one-to-all) atoms";
        MG_CHECK(atom.window >= 0 && atom.stride >= 1 && atom.block > 0 &&
                 atom.count >= 0)
            << atom.describe() << " needs window >= 0, stride >= 1, "
            << "block > 0 and count >= 0";
        for (std::size_t i = 0; i < atom.tokens.size(); ++i) {
            const index_t t = atom.tokens[i];
            MG_CHECK(t >= 0 && t < seq_len &&
                     (i == 0 || atom.tokens[i - 1] < t))
                << atom.describe() << ": token " << t
                << " breaks strict ascending order in [0, " << seq_len
                << ")";
        }
    }
}

UnionRows::UnionRows(const CompoundPattern &pattern) : pattern_(pattern)
{
    for (const AtomicPattern &atom : pattern.atoms) {
        atoms_.push_back(&atom);
    }
}

UnionRows::UnionRows(const CompoundPattern &pattern,
                     std::vector<const AtomicPattern *> atoms)
    : pattern_(pattern), atoms_(std::move(atoms))
{
}

const std::vector<ColumnInterval> &
UnionRows::row(index_t row)
{
    row_.clear();
    for (const AtomicPattern *atom : atoms_) {
        atom_.clear();
        atom->append_row_intervals(pattern_.seq_len,
                                   pattern_.effective_valid_len(), row,
                                   atom_);
        merged_.clear();
        std::merge(row_.begin(), row_.end(), atom_.begin(), atom_.end(),
                   std::back_inserter(merged_),
                   [](const ColumnInterval &a, const ColumnInterval &b) {
                       return a.begin < b.begin;
                   });
        row_.swap(merged_);
    }
    // Coalesce overlapping and touching intervals, then clip causally.
    std::size_t n = 0;
    for (const ColumnInterval &iv : row_) {
        if (n > 0 && iv.begin <= row_[n - 1].end) {
            row_[n - 1].end = std::max(row_[n - 1].end, iv.end);
        } else {
            row_[n++] = iv;
        }
    }
    row_.resize(n);
    if (pattern_.causal) {
        while (!row_.empty() && row_.back().begin > row) {
            row_.pop_back();
        }
        if (!row_.empty()) {
            row_.back().end = std::min(row_.back().end, row + 1);
        }
    }
    return row_;
}

CsrLayout
build_full_layout(const CompoundPattern &pattern)
{
    pattern.validate();
    UnionRows rows(pattern);
    CsrLayout out;
    out.rows = pattern.seq_len;
    out.cols = pattern.seq_len;
    out.row_offsets.reserve(static_cast<std::size_t>(pattern.seq_len + 1));
    out.row_offsets.push_back(0);
    for (index_t r = 0; r < pattern.seq_len; ++r) {
        append_columns(rows.row(r), out.col_indices);
        out.row_offsets.push_back(
            static_cast<index_t>(out.col_indices.size()));
    }
    return out;
}

}  // namespace multigrain
