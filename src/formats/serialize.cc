#include "formats/serialize.h"

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "common/error.h"

namespace multigrain {

namespace {

constexpr std::uint64_t kMagic = 0x4d47524e4c594f55ull;  // "MGRNLYOU".
constexpr std::uint64_t kVersion = 1;
constexpr std::uint64_t kKindCsr = 1;
constexpr std::uint64_t kKindBsr = 2;

void
put_u64(std::ostream &os, std::uint64_t value)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<unsigned char>(value >> (8 * i));
    }
    os.write(reinterpret_cast<const char *>(bytes), 8);
}

std::uint64_t
get_u64(std::istream &is)
{
    unsigned char bytes[8];
    is.read(reinterpret_cast<char *>(bytes), 8);
    MG_CHECK(is.good()) << "truncated layout stream";
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
        value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    }
    return value;
}

void
put_index_vector(std::ostream &os, const std::vector<index_t> &v)
{
    put_u64(os, v.size());
    for (const index_t x : v) {
        put_u64(os, static_cast<std::uint64_t>(x));
    }
}

std::vector<index_t>
get_index_vector(std::istream &is, std::uint64_t max_size)
{
    const std::uint64_t size = get_u64(is);
    MG_CHECK(size <= max_size)
        << "layout stream declares an implausible vector size " << size;
    // Grown entry by entry, not sized up front: a corrupted size then
    // fails at the end of the stream instead of allocating up to
    // max_size entries first.
    std::vector<index_t> v;
    for (std::uint64_t i = 0; i < size; ++i) {
        v.push_back(static_cast<index_t>(get_u64(is)));
    }
    return v;
}

void
put_header(std::ostream &os, std::uint64_t kind)
{
    put_u64(os, kMagic);
    put_u64(os, kVersion);
    put_u64(os, kind);
}

void
check_header(std::istream &is, std::uint64_t expected_kind)
{
    MG_CHECK(get_u64(is) == kMagic) << "not a multigrain layout stream";
    MG_CHECK(get_u64(is) == kVersion) << "unsupported layout version";
    MG_CHECK(get_u64(is) == expected_kind)
        << "layout stream holds a different format kind";
}

/// A generous sanity cap on serialized vector sizes (1 G entries).
constexpr std::uint64_t kMaxEntries = 1ull << 30;

}  // namespace

void
write_layout(const CsrLayout &layout, std::ostream &os)
{
    put_header(os, kKindCsr);
    put_u64(os, static_cast<std::uint64_t>(layout.rows));
    put_u64(os, static_cast<std::uint64_t>(layout.cols));
    put_index_vector(os, layout.row_offsets);
    put_index_vector(os, layout.col_indices);
    MG_CHECK(os.good()) << "failed writing CSR layout";
}

void
write_layout(const BsrLayout &layout, std::ostream &os)
{
    put_header(os, kKindBsr);
    put_u64(os, static_cast<std::uint64_t>(layout.rows));
    put_u64(os, static_cast<std::uint64_t>(layout.cols));
    put_u64(os, static_cast<std::uint64_t>(layout.block));
    put_index_vector(os, layout.row_offsets);
    put_index_vector(os, layout.col_indices);
    put_u64(os, layout.valid_bits.size());
    for (const std::uint64_t word : layout.valid_bits) {
        put_u64(os, word);
    }
    MG_CHECK(os.good()) << "failed writing BSR layout";
}

CsrLayout
read_csr_layout(std::istream &is)
{
    check_header(is, kKindCsr);
    CsrLayout layout;
    layout.rows = static_cast<index_t>(get_u64(is));
    layout.cols = static_cast<index_t>(get_u64(is));
    layout.row_offsets = get_index_vector(is, kMaxEntries);
    layout.col_indices = get_index_vector(is, kMaxEntries);
    layout.validate();
    return layout;
}

BsrLayout
read_bsr_layout(std::istream &is)
{
    check_header(is, kKindBsr);
    BsrLayout layout;
    layout.rows = static_cast<index_t>(get_u64(is));
    layout.cols = static_cast<index_t>(get_u64(is));
    layout.block = static_cast<index_t>(get_u64(is));
    layout.row_offsets = get_index_vector(is, kMaxEntries);
    layout.col_indices = get_index_vector(is, kMaxEntries);
    const std::uint64_t words = get_u64(is);
    MG_CHECK(words <= kMaxEntries) << "implausible bitmap size";
    for (std::uint64_t i = 0; i < words; ++i) {
        layout.valid_bits.push_back(get_u64(is));
    }
    layout.validate();
    return layout;
}

}  // namespace multigrain
