#include "gemm/sparsity_profile.h"

#include <algorithm>
#include <cmath>

#include "common/bitutil.h"
#include "common/logging.h"
#include "sparse/two_level.h"
#include "sparse/word_encode.h"

namespace dstc {

SparsityProfile::SparsityProfile(int groups, int64_t k, int tile,
                                 int64_t extent)
    : groups_(groups), k_(k), tile_(tile),
      extent_(extent > 0 ? extent
                         : static_cast<int64_t>(groups) * tile),
      counts_(static_cast<size_t>(groups) * k, 0)
{
    DSTC_ASSERT(groups > 0 && k > 0 && tile > 0);
    DSTC_ASSERT(extent_ <= static_cast<int64_t>(groups) * tile &&
                extent_ > static_cast<int64_t>(groups - 1) * tile,
                "extent ", extent_, " inconsistent with ", groups,
                " groups of ", tile);
}

int64_t
SparsityProfile::tileNnz(int g, int tk, int tile_k) const
{
    const int64_t lo = static_cast<int64_t>(tk) * tile_k;
    const int64_t hi = std::min(k_, lo + tile_k);
    int64_t total = 0;
    for (int64_t kk = lo; kk < hi; ++kk)
        total += count(g, kk);
    return total;
}

int64_t
SparsityProfile::totalNnz() const
{
    int64_t total = 0;
    for (uint16_t c : counts_)
        total += c;
    return total;
}

int64_t
SparsityProfile::groupNnz(int g) const
{
    DSTC_ASSERT(g >= 0 && g < groups_);
    int64_t total = 0;
    for (int64_t kk = 0; kk < k_; ++kk)
        total += count(g, kk);
    return total;
}

double
SparsityProfile::groupDensity(int g) const
{
    const double elems =
        static_cast<double>(groupSpan(g)) * static_cast<double>(k_);
    return elems > 0 ? groupNnz(g) / elems : 0.0;
}

SparsityProfile
SparsityProfile::selectGroups(const std::vector<int> &groups) const
{
    DSTC_ASSERT(!groups.empty(), "selectGroups needs >= 1 group");
    for (size_t i = 0; i < groups.size(); ++i) {
        DSTC_ASSERT(groups[i] >= 0 && groups[i] < groups_);
        DSTC_ASSERT(i == 0 || groups[i - 1] < groups[i],
                    "selectGroups wants ascending group indices");
        // Only the last group of a profile may be clipped, so a
        // clipped group must also come last in the selection (the
        // constructor's extent invariant).
        DSTC_ASSERT(i + 1 == groups.size() ||
                        groupSpan(groups[i]) == tile_,
                    "clipped group ", groups[i],
                    " selected before the end");
    }
    const int selected = static_cast<int>(groups.size());
    const int64_t extent =
        static_cast<int64_t>(selected - 1) * tile_ +
        groupSpan(groups.back());
    SparsityProfile slice(selected, k_, tile_, extent);
    for (int i = 0; i < selected; ++i)
        for (int64_t kk = 0; kk < k_; ++kk)
            slice.setCount(i, kk, count(groups[i], kk));
    return slice;
}

std::vector<int64_t>
SparsityProfile::tileNnzTable(int tile_k) const
{
    const int64_t tiles_k = ceilDiv(k_, static_cast<int64_t>(tile_k));
    std::vector<int64_t> nnz(static_cast<size_t>(groups_) * tiles_k);
    int64_t *out = nnz.data();
    for (int g = 0; g < groups_; ++g) {
        const uint16_t *counts = groupCounts(g);
        for (int64_t lo = 0; lo < k_; lo += tile_k) {
            const int64_t hi = std::min(k_, lo + tile_k);
            int64_t total = 0;
            for (int64_t kk = lo; kk < hi; ++kk)
                total += counts[kk];
            *out++ = total;
        }
    }
    return nnz;
}

size_t
SparsityProfile::encodedBytes(int tile_k, DataType dtype) const
{
    return encodedBytes(tileNnzTable(tile_k), tile_k, dtype);
}

size_t
SparsityProfile::encodedBytes(const std::vector<int64_t> &tile_nnz,
                              int tile_k, DataType dtype) const
{
    const int64_t tiles_k = ceilDiv(k_, static_cast<int64_t>(tile_k));
    DSTC_ASSERT(tile_nnz.size() ==
                    static_cast<size_t>(groups_) * tiles_k,
                "tile table is not this profile's at tile_k ", tile_k);
    size_t bytes = ceilDiv(tile_nnz.size(), size_t{8});
    for (int64_t nnz : tile_nnz) {
        if (nnz == 0)
            continue;
        bytes += static_cast<size_t>(tile_) * tile_k / 8; // bitmap
        bytes += dataTypePackedBytes(dtype, static_cast<size_t>(nnz));
    }
    return bytes;
}

SparsityProfile
SparsityProfile::fromMatrixA(const Matrix<float> &a, int tile)
{
    const int groups = ceilDiv(a.rows(), tile);
    SparsityProfile profile(groups, a.cols(), tile, a.rows());
    for (int g = 0; g < groups; ++g) {
        const int r0 = g * tile;
        const int r1 = std::min(a.rows(), r0 + tile);
        for (int kk = 0; kk < a.cols(); ++kk) {
            int nnz = 0;
            for (int r = r0; r < r1; ++r)
                nnz += a.at(r, kk) != 0.0f;
            profile.setCount(g, kk, nnz);
        }
    }
    return profile;
}

SparsityProfile
SparsityProfile::fromMatrixB(const Matrix<float> &b, int tile)
{
    const int groups = ceilDiv(b.cols(), tile);
    SparsityProfile profile(groups, b.rows(), tile, b.cols());
    for (int g = 0; g < groups; ++g) {
        const int c0 = g * tile;
        const int c1 = std::min(b.cols(), c0 + tile);
        for (int kk = 0; kk < b.rows(); ++kk) {
            int nnz = 0;
            for (int c = c0; c < c1; ++c)
                nnz += b.at(kk, c) != 0.0f;
            profile.setCount(g, kk, nnz);
        }
    }
    return profile;
}

SparsityProfile
SparsityProfile::fromMatrixAWord(const Matrix<float> &a, int tile)
{
    // Lines are columns: column words come out of the block
    // transpose, then each (group, k) count is one masked POPC.
    const int groups = ceilDiv(a.rows(), tile);
    SparsityProfile profile(groups, a.cols(), tile, a.rows());
    int wpl = 0;
    const std::vector<uint64_t> bits =
        wordEncodeBits(a, Major::Col, &wpl);
    for (int kk = 0; kk < a.cols(); ++kk) {
        const size_t base = static_cast<size_t>(kk) * wpl * 64;
        for (int g = 0; g < groups; ++g) {
            const int r0 = g * tile;
            const int r1 = std::min(a.rows(), r0 + tile);
            profile.setCount(
                g, kk, popcountRange(bits, base + r0, base + r1));
        }
    }
    return profile;
}

SparsityProfile
SparsityProfile::fromMatrixBWord(const Matrix<float> &b, int tile)
{
    // Lines are rows: row words are one branchless pass over the
    // row-major storage, counts one masked POPC per (group, k).
    const int groups = ceilDiv(b.cols(), tile);
    SparsityProfile profile(groups, b.rows(), tile, b.cols());
    int wpl = 0;
    const std::vector<uint64_t> bits =
        wordEncodeBits(b, Major::Row, &wpl);
    for (int kk = 0; kk < b.rows(); ++kk) {
        const size_t base = static_cast<size_t>(kk) * wpl * 64;
        for (int g = 0; g < groups; ++g) {
            const int c0 = g * tile;
            const int c1 = std::min(b.cols(), c0 + tile);
            profile.setCount(
                g, kk, popcountRange(bits, base + c0, base + c1));
        }
    }
    return profile;
}

SparsityProfile
SparsityProfile::fromLowered(const LoweredFeatureMap &lfm, int tile)
{
    const int groups = ceilDiv(lfm.rows, tile);
    SparsityProfile profile(groups, lfm.cols, tile, lfm.rows);
    for (int j = 0; j < lfm.cols; ++j) {
        const auto &bits = lfm.columns[j].bits;
        for (int g = 0; g < groups; ++g) {
            const size_t lo = static_cast<size_t>(g) * tile;
            const size_t hi = std::min(
                static_cast<size_t>(lfm.rows), lo + tile);
            profile.setCount(g, j, popcountRange(bits, lo, hi));
        }
    }
    return profile;
}

SparsityProfile
SparsityProfile::fromEncodedA(const TwoLevelBitmapMatrix &a)
{
    // A tiles are packed Major::Col: each tile line is one k-step's
    // column slice, so lineNnz reads the profile count directly.
    SparsityProfile profile(a.numTileRows(), a.cols(), a.tileRows(),
                            a.rows());
    for (int g = 0; g < a.numTileRows(); ++g) {
        for (int tk = 0; tk < a.numTileCols(); ++tk) {
            const BitmapMatrix &t = a.tile(g, tk);
            const int64_t k0 =
                static_cast<int64_t>(tk) * a.tileCols();
            for (int line = 0; line < t.numLines(); ++line)
                profile.setCount(g, k0 + line, t.lineNnz(line));
        }
    }
    return profile;
}

SparsityProfile
SparsityProfile::fromEncodedB(const TwoLevelBitmapMatrix &b)
{
    // B tiles are packed Major::Row: each tile line is one k-step's
    // row slice across the group's columns.
    SparsityProfile profile(b.numTileCols(), b.rows(), b.tileCols(),
                            b.cols());
    for (int g = 0; g < b.numTileCols(); ++g) {
        for (int tk = 0; tk < b.numTileRows(); ++tk) {
            const BitmapMatrix &t = b.tile(tk, g);
            const int64_t k0 =
                static_cast<int64_t>(tk) * b.tileRows();
            for (int line = 0; line < t.numLines(); ++line)
                profile.setCount(g, k0 + line, t.lineNnz(line));
        }
    }
    return profile;
}

SparsityProfile
SparsityProfile::denseA(int64_t rows, int64_t k, int tile)
{
    const int groups =
        static_cast<int>(ceilDiv(rows, static_cast<int64_t>(tile)));
    SparsityProfile profile(groups, k, tile, rows);
    for (int g = 0; g < groups; ++g) {
        const int span = static_cast<int>(
            std::min<int64_t>(tile, rows - static_cast<int64_t>(g) * tile));
        for (int64_t kk = 0; kk < k; ++kk)
            profile.setCount(g, kk, span);
    }
    return profile;
}

SparsityProfile
SparsityProfile::randomA(int64_t rows, int64_t k, int tile,
                         double density, double cluster, Rng &rng)
{
    DSTC_ASSERT(density >= 0.0 && density <= 1.0);
    DSTC_ASSERT(cluster >= 1.0);
    const int groups =
        static_cast<int>(ceilDiv(rows, static_cast<int64_t>(tile)));
    SparsityProfile profile(groups, k, tile, rows);

    // Clustered pattern: a region (one warp tile: tile rows x tile
    // k-steps) is active with probability density/local; active
    // regions carry density*cluster locally so the global density is
    // preserved. Region-level clustering is what pruned checkpoints
    // exhibit (dead neurons/heads) and what the warp-bitmap skips.
    const double local = std::min(1.0, density * cluster);
    const double p_active = local > 0.0 ? density / local : 0.0;

    for (int g = 0; g < groups; ++g) {
        const int span = static_cast<int>(
            std::min<int64_t>(tile, rows - static_cast<int64_t>(g) * tile));
        for (int64_t kb = 0; kb < k; kb += tile) {
            if (!rng.bernoulli(p_active))
                continue;
            const int64_t kb_hi = std::min(k, kb + tile);
            for (int64_t kk = kb; kk < kb_hi; ++kk) {
                int nnz = 0;
                for (int i = 0; i < span; ++i)
                    nnz += rng.bernoulli(local);
                profile.setCount(g, kk, nnz);
            }
        }
    }
    return profile;
}

} // namespace dstc
