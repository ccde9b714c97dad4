/**
 * @file
 * Word-parallel dense-operand encoders: the online encode stage the
 * paper assumes is cheap enough to run on both GEMM sides (Sec. VI).
 *
 * Every function here is bitwise identical to its element-wise
 * counterpart (BitmapMatrix::encode / TwoLevelBitmapMatrix::encode /
 * SparsityProfile::fromMatrix*), which stay as the test references.
 * The difference is purely mechanical: bits are built 64 elements
 * per word with branchless compares, column-major bitmaps come out
 * of 64x64 block transposes instead of per-element probes, values
 * are packed by ctz walks over the words (quantized once, at encode
 * time), and each 64-bit word splits into two 32-element warp-tile
 * lines (the warp tile is fixed at kWarpTile) that assemble straight
 * into the tiles through BitmapMatrix::fromPacked — no full-matrix
 * bitmap is ever built.
 */
#ifndef DSTC_SPARSE_WORD_ENCODE_H
#define DSTC_SPARSE_WORD_ENCODE_H

#include <cstdint>
#include <vector>

#include "sparse/bitmap.h"
#include "sparse/narrow_tile.h"
#include "sparse/two_level.h"
#include "tensor/matrix.h"

namespace dstc {

/**
 * The bitmap words of @p dense alone (no values), in the line-major
 * layout of BitmapMatrix: wordsPerLine() words per packing line,
 * LSB-first, for callers that only need popcounts (profile
 * extraction).
 */
std::vector<uint64_t> wordEncodeBits(const Matrix<float> &dense,
                                     Major major,
                                     int *words_per_line);

/**
 * Word-parallel TwoLevelBitmapMatrix::encode of a SpGEMM operand at
 * the fixed warp-tile edge: A as Major::Col with tile_rows ==
 * kWarpTile (tile_cols = tile_k), B as Major::Row with tile_cols ==
 * kWarpTile (tile_rows = tile_k); any other edge fails an assert.
 * Column-major operands pack their rows and non-zeros in one pass,
 * block-transpose the row words and permute the values straight into
 * their tiles; row-major operands split each row word into its two
 * tile chunks and gather the values from the cache-resident row. No
 * dense staging, no per-element probes, no re-rounding.
 *
 * @param num_workers partitions the independent tile line groups
 *        over the shared pool (SpGemmOptions::num_workers contract:
 *        0 = all hardware threads, 1 = serial in the caller). Tiles
 *        are disjoint, so the result is bitwise identical to the
 *        element-wise encode for every worker count.
 * @param spec fills the quantized value lane (FP16 default). The
 *        spec applies per element, so worker partitioning cannot
 *        change it; integer specs carry the matrix-global scale
 *        computed by the caller (QuantSpec::forValues).
 */
TwoLevelBitmapMatrix wordEncodeTwoLevel(const Matrix<float> &dense,
                                        int tile_rows, int tile_cols,
                                        Major major,
                                        int num_workers = 1,
                                        const QuantSpec &spec = {});

/**
 * Word-parallel NarrowTileMatrix::encode: each 8-row strip packs its
 * row words (64 compares per word), ORs them into the strip's
 * level-1 vector-bitmap words, and gathers vector masks and values
 * by ctz walks while the strip's rows are cache-resident — a sizing
 * pass then a fill pass, like the two-level row builder. Strips are
 * disjoint, so the result is bitwise identical to the scalar
 * NarrowTileMatrix::encode for every worker count (same
 * num_workers contract as wordEncodeTwoLevel).
 */
NarrowTileMatrix wordEncodeNarrowTile(const Matrix<float> &dense,
                                      int num_workers = 1,
                                      const QuantSpec &spec = {});

/**
 * Non-zero count of @p n floats by branchless 64-bit mask build +
 * POPC (no per-element branch to mispredict). Identical to counting
 * `v != 0.0f` element-wise.
 */
int64_t wordNnz(const float *data, size_t n);

/** Matrix::sparsity() via wordNnz — the word-parallel density probe
 *  the plan paths use on concrete operands. */
double wordSparsity(const Matrix<float> &m);

} // namespace dstc

#endif // DSTC_SPARSE_WORD_ENCODE_H
