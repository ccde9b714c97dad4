#include "sparse/word_encode.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/fp16.h"
#include "common/logging.h"
#include "core/thread_pool.h"

namespace dstc {

namespace {

// Both two-level encoders split each 64-bit word into two warp-tile
// lines.
static_assert(kWarpTile == 32, "a word holds two tile lines");

/** Row-major bitmap words: one branchless pass over the storage. */
std::vector<uint64_t>
rowMajorBits(const Matrix<float> &dense, int wpl)
{
    const int rows = dense.rows(), cols = dense.cols();
    std::vector<uint64_t> bits(static_cast<size_t>(rows) * wpl, 0);
    const float *data = dense.data().data();
    for (int r = 0; r < rows; ++r) {
        const float *row = data + static_cast<size_t>(r) * cols;
        uint64_t *words = bits.data() + static_cast<size_t>(r) * wpl;
        for (int c0 = 0; c0 < cols; c0 += 64)
            words[c0 >> 6] =
                packNonzeroBits(row + c0, std::min(64, cols - c0));
    }
    return bits;
}

/**
 * Column-major bitmap words from the row-major ones via 64x64 block
 * transposes — no per-element column probes anywhere.
 */
std::vector<uint64_t>
transposeBits(const std::vector<uint64_t> &row_bits, int rows,
              int cols, int wpl_row, int wpl_col)
{
    std::vector<uint64_t> bits(static_cast<size_t>(cols) * wpl_col,
                               0);
    uint64_t blk[64];
    for (int r0 = 0; r0 < rows; r0 += 64) {
        const int block_rows = std::min(64, rows - r0);
        for (int cw = 0; cw < wpl_row; ++cw) {
            for (int j = 0; j < block_rows; ++j)
                blk[j] =
                    row_bits[static_cast<size_t>(r0 + j) * wpl_row +
                             cw];
            for (int j = block_rows; j < 64; ++j)
                blk[j] = 0;
            transpose64x64(blk);
            const int span = std::min(64, cols - cw * 64);
            for (int i = 0; i < span; ++i)
                bits[static_cast<size_t>(cw * 64 + i) * wpl_col +
                     (r0 >> 6)] = blk[i];
        }
    }
    return bits;
}

/**
 * Row-major two-level encode (the B operand: tile_rows x kWarpTile
 * tiles), built directly from the dense rows: each tile-row group
 * packs its row words (64 compares per word), splits every word into
 * its two 32-bit tile chunks, and gathers each chunk's values straight from
 * the still-cache-resident dense row into the owning tile's arrays.
 * No full-matrix bitmap intermediate, no second value copy — the
 * dense matrix streams through twice (sizing + fill) while the
 * group's rows stay hot.
 */
TwoLevelBitmapMatrix
wordEncodeTwoLevelRow32(const Matrix<float> &dense, int tile_rows,
                        int num_workers, const QuantSpec &spec)
{
    const int rows = dense.rows(), cols = dense.cols();
    const int n_tile_rows = ceilDiv(rows, tile_rows);
    const int n_tile_cols = ceilDiv(cols, kWarpTile);
    const int wpl_row = ceilDiv(cols, 64);
    const float *data = dense.data().data();

    std::vector<BitmapMatrix> tiles(static_cast<size_t>(n_tile_rows) *
                                    n_tile_cols);

    auto run_group = [&](int64_t gl) {
        const int g = static_cast<int>(gl);
        const int r0 = g * tile_rows;
        const int r1 = std::min(rows, r0 + tile_rows);
        const int g_rows = r1 - r0;

        // Sizing pass: build the group's row words once and
        // accumulate each tile column's nnz from the word halves.
        std::vector<uint64_t> words(
            static_cast<size_t>(g_rows) * wpl_row);
        std::vector<int> tile_nnz(
            static_cast<size_t>(n_tile_cols), 0);
        for (int r = r0; r < r1; ++r) {
            const float *row = data + static_cast<size_t>(r) * cols;
            uint64_t *rw = words.data() +
                           static_cast<size_t>(r - r0) * wpl_row;
            for (int c0 = 0; c0 < cols; c0 += 64) {
                const uint64_t word = packNonzeroBits(
                    row + c0, std::min(64, cols - c0));
                rw[c0 >> 6] = word;
                const int p = c0 >> 5;
                tile_nnz[static_cast<size_t>(p)] +=
                    popcount64(word & 0xffffffffu);
                if (p + 1 < n_tile_cols)
                    tile_nnz[static_cast<size_t>(p) + 1] +=
                        popcount64(word >> 32);
            }
        }

        std::vector<std::vector<uint64_t>> t_bits(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<int>> t_offsets(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<float>> t_values(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<float>> t_fp16(
            static_cast<size_t>(n_tile_cols));
        std::vector<int> vi(static_cast<size_t>(n_tile_cols), 0);
        for (int p = 0; p < n_tile_cols; ++p) {
            const size_t nnz = static_cast<size_t>(
                tile_nnz[static_cast<size_t>(p)]);
            t_bits[static_cast<size_t>(p)].resize(
                static_cast<size_t>(g_rows));
            t_offsets[static_cast<size_t>(p)].assign(
                static_cast<size_t>(g_rows) + 1, 0);
            t_values[static_cast<size_t>(p)].resize(nnz);
            t_fp16[static_cast<size_t>(p)].resize(nnz);
        }

        // Fill pass: split each row word into its two tile chunks
        // and gather the chunk's values from the dense row by ctz.
        for (int r = r0; r < r1; ++r) {
            const float *row = data + static_cast<size_t>(r) * cols;
            const uint64_t *rw =
                words.data() +
                static_cast<size_t>(r - r0) * wpl_row;
            for (int p = 0; p < n_tile_cols; ++p) {
                const uint64_t word =
                    rw[static_cast<size_t>(p) >> 1];
                uint64_t chunk = (p & 1) ? word >> 32
                                         : word & 0xffffffffu;
                t_bits[static_cast<size_t>(p)]
                      [static_cast<size_t>(r - r0)] = chunk;
                float *values =
                    t_values[static_cast<size_t>(p)].data();
                int at = vi[static_cast<size_t>(p)];
                const int c_base = p * kWarpTile;
                while (chunk) {
                    const int b = std::countr_zero(chunk);
                    chunk &= chunk - 1;
                    values[at++] = row[c_base + b];
                }
                vi[static_cast<size_t>(p)] = at;
                t_offsets[static_cast<size_t>(p)]
                         [static_cast<size_t>(r - r0) + 1] = at;
            }
        }

        // Quantized mirrors in contiguous per-tile passes, then
        // assemble.
        for (int p = 0; p < n_tile_cols; ++p) {
            auto &values = t_values[static_cast<size_t>(p)];
            auto &fp16 = t_fp16[static_cast<size_t>(p)];
            for (size_t i = 0; i < values.size(); ++i)
                fp16[i] = spec.apply(values[i]);
            const int t_cols =
                std::min(kWarpTile, cols - p * kWarpTile);
            tiles[static_cast<size_t>(g) * n_tile_cols + p] =
                BitmapMatrix::fromPacked(
                    g_rows, t_cols, Major::Row,
                    std::move(t_bits[static_cast<size_t>(p)]),
                    std::move(t_values[static_cast<size_t>(p)]),
                    std::move(t_fp16[static_cast<size_t>(p)]),
                    std::move(t_offsets[static_cast<size_t>(p)]));
        }
    };

    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(num_workers, &max_workers);
    parallelFor(pool, n_tile_rows, max_workers, run_group);

    return TwoLevelBitmapMatrix::fromTiles(rows, cols, tile_rows,
                                           kWarpTile, Major::Row,
                                           std::move(tiles), spec);
}

/**
 * Column-major two-level encode (the A operand: kWarpTile x
 * tile_cols tiles): one fused pass packs row words and the non-zeros
 * in row-major order, the block transpose yields the column words,
 * and a counting-sort permute then drops every value straight into
 * its owning tile's arrays (cursor per (column, tile-row)) — no
 * full-matrix bitmap and no second value copy. Tile rows are
 * independent: each owns its rows' permute span (per-row source
 * offsets from pass 1), its tiles and its cursors, so the group
 * loop partitions over workers with every write disjoint.
 */
TwoLevelBitmapMatrix
wordEncodeTwoLevelCol32(const Matrix<float> &dense, int tile_cols,
                        int num_workers, const QuantSpec &spec)
{
    const int rows = dense.rows(), cols = dense.cols();
    const int n_tile_rows = ceilDiv(rows, kWarpTile);
    const int n_tile_cols = ceilDiv(cols, tile_cols);
    const int wpl_row = ceilDiv(cols, 64);
    const int wpl_col = ceilDiv(rows, 64);
    const float *data = dense.data().data();

    // Fused pass: row words + row-major packed values + per-row
    // source offsets (packRowsAndGatherValues; the dense matrix
    // streams through once).
    std::vector<uint64_t> row_bits(
        static_cast<size_t>(rows) * wpl_row, 0);
    std::vector<float> rm_values;
    rm_values.reserve(static_cast<size_t>(rows) * cols / 4);
    std::vector<int> row_start(static_cast<size_t>(rows) + 1, 0);
    packRowsAndGatherValues(data, rows, cols, wpl_row,
                            row_bits.data(), rm_values,
                            row_start.data());
    const std::vector<uint64_t> col_bits =
        transposeBits(row_bits, rows, cols, wpl_row, wpl_col);

    std::vector<BitmapMatrix> tiles(static_cast<size_t>(n_tile_rows) *
                                    n_tile_cols);

    auto run_group = [&](int64_t trl) {
        const int tr = static_cast<int>(trl);
        const int r0 = tr * kWarpTile;
        const int r1 = std::min(rows, r0 + kWarpTile);
        const int t_rows = r1 - r0;

        // Per-line counts from the column-word halves, accumulated
        // into per-tile offsets and the permute cursors.
        std::vector<std::vector<uint64_t>> t_bits(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<int>> t_offsets(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<float>> t_values(
            static_cast<size_t>(n_tile_cols));
        std::vector<std::vector<float>> t_fp16(
            static_cast<size_t>(n_tile_cols));
        std::vector<int> cursor(static_cast<size_t>(cols), 0);
        std::vector<float *> values_ptr(
            static_cast<size_t>(n_tile_cols));
        for (int tc = 0; tc < n_tile_cols; ++tc) {
            const int c0 = tc * tile_cols;
            const int c1 = std::min(cols, c0 + tile_cols);
            const int g_cols = c1 - c0;
            auto &bits = t_bits[static_cast<size_t>(tc)];
            auto &offsets = t_offsets[static_cast<size_t>(tc)];
            bits.resize(static_cast<size_t>(g_cols));
            offsets.assign(static_cast<size_t>(g_cols) + 1, 0);
            int nnz = 0;
            for (int c = c0; c < c1; ++c) {
                const uint64_t word =
                    col_bits[static_cast<size_t>(c) * wpl_col +
                             (static_cast<size_t>(tr) >> 1)];
                const uint64_t chunk = (tr & 1)
                                           ? word >> 32
                                           : word & 0xffffffffu;
                bits[static_cast<size_t>(c - c0)] = chunk;
                cursor[static_cast<size_t>(c)] = nnz;
                nnz += popcount64(chunk);
                offsets[static_cast<size_t>(c - c0) + 1] = nnz;
            }
            t_values[static_cast<size_t>(tc)].resize(
                static_cast<size_t>(nnz));
            t_fp16[static_cast<size_t>(tc)].resize(
                static_cast<size_t>(nnz));
            values_ptr[static_cast<size_t>(tc)] =
                t_values[static_cast<size_t>(tc)].data();
        }

        // Permute this tile row's span of the packed values: rows
        // ascending keeps each (column, tile-row) run in source
        // order, which is exactly the tile's line order.
        int src = row_start[static_cast<size_t>(r0)];
        for (int r = r0; r < r1; ++r) {
            const uint64_t *words =
                row_bits.data() + static_cast<size_t>(r) * wpl_row;
            for (int w = 0; w < wpl_row; ++w) {
                uint64_t word = words[w];
                const int base = w << 6;
                while (word) {
                    const int c = base + std::countr_zero(word);
                    word &= word - 1;
                    values_ptr[static_cast<size_t>(c / tile_cols)]
                              [static_cast<size_t>(
                                  cursor[static_cast<size_t>(c)]++)] =
                                  rm_values[static_cast<size_t>(
                                      src++)];
                }
            }
        }
        DSTC_ASSERT(src == row_start[static_cast<size_t>(r1)]);

        for (int tc = 0; tc < n_tile_cols; ++tc) {
            auto &values = t_values[static_cast<size_t>(tc)];
            auto &fp16 = t_fp16[static_cast<size_t>(tc)];
            for (size_t i = 0; i < values.size(); ++i)
                fp16[i] = spec.apply(values[i]);
            const int g_cols =
                std::min(tile_cols, cols - tc * tile_cols);
            tiles[static_cast<size_t>(tr) * n_tile_cols + tc] =
                BitmapMatrix::fromPacked(
                    t_rows, g_cols, Major::Col,
                    std::move(t_bits[static_cast<size_t>(tc)]),
                    std::move(t_values[static_cast<size_t>(tc)]),
                    std::move(t_fp16[static_cast<size_t>(tc)]),
                    std::move(t_offsets[static_cast<size_t>(tc)]));
        }
    };

    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(num_workers, &max_workers);
    parallelFor(pool, n_tile_rows, max_workers, run_group);

    return TwoLevelBitmapMatrix::fromTiles(rows, cols, kWarpTile,
                                           tile_cols, Major::Col,
                                           std::move(tiles), spec);
}

} // namespace

std::vector<uint64_t>
wordEncodeBits(const Matrix<float> &dense, Major major,
               int *words_per_line)
{
    const int line_len =
        major == Major::Col ? dense.rows() : dense.cols();
    const int wpl = ceilDiv(line_len, 64);
    if (words_per_line)
        *words_per_line = wpl;
    const int wpl_row = ceilDiv(dense.cols(), 64);
    if (major == Major::Row)
        return rowMajorBits(dense, wpl_row);
    return transposeBits(rowMajorBits(dense, wpl_row), dense.rows(),
                         dense.cols(), wpl_row, wpl);
}

TwoLevelBitmapMatrix
wordEncodeTwoLevel(const Matrix<float> &dense, int tile_rows,
                   int tile_cols, Major major, int num_workers,
                   const QuantSpec &spec)
{
    DSTC_ASSERT(tile_rows > 0 && tile_cols > 0);
    if (major == Major::Col) {
        DSTC_ASSERT(tile_rows == kWarpTile,
                    "column-major operands use ", kWarpTile,
                    "-row warp tiles");
        return wordEncodeTwoLevelCol32(dense, tile_cols, num_workers,
                                       spec);
    }
    DSTC_ASSERT(tile_cols == kWarpTile, "row-major operands use ",
                kWarpTile, "-column warp tiles");
    return wordEncodeTwoLevelRow32(dense, tile_rows, num_workers, spec);
}

NarrowTileMatrix
wordEncodeNarrowTile(const Matrix<float> &dense, int num_workers,
                     const QuantSpec &spec)
{
    constexpr int kStrip = NarrowTileMatrix::kStripRows;
    const int rows = dense.rows(), cols = dense.cols();
    const int n_strips = ceilDiv(rows, kStrip);
    const int wps = ceilDiv(cols, 64);
    const float *data = dense.data().data();

    // Sizing pass: per strip, pack the 8 row words per 64-column
    // chunk, OR them into the level-1 word, and count vectors (POPC
    // of the OR) and non-zeros (POPC of each row word).
    std::vector<uint64_t> vector_bits(
        static_cast<size_t>(n_strips) * wps, 0);
    std::vector<int64_t> strip_vectors(
        static_cast<size_t>(n_strips), 0);
    std::vector<int64_t> strip_nnz(static_cast<size_t>(n_strips), 0);

    auto size_strip = [&](int64_t sl) {
        const int s = static_cast<int>(sl);
        const int r0 = s * kStrip;
        const int span = std::min(kStrip, rows - r0);
        uint64_t *level1 =
            vector_bits.data() + static_cast<size_t>(s) * wps;
        int64_t nv = 0, nnz = 0;
        for (int c0 = 0; c0 < cols; c0 += 64) {
            const int chunk = std::min(64, cols - c0);
            uint64_t combined = 0;
            for (int j = 0; j < span; ++j) {
                const uint64_t w = packNonzeroBits(
                    data + static_cast<size_t>(r0 + j) * cols + c0,
                    chunk);
                combined |= w;
                nnz += popcount64(w);
            }
            level1[c0 >> 6] = combined;
            nv += popcount64(combined);
        }
        strip_vectors[static_cast<size_t>(s)] = nv;
        strip_nnz[static_cast<size_t>(s)] = nnz;
    };

    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(num_workers, &max_workers);
    parallelFor(pool, n_strips, max_workers, size_strip);

    // Serial prefix scans give every strip a disjoint slice of the
    // vector and value arrays.
    std::vector<int64_t> strip_offsets(
        static_cast<size_t>(n_strips) + 1, 0);
    std::vector<int64_t> value_base(static_cast<size_t>(n_strips) + 1,
                                    0);
    for (int s = 0; s < n_strips; ++s) {
        strip_offsets[static_cast<size_t>(s) + 1] =
            strip_offsets[static_cast<size_t>(s)] +
            strip_vectors[static_cast<size_t>(s)];
        value_base[static_cast<size_t>(s) + 1] =
            value_base[static_cast<size_t>(s)] +
            strip_nnz[static_cast<size_t>(s)];
    }
    const int64_t total_vectors =
        strip_offsets[static_cast<size_t>(n_strips)];
    const int64_t total_nnz = value_base[static_cast<size_t>(n_strips)];

    std::vector<uint8_t> masks(static_cast<size_t>(total_vectors));
    std::vector<int64_t> value_offsets(
        static_cast<size_t>(total_vectors) + 1, 0);
    std::vector<float> values(static_cast<size_t>(total_nnz));
    std::vector<float> values_quant(static_cast<size_t>(total_nnz));

    // Fill pass: re-pack each strip's row words (still one stream
    // over the dense rows, now cache-warm per strip), walk the
    // level-1 word by ctz in ascending column order, and gather each
    // vector's mask and values ascending row.
    auto fill_strip = [&](int64_t sl) {
        const int s = static_cast<int>(sl);
        const int r0 = s * kStrip;
        const int span = std::min(kStrip, rows - r0);
        int64_t v = strip_offsets[static_cast<size_t>(s)];
        int64_t at = value_base[static_cast<size_t>(s)];
        uint64_t row_words[kStrip];
        for (int c0 = 0; c0 < cols; c0 += 64) {
            const int chunk = std::min(64, cols - c0);
            uint64_t combined = 0;
            for (int j = 0; j < span; ++j) {
                row_words[j] = packNonzeroBits(
                    data + static_cast<size_t>(r0 + j) * cols + c0,
                    chunk);
                combined |= row_words[j];
            }
            while (combined) {
                const int b = std::countr_zero(combined);
                combined &= combined - 1;
                const int c = c0 + b;
                uint8_t mask = 0;
                for (int j = 0; j < span; ++j)
                    if ((row_words[j] >> b) & 1) {
                        mask |= static_cast<uint8_t>(1u << j);
                        values[static_cast<size_t>(at++)] =
                            data[static_cast<size_t>(r0 + j) * cols +
                                 c];
                    }
                masks[static_cast<size_t>(v)] = mask;
                value_offsets[static_cast<size_t>(v) + 1] = at;
                ++v;
            }
        }
        // Quantize this strip's contiguous value slice.
        for (int64_t i = value_base[static_cast<size_t>(s)]; i < at;
             ++i)
            values_quant[static_cast<size_t>(i)] =
                spec.apply(values[static_cast<size_t>(i)]);
    };
    parallelFor(pool, n_strips, max_workers, fill_strip);

    return NarrowTileMatrix::fromParts(
        rows, cols, spec, std::move(vector_bits),
        std::move(strip_offsets), std::move(masks),
        std::move(value_offsets), std::move(values),
        std::move(values_quant));
}

int64_t
wordNnz(const float *data, size_t n)
{
    int64_t count = 0;
    size_t i = 0;
    for (; i + 64 <= n; i += 64)
        count += popcount64(packNonzeroBits(data + i, 64));
    if (i < n)
        count += popcount64(
            packNonzeroBits(data + i, static_cast<int>(n - i)));
    return count;
}

double
wordSparsity(const Matrix<float> &m)
{
    const size_t total = m.size();
    if (total == 0)
        return 0.0;
    return 1.0 -
           static_cast<double>(wordNnz(m.data().data(), total)) /
               static_cast<double>(total);
}

} // namespace dstc
