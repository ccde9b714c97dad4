/**
 * @file
 * Two-level bitmap encoding (Fig. 9): a warp-bitmap marking which
 * warp tiles are non-empty, plus a per-tile element bitmap and packed
 * values. Localizing non-zeros inside a tile keeps the outer-product
 * partial matrix inside the Tensor Core's accumulation buffer, and a
 * '0' warp-bit lets the whole tile be skipped.
 */
#ifndef DSTC_SPARSE_TWO_LEVEL_H
#define DSTC_SPARSE_TWO_LEVEL_H

#include <cstdint>
#include <vector>

#include "sparse/bitmap.h"
#include "tensor/matrix.h"

namespace dstc {

/**
 * The warp-tile edge of the SpGEMM operands: A is tiled
 * kWarpTile x tile_k (column-major lines), B tile_k x kWarpTile
 * (row-major lines), so the outer-product partial matrix of one
 * k-step is kWarpTile x kWarpTile and fits the Tensor Core's
 * accumulation buffer (Sec. III-B). tile_k is the one tiling knob.
 */
constexpr int kWarpTile = 32;

/** Two-level (warp-bitmap + element-bitmap) sparse matrix. */
class TwoLevelBitmapMatrix
{
  public:
    TwoLevelBitmapMatrix() = default;

    /**
     * Encode a dense matrix with @p tile_rows x @p tile_cols warp
     * tiles. Partial edge tiles are allowed. Values within each tile
     * are packed in @p major order (Col for the A operand, Row for B).
     * @p spec fills every tile's quantized value lane; integer specs
     * must carry the *matrix-global* scale (tiles of one operand
     * share it), which is why the spec is computed by the caller.
     */
    static TwoLevelBitmapMatrix encode(const Matrix<float> &dense,
                                       int tile_rows, int tile_cols,
                                       Major major,
                                       const QuantSpec &spec = {});

    /**
     * Assemble a two-level matrix from already-encoded warp tiles,
     * in (tile-row major) tileIndex order — one entry per tile,
     * clipped edge tiles included. The warp-bitmap is derived from
     * each tile's nnz. This is the word-parallel construction path:
     * producers that already hold per-tile bitmaps (the implicit
     * im2col) skip the dense staging of encode() entirely. @p spec
     * records the quantization the tiles' value lanes were built
     * with (it is bookkeeping here — the tiles already hold their
     * lane values).
     */
    static TwoLevelBitmapMatrix fromTiles(int rows, int cols,
                                          int tile_rows, int tile_cols,
                                          Major major,
                                          std::vector<BitmapMatrix> tiles,
                                          const QuantSpec &spec = {});

    /** Reconstruct the dense matrix. */
    Matrix<float> decode() const;

    /**
     * Slice: the encoding restricted to @p tile_rows (ascending tile
     * row indices), all tile columns kept. Tiles are shared-copied
     * into a fromTiles assembly — no re-encode, no value pass. For an
     * A operand (tile rows span M) this is exactly the operand view
     * of an M-partitioned class: because tiles are self-contained,
     * slice(encode(A)) is bitwise identical to encode(slice(A)).
     * Only the matrix's (possibly clipped) last tile row may appear
     * in a non-final position — it never can under ascending order.
     */
    TwoLevelBitmapMatrix
    selectTileRows(const std::vector<int> &tile_rows) const;

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int tileRows() const { return tile_rows_; }
    int tileCols() const { return tile_cols_; }
    int numTileRows() const { return n_tile_rows_; }
    int numTileCols() const { return n_tile_cols_; }

    /** The quantization the value lanes were encoded with. */
    const QuantSpec &spec() const { return spec_; }

    /** Warp-bitmap bit: true iff tile (tr, tc) holds any non-zero. */
    bool tileNonEmpty(int tr, int tc) const;

    /** Non-zero count of tile (tr, tc). */
    int tileNnz(int tr, int tc) const;

    /**
     * Element bitmap of tile (tr, tc) as a one-level BitmapMatrix of
     * the tile's actual (possibly clipped) dimensions. Empty tiles
     * return an all-zero bitmap.
     */
    const BitmapMatrix &tile(int tr, int tc) const;

    /** Count of non-empty tiles (POPC of the warp-bitmap). */
    int nonEmptyTiles() const;

    /** Total non-zeros. */
    int nnz() const;

    /**
     * Bytes occupied: warp-bitmap + element bitmaps of non-empty
     * tiles + values at the encoding datatype's lane width (FP16 by
     * default, half that for int8, a quarter for int4). Empty tiles
     * store only their warp-bit, which is how very sparse matrices
     * shrink (paper Sec. VI-D).
     */
    size_t encodedBytes() const;

  private:
    int tileIndex(int tr, int tc) const { return tr * n_tile_cols_ + tc; }

    int rows_ = 0, cols_ = 0;
    int tile_rows_ = 0, tile_cols_ = 0;
    int n_tile_rows_ = 0, n_tile_cols_ = 0;
    Major major_ = Major::Row;
    QuantSpec spec_;
    std::vector<uint64_t> warp_bits_;
    std::vector<BitmapMatrix> tiles_;
};

} // namespace dstc

#endif // DSTC_SPARSE_TWO_LEVEL_H
