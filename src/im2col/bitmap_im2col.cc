#include "im2col/bitmap_im2col.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/logging.h"
#include "core/thread_pool.h"

namespace dstc {

BitmapFeatureMap
BitmapFeatureMap::encode(const Tensor4d &input)
{
    BitmapFeatureMap fmap;
    fmap.channels_ = input.c();
    fmap.planes_.reserve(static_cast<size_t>(input.n()) * input.c());
    // NCHW planes are contiguous h x w blocks: encode each straight
    // from the tensor storage, 64 elements per bitmap word.
    const size_t plane_elems =
        static_cast<size_t>(input.h()) * input.w();
    const float *data = input.data().data();
    for (int n = 0; n < input.n(); ++n) {
        for (int c = 0; c < input.c(); ++c) {
            const size_t offset =
                (static_cast<size_t>(n) * input.c() + c) * plane_elems;
            fmap.planes_.push_back(BitmapMatrix::encodePlane(
                data + offset, input.h(), input.w()));
        }
    }
    return fmap;
}

size_t
BitmapFeatureMap::encodedBytes() const
{
    size_t bytes = 0;
    for (const auto &p : planes_)
        bytes += p.encodedBytes();
    return bytes;
}

Matrix<float>
LoweredFeatureMap::decode() const
{
    Matrix<float> dense(rows, cols);
    for (int j = 0; j < cols; ++j) {
        const LoweredColumn &col = columns[j];
        size_t vi = 0;
        for (int r = 0; r < rows; ++r) {
            if (getBit(col.bits, r)) {
                DSTC_ASSERT(vi < col.values.size());
                dense.at(r, j) = col.values[vi++];
            }
        }
        DSTC_ASSERT(vi == col.values.size(),
                    "column ", j, " bitmap/value mismatch");
    }
    return dense;
}

int
LoweredFeatureMap::columnNnz(int j) const
{
    return popcountRange(columns[j].bits, 0,
                         static_cast<size_t>(rows));
}

int64_t
LoweredFeatureMap::totalNnz() const
{
    int64_t total = 0;
    for (int j = 0; j < cols; ++j)
        total += columnNnz(j);
    return total;
}

TwoLevelBitmapMatrix
LoweredFeatureMap::toTwoLevel(int tile_m, int tile_k,
                              int num_workers) const
{
    DSTC_ASSERT(tile_m == kWarpTile && tile_k > 0,
                "the lowered map retiles into ", kWarpTile,
                "-row warp tiles");
    const int tiles_m = ceilDiv(rows, kWarpTile);
    const int tiles_k = ceilDiv(cols, tile_k);
    std::vector<BitmapMatrix> tiles(static_cast<size_t>(tiles_m) *
                                    tiles_k);

    // One 64-bit column word holds two consecutive 32-row tile
    // slices; the tail tile keeps whatever bits remain (the column
    // bitmap is zero past `rows`).
    static_assert(kWarpTile == 32, "a word holds two tile slices");
    auto slice = [&](int j, int ti) -> uint64_t {
        const uint64_t word =
            columns[j].bits[static_cast<size_t>(ti) >> 1];
        return (ti & 1) ? word >> 32 : word & 0xffffffffu;
    };

    // Each k-group of tile_k lowered columns fills a disjoint column
    // of tiles, so groups partition over workers with no reduction
    // needed — every tile is written exactly once. Two passes: the
    // sizing pass counts every tile's non-zeros, then the fill pass
    // copies each tile's parts into exactly-sized arrays (no growth
    // checks in either loop).
    auto run_group = [&](int64_t tkl) {
        const int tk = static_cast<int>(tkl);
        const int j0 = tk * tile_k;
        const int j1 = std::min(cols, j0 + tile_k);
        const int g_cols = j1 - j0;

        std::vector<int64_t> tile_nnz(static_cast<size_t>(tiles_m),
                                      0);
        for (int j = j0; j < j1; ++j) {
            int nnz = 0;
            for (int ti = 0; ti < tiles_m; ++ti) {
                const int cnt = popcount64(slice(j, ti));
                tile_nnz[static_cast<size_t>(ti)] += cnt;
                nnz += cnt;
            }
            DSTC_ASSERT(nnz == static_cast<int>(columns[j].values.size()),
                        "toTwoLevel requires a value-gathered "
                        "lowering (column ", j, ")");
        }

        // Fill pass, tile rows ascending: the condensed values of a
        // (column, tile-row) slice are the next `cnt` entries of the
        // column's packed arrays (the prefix-popcount address-offset
        // trick, per tile boundary), so one cursor per column walks
        // them.
        std::vector<int> cursor(static_cast<size_t>(g_cols), 0);
        for (int ti = 0; ti < tiles_m; ++ti) {
            const int t_rows =
                std::min(kWarpTile, rows - ti * kWarpTile);
            std::vector<uint64_t> bits(static_cast<size_t>(g_cols));
            std::vector<int> offsets(static_cast<size_t>(g_cols) + 1);
            const size_t nnz =
                static_cast<size_t>(tile_nnz[static_cast<size_t>(ti)]);
            std::vector<float> values(nnz);
            std::vector<float> fp16(nnz);
            size_t vi = 0;
            for (int j = j0; j < j1; ++j) {
                const LoweredColumn &col = columns[j];
                const uint64_t chunk = slice(j, ti);
                bits[static_cast<size_t>(j - j0)] = chunk;
                const int cnt = popcount64(chunk);
                int &src = cursor[static_cast<size_t>(j - j0)];
                std::copy(col.values.begin() + src,
                          col.values.begin() + src + cnt,
                          values.begin() + vi);
                std::copy(col.values_fp16.begin() + src,
                          col.values_fp16.begin() + src + cnt,
                          fp16.begin() + vi);
                src += cnt;
                vi += static_cast<size_t>(cnt);
                offsets[static_cast<size_t>(j - j0) + 1] =
                    static_cast<int>(vi);
            }
            tiles[static_cast<size_t>(ti) * tiles_k + tk] =
                BitmapMatrix::fromPacked(
                    t_rows, g_cols, Major::Col, std::move(bits),
                    std::move(values), std::move(fp16),
                    std::move(offsets));
        }
    };

    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(num_workers, &max_workers);
    parallelFor(pool, tiles_k, max_workers, run_group);

    return TwoLevelBitmapMatrix::fromTiles(rows, cols, kWarpTile,
                                           tile_k, Major::Col,
                                           std::move(tiles));
}

namespace {

/** Appends bit runs into a packed column bitmap. */
class BitWriter
{
  public:
    explicit BitWriter(std::vector<uint64_t> &bits) : bits_(bits) {}

    /** Pre-size the backing store for @p total bits: every append
     *  then writes in place (no reallocation in the row loop). */
    BitWriter(std::vector<uint64_t> &bits, size_t total) : bits_(bits)
    {
        bits_.assign((total >> 6) + 2, 0);
    }

    /** Append the low @p count bits of @p chunk (count <= 64). */
    void
    append(uint64_t chunk, int count)
    {
        DSTC_ASSERT(count >= 0 && count <= 64);
        if (count == 0)
            return;
        chunk &= lowMask64(count);
        size_t word = pos_ >> 6;
        int offset = static_cast<int>(pos_ & 63);
        if (word >= bits_.size())
            bits_.resize(word + 2, 0);
        bits_[word] |= chunk << offset;
        if (offset + count > 64) {
            if (word + 1 >= bits_.size())
                bits_.resize(word + 2, 0);
            bits_[word + 1] |= chunk >> (64 - offset);
        }
        pos_ += count;
    }

    /** Append @p count zero bits. */
    void
    skip(int count)
    {
        pos_ += count;
        size_t need = (pos_ + 63) >> 6;
        if (need > bits_.size())
            bits_.resize(need, 0);
    }

  private:
    std::vector<uint64_t> &bits_;
    size_t pos_ = 0;
};

/**
 * Extract bits [start, start + count) of a row bitmap and append
 * them to @p writer; positions outside [0, row_len) read as zero
 * (padding). Counts the word operations performed into @p ops and
 * returns the popcount of the extracted window — the S4 value count
 * falls out of the gathered words for free. No staging buffer: each
 * word goes straight to the column bitmap.
 */
int
extractRowBitsInto(std::span<const uint64_t> row, int row_len,
                   int start, int count, BitWriter &writer,
                   int64_t &ops)
{
    auto word_at = [&](int w) -> uint64_t {
        if (w < 0 || w >= static_cast<int>(row.size()))
            return 0;
        return row[w];
    };
    int hits = 0;
    for (int t = 0; t < count; t += 64) {
        const int want = std::min(64, count - t);
        const int src = start + t;
        // Gather up to two source words and shift into place: the
        // "shift left / apply mask" steps of Fig. 11b. Out-of-range
        // source words read as zero, which realizes the padding.
        const int w0 = src >= 0 ? src >> 6 : -ceilDiv(-src, 64);
        const int off = src - (w0 << 6);
        uint64_t chunk = word_at(w0) >> off;
        if (off != 0)
            chunk |= word_at(w0 + 1) << (64 - off);
        ops += 3;
        // Clamp to the valid tail of the row.
        if (src + want > row_len) {
            const int valid = row_len - src;
            chunk &= valid <= 0 ? 0 : lowMask64(valid);
            ++ops;
        }
        chunk &= lowMask64(want);
        hits += popcount64(chunk);
        writer.append(chunk, want);
    }
    return hits;
}

/**
 * One source word of a strided window gather: which row word to
 * read, the stride mask selecting the window positions it holds
 * (clipped at the window ends), and the compressor that compacts
 * those bits LSB-first. The same geometry repeats for every
 * feature-map row of a lowered column, so the plan — including the
 * parallel-suffix masks a portable PEXT needs — is built once per
 * column and reused batch * out_h times.
 */
struct StridedWordStep
{
    int w = 0;      ///< source word index (may be out of range)
    Pext64 extract; ///< clipped stride mask + compressor
    int n_out = 0;  ///< window bits this word contributes
};

/** Lay out the per-word steps of a stride-s gather of window
 *  positions iw = start + ow*stride, ow in [0, out_w). */
std::vector<StridedWordStep>
planStridedGather(int start, int stride, int out_w)
{
    auto floor64 = [](int x) {
        return x >= 0 ? x >> 6 : -((-x + 63) >> 6);
    };
    const int last = start + (out_w - 1) * stride;
    const int res = ((start % stride) + stride) % stride;
    std::vector<StridedWordStep> plan;
    plan.reserve(static_cast<size_t>(floor64(last) -
                                     floor64(start) + 1));
    for (int w = floor64(start); w <= floor64(last); ++w) {
        const int64_t wbase = static_cast<int64_t>(w) << 6;
        // First in-word position congruent to the window residue.
        const int phase = static_cast<int>(
            ((res - wbase) % stride + stride) % stride);
        uint64_t mask = strideMask64(phase, stride);
        if (wbase < start)
            mask &= ~lowMask64(static_cast<int>(start - wbase));
        if (wbase + 63 > last)
            mask &= lowMask64(static_cast<int>(last - wbase) + 1);
        plan.push_back(
            {w, Pext64(mask), popcount64(mask)});
    }
    return plan;
}

/**
 * Word-parallel stride-s gather of one feature-map row: each plan
 * step selects the window bits its source word holds via the stride
 * mask and compacts them into consecutive output bits with PEXT —
 * the deinterleave the per-bit probe loop used to do one position
 * at a time. Values ride along by rank: a running popcount of the
 * full row words gives each hit's index into the line's condensed
 * arrays with one POPC per hit, instead of a prefix scan from
 * position zero. Out-of-range source words read as zero, which
 * realizes the padding for free. Bit-for-bit identical to the
 * per-bit gather.
 */
void
gatherStridedRowWord(const BitmapMatrix &plane, int ih, int row_len,
                     const std::vector<StridedWordStep> &plan,
                     bool gather_values, BitWriter &writer,
                     LoweredColumn &out, int64_t &ops)
{
    const auto row = plane.lineBits(ih);
    auto word_at = [&](int w) -> uint64_t {
        return w >= 0 && w < static_cast<int>(row.size()) ? row[w]
                                                          : 0;
    };
    const auto vals = plane.lineValues(ih);
    const auto vals16 = plane.lineValuesFp16(ih);
    // Rank of the row prefix [0, 64w) for the current word w:
    // initialized once at the first word holding a hit, advanced by
    // one full-word POPC per word after that (bits past row_len are
    // zero by construction, so whole words are safe to count).
    int prefix = -1;
    for (const StridedWordStep &step : plan) {
        const uint64_t word = word_at(step.w);
        const uint64_t hits = word & step.extract.mask();
        writer.append(step.extract.apply(hits), step.n_out);
        ops += 3; // AND, PEXT, append
        if (gather_values && step.w >= 0) {
            if (hits != 0) {
                if (prefix < 0)
                    prefix = plane.linePopcount(
                        ih, 0,
                        std::min(row_len, step.w * 64));
                uint64_t h = hits;
                while (h) {
                    const int b = std::countr_zero(h);
                    h &= h - 1;
                    const int idx =
                        prefix + popcount64(word & lowMask64(b));
                    out.values.push_back(vals[idx]);
                    out.values_fp16.push_back(vals16[idx]);
                    ops += 2; // rank POPC + condensed load
                }
            }
            if (prefix >= 0)
                prefix += popcount64(word);
        }
    }
}

/** Lower one (c, kh, kw) column of the feature map. */
void
lowerColumn(const BitmapFeatureMap &fmap, const ConvShape &shape,
            bool gather_values, bool word_strided, int c, int kh,
            int kw, LoweredColumn &out, int64_t &ops)
{
    const int out_h = shape.outH();
    const int out_w = shape.outW();
    BitWriter writer(out.bits,
                     static_cast<size_t>(shape.loweredRows()));
    if (gather_values) {
        // Size the condensed arrays for the expected hit count (the
        // plane density over the column's windows) so the row loop
        // appends without reallocating.
        const size_t expect =
            static_cast<size_t>(shape.loweredRows() / 4 + 16);
        out.values.reserve(expect);
        out.values_fp16.reserve(expect);
    }
    // The strided gather geometry is identical for every feature-map
    // row of this column: plan it (masks + PEXT compressors) once.
    std::vector<StridedWordStep> strided_plan;
    if (shape.stride > 1 && word_strided)
        strided_plan = planStridedGather(kw - shape.pad, shape.stride,
                                         out_w);
    for (int n = 0; n < shape.batch; ++n) {
        const BitmapMatrix &plane = fmap.plane(n, c);
        for (int oh = 0; oh < out_h; ++oh) {
            const int ih = oh * shape.stride + kh - shape.pad;
            if (ih < 0 || ih >= shape.in_h) {
                writer.skip(out_w);
                continue;
            }
            const int start = kw - shape.pad;
            if (shape.stride == 1) {
                // Fast path: the window is a contiguous slice of the
                // row bitmap; its popcount (the S4 value count) falls
                // out of the extraction.
                const int cnt =
                    extractRowBitsInto(plane.lineBits(ih), shape.in_w,
                                       start, out_w, writer, ops);
                // Address offset by popcount of the prefix (S3), then
                // take the masked values in order (S4) — sliced
                // straight from the plane's packed arrays into the
                // column tail, FP32 and the encode-time FP16 mirror
                // together.
                const int lo = std::max(0, start);
                const int hi = std::min(shape.in_w, start + out_w);
                if (gather_values && hi > lo) {
                    ops += 2; // 2x POPC
                    if (cnt > 0) {
                        const int offset =
                            plane.linePopcount(ih, 0, lo);
                        const auto vals = plane.lineValues(ih);
                        const auto vals16 = plane.lineValuesFp16(ih);
                        out.values.insert(
                            out.values.end(), vals.begin() + offset,
                            vals.begin() + offset + cnt);
                        out.values_fp16.insert(
                            out.values_fp16.end(),
                            vals16.begin() + offset,
                            vals16.begin() + offset + cnt);
                    }
                }
            } else if (word_strided) {
                gatherStridedRowWord(plane, ih, shape.in_w,
                                     strided_plan, gather_values,
                                     writer, out, ops);
            } else {
                // The retained per-bit gather: bitmap tests + one
                // prefix popcount per hit. This is the scalar
                // reference runScalar pins against.
                uint64_t chunk = 0;
                int filled = 0;
                for (int ow = 0; ow < out_w; ++ow) {
                    const int iw = ow * shape.stride + start;
                    bool set = iw >= 0 && iw < shape.in_w &&
                               plane.bit(ih, iw);
                    ++ops;
                    if (set) {
                        chunk |= uint64_t{1} << filled;
                        if (gather_values) {
                            const int off =
                                plane.linePopcount(ih, 0, iw);
                            out.values.push_back(
                                plane.lineValues(ih)[off]);
                            out.values_fp16.push_back(
                                plane.lineValuesFp16(ih)[off]);
                        }
                        ++ops;
                    }
                    if (++filled == 64) {
                        writer.append(chunk, 64);
                        chunk = 0;
                        filled = 0;
                    }
                }
                if (filled > 0)
                    writer.append(chunk, filled);
            }
        }
    }
}

} // namespace

LoweredFeatureMap
im2colFromBitmap(const BitmapFeatureMap &fmap, const ConvShape &shape,
                 bool gather_values, int num_workers,
                 bool word_strided)
{
    LoweredFeatureMap lowered;
    lowered.rows = static_cast<int>(shape.loweredRows());
    lowered.cols = static_cast<int>(shape.loweredCols());
    lowered.columns.resize(lowered.cols);

    // Lowered columns are independent: each is produced from the
    // read-only planes into its own slot, so the column loop
    // partitions over workers; the per-column op counters reduce in
    // column order below, keeping the cost metric (like the values)
    // identical for any worker count.
    std::vector<int64_t> column_ops(
        static_cast<size_t>(lowered.cols), 0);
    const int kk = shape.kernel * shape.kernel;
    auto run_column = [&](int64_t col) {
        const int c = static_cast<int>(col) / kk;
        const int kh = (static_cast<int>(col) % kk) / shape.kernel;
        const int kw = static_cast<int>(col) % shape.kernel;
        lowerColumn(fmap, shape, gather_values, word_strided, c, kh,
                    kw, lowered.columns[static_cast<size_t>(col)],
                    column_ops[static_cast<size_t>(col)]);
        // Normalize the bitmap length to cover all M rows.
        lowered.columns[static_cast<size_t>(col)].bits.resize(
            ceilDiv(static_cast<size_t>(lowered.rows), size_t{64}),
            0);
    };

    int max_workers = 1;
    ThreadPool *pool = resolveTilePool(num_workers, &max_workers);
    parallelFor(pool, lowered.cols, max_workers, run_column);

    for (int64_t ops : column_ops)
        lowered.register_ops += ops;
    return lowered;
}

} // namespace dstc
