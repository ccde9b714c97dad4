#include "gemm/lane_step.h"

#include <algorithm>

#include "common/logging.h"

namespace dstc {

void
LaneStrip::expand(std::span<const BitmapMatrix *const> tiles, int tile_k)
{
    DSTC_ASSERT(tile_k > 0, "tile_k must be positive");
    tile_k_ = tile_k;
    tiles_k_ = static_cast<int>(tiles.size());
    const size_t lines = tiles.size() * static_cast<size_t>(tile_k);
    lanes_.resize(lines * kLanes);
    words_.resize(lines);
    occupied_.resize(tiles.size());
    for (int tk = 0; tk < tiles_k_; ++tk) {
        const BitmapMatrix *t = tiles[tk];
        if (!t)
            continue;
        DSTC_ASSERT(t->lineLength() <= kLanes && t->numLines() <= tile_k,
                    "a strip tile holds at most ", tile_k, " lines of ",
                    kLanes, " lanes");
        occupied_[tk] = t->occupiedLines();
        float *lane = lanes_.data() + static_cast<size_t>(tk) * tile_k *
                                          kLanes;
        uint32_t *word = words_.data() + static_cast<size_t>(tk) * tile_k;
        for (int s = 0; s < t->numLines(); ++s, lane += kLanes) {
            const auto w = static_cast<uint32_t>(t->lineBits(s)[0]);
            word[s] = w;
            if (w == 0)
                continue;
            std::fill_n(lane, kLanes, 0.0f);
            const float *val = t->lineValuesFp16(s).data();
            for (uint32_t b = w; b; b &= b - 1)
                lane[std::countr_zero(b)] = *val++;
        }
    }
}

namespace {

/** Bits of -0.0f, the value an off-lane adds. */
constexpr uint32_t kNegZeroBits = 0x80000000u;

/**
 * One live k-step. The predicate is a bitwise select on the
 * product's bits rather than `cond ? x : y`, which GCC will not
 * vectorize for AVX2/SSE2. An off-lane adds -0.0f, and x + (-0.0f)
 * is x bit for bit for every x except a signalling NaN (which it
 * quiets); arithmetic never produces one, so only a caller that
 * pre-fills the accumulator with a signalling NaN can tell.
 */
__attribute__((always_inline)) inline void
liveStep(float *__restrict tile, uint32_t word,
         const float *__restrict vals, uint32_t lane_word,
         const float *__restrict lane)
{
    uint32_t keep[kLanes];
    for (int j = 0; j < kLanes; ++j)
        keep[j] = 0u - ((lane_word >> j) & 1u);
    for (int i = 0; word; ++i, word &= word - 1) {
        const float v = vals[i];
        float *__restrict row = tile + std::countr_zero(word) * kLanes;
        for (int j = 0; j < kLanes; ++j) {
            const uint32_t prod = std::bit_cast<uint32_t>(v * lane[j]);
            row[j] += std::bit_cast<float>((prod & keep[j]) |
                                           (~keep[j] & kNegZeroBits));
        }
    }
}

/** The one strip-kernel body; the chunk and step loops run inside
 *  each target's build, so dispatch costs one call per output tile. */
__attribute__((always_inline)) inline void
stripKernelBody(float *__restrict tile, const LaneStrip &strip,
                const BitmapMatrix *const *other)
{
    for (int tk = 0; tk < strip.tilesK(); ++tk) {
        const BitmapMatrix *t = other[tk];
        if (!t)
            continue;
        const float *lanes = strip.lanes(tk);
        const uint32_t *words = strip.words(tk);
        const int k = t->numLines();
        if (k <= 64) {
            for (uint64_t live = t->occupiedLines() & strip.occupied(tk);
                 live; live &= live - 1) {
                const int s = std::countr_zero(live);
                liveStep(tile, static_cast<uint32_t>(t->lineBits(s)[0]),
                         t->lineValuesFp16(s).data(), words[s],
                         lanes + s * kLanes);
            }
            continue;
        }
        // Past 64 lines the occupancy words are all ones.
        for (int s = 0; s < k; ++s)
            if (words[s] != 0 && t->lineNnz(s) != 0)
                liveStep(tile, static_cast<uint32_t>(t->lineBits(s)[0]),
                         t->lineValuesFp16(s).data(), words[s],
                         lanes + s * kLanes);
    }
}

void
stripKernelDefault(float *__restrict tile, const LaneStrip &strip,
                   const BitmapMatrix *const *other)
{
    stripKernelBody(tile, strip, other);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void
stripKernelAvx2(float *__restrict tile, const LaneStrip &strip,
                const BitmapMatrix *const *other)
{
    stripKernelBody(tile, strip, other);
}

__attribute__((target("avx512f"))) void
stripKernelAvx512f(float *__restrict tile, const LaneStrip &strip,
                   const BitmapMatrix *const *other)
{
    stripKernelBody(tile, strip, other);
}
#endif

std::vector<StripKernelVariant>
supportedVariants()
{
    std::vector<StripKernelVariant> variants;
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        variants.push_back({"avx512f", stripKernelAvx512f});
    if (__builtin_cpu_supports("avx2"))
        variants.push_back({"avx2", stripKernelAvx2});
#endif
    variants.push_back({"default", stripKernelDefault});
    return variants;
}

} // namespace

std::span<const StripKernelVariant>
stripKernelVariants()
{
    static const std::vector<StripKernelVariant> variants =
        supportedVariants();
    return variants;
}

StripKernelFn
stripKernel()
{
    static const StripKernelFn fn = stripKernelVariants().front().fn;
    return fn;
}

void
loadLaneTile(const float *src, int ld, int rows, int cols,
             bool a_on_lanes, float *tile)
{
    for (int r = 0; r < rows; ++r) {
        const float *row = src + static_cast<size_t>(r) * ld;
        if (!a_on_lanes) {
            std::copy_n(row, cols, tile + r * kLanes);
            continue;
        }
        for (int c = 0; c < cols; ++c)
            tile[c * kLanes + r] = row[c];
    }
}

void
storeLaneTile(const float *tile, int rows, int cols, bool a_on_lanes,
              float *dst, int ld)
{
    for (int r = 0; r < rows; ++r) {
        float *row = dst + static_cast<size_t>(r) * ld;
        if (!a_on_lanes) {
            std::copy_n(tile + r * kLanes, cols, row);
            continue;
        }
        for (int c = 0; c < cols; ++c)
            row[c] = tile[c * kLanes + r];
    }
}

} // namespace dstc
