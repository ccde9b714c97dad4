#include "gemm/lane_step.h"

#include <vector>

#include "common/logging.h"

namespace dstc {

namespace {

/** Bits of -0.0f, the value an off-lane adds. */
constexpr uint32_t kNegZeroBits = 0x80000000u;

/**
 * The one lane-step body. The predicate is a bitwise select on the
 * product's bits rather than `cond ? x : y`, which GCC will not
 * vectorize for AVX2/SSE2. An off-lane adds -0.0f, and x + (-0.0f)
 * is x bit for bit for every x except a signalling NaN (which it
 * quiets); arithmetic never produces one, so only a caller that
 * pre-fills the accumulator with a signalling NaN can tell.
 */
__attribute__((always_inline)) inline void
laneStepBody(float *__restrict tile, uint32_t a_word,
             const float *__restrict a_vals, uint32_t b_word,
             const float *__restrict b_lane)
{
    uint32_t keep[kLanes];
    for (int j = 0; j < kLanes; ++j)
        keep[j] = 0u - ((b_word >> j) & 1u);
    for (int ia = 0; a_word; ++ia, a_word &= a_word - 1) {
        const float av = a_vals[ia];
        float *__restrict row = tile + std::countr_zero(a_word) * kLanes;
        for (int j = 0; j < kLanes; ++j) {
            const uint32_t prod = std::bit_cast<uint32_t>(av * b_lane[j]);
            row[j] += std::bit_cast<float>((prod & keep[j]) |
                                           (~keep[j] & kNegZeroBits));
        }
    }
}

void
laneStepDefault(float *__restrict tile, uint32_t a_word,
                const float *__restrict a_vals, uint32_t b_word,
                const float *__restrict b_lane)
{
    laneStepBody(tile, a_word, a_vals, b_word, b_lane);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void
laneStepAvx2(float *__restrict tile, uint32_t a_word,
             const float *__restrict a_vals, uint32_t b_word,
             const float *__restrict b_lane)
{
    laneStepBody(tile, a_word, a_vals, b_word, b_lane);
}

__attribute__((target("avx512f"))) void
laneStepAvx512f(float *__restrict tile, uint32_t a_word,
                const float *__restrict a_vals, uint32_t b_word,
                const float *__restrict b_lane)
{
    laneStepBody(tile, a_word, a_vals, b_word, b_lane);
}
#endif

std::vector<LaneStepVariant>
supportedVariants()
{
    std::vector<LaneStepVariant> variants;
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        variants.push_back({"avx512f", laneStepAvx512f});
    if (__builtin_cpu_supports("avx2"))
        variants.push_back({"avx2", laneStepAvx2});
#endif
    variants.push_back({"default", laneStepDefault});
    return variants;
}

} // namespace

std::span<const LaneStepVariant>
laneStepVariants()
{
    static const std::vector<LaneStepVariant> variants =
        supportedVariants();
    return variants;
}

LaneStepFn
laneStep()
{
    static const LaneStepFn fn = laneStepVariants().front().fn;
    return fn;
}

void
accumulateTile(const BitmapMatrix &a_tile, const BitmapMatrix &b_tile,
               float *tile, LaneStepFn step)
{
    DSTC_ASSERT(a_tile.rows() <= kLanes && b_tile.cols() <= kLanes,
                "lane tile holds at most ", kLanes, "x", kLanes);
    forEachLiveStep(a_tile, b_tile, [&](int s) {
        // Expand the B line into dense lanes; off-lanes stay 0 and
        // are masked by the predicate anyway.
        alignas(64) float b_lane[kLanes] = {};
        const auto b_word = static_cast<uint32_t>(b_tile.lineBits(s)[0]);
        const float *val_b = b_tile.lineValuesFp16(s).data();
        for (uint32_t w = b_word; w; w &= w - 1)
            b_lane[std::countr_zero(w)] = *val_b++;
        step(tile, static_cast<uint32_t>(a_tile.lineBits(s)[0]),
             a_tile.lineValuesFp16(s).data(), b_word, b_lane);
    });
}

} // namespace dstc
