/**
 * @file
 * The request-level datatype axis: which storage format the encoded
 * operand value lanes carry, and the quantization function that maps
 * raw FP32 operand values into that lane.
 *
 * The paper's dual-side sparse pipeline never inspects lane width —
 * condensed value arrays, popcount-driven outer products and the
 * merge model are all datatype-agnostic — so one QuantSpec threaded
 * through encode (where values are rounded once) parameterizes the
 * whole stack:
 *
 *  - fp32/fp16/bf16 lanes store the value rounded to the lane's
 *    precision (scale is always 1); products accumulate in FP32,
 *    exactly as the Tensor Core datapath converts-then-accumulates.
 *  - int8/int4 lanes store symmetric-quantized integer *codes*
 *    (rint(v / scale), clamped) with one per-matrix scale
 *    (max|v| / max_code). Codes are small integers, so FP32
 *    accumulation of code products is exact and order-independent up
 *    to 2^24 — the software model of an int32 accumulator — and the
 *    real-valued output is recovered by one deferred per-element
 *    scale_a * scale_b multiply after all accumulation. That is what
 *    makes every quantized path bitwise-deterministic for any worker
 *    count and bitwise-equal across backends.
 *
 * The sparsity pattern is always the *raw* value pattern: a non-zero
 * that quantizes to code 0 keeps its bitmap bit (and stores a zero
 * lane value), so bitmaps, popcount profiles and operand digests are
 * datatype-invariant.
 */
#ifndef DSTC_COMMON_DATATYPE_H
#define DSTC_COMMON_DATATYPE_H

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/fp16.h"
#include "common/vocabulary.h"

namespace dstc {

/** Operand storage datatype of a kernel request. */
enum class DataType
{
    Fp32, ///< full-precision lanes (no rounding)
    Fp16, ///< IEEE binary16 lanes — the paper's default datapath
    Bf16, ///< bfloat16 lanes (FP32 with a truncated mantissa)
    Int8, ///< symmetric per-matrix int8 codes, int32 accumulation
    Int4, ///< symmetric per-matrix int4 codes, int32 accumulation
};

/** The datatypes, their CLI tokens and display names. */
inline constexpr Term<DataType> kDataTypes[] = {
    {DataType::Fp32, "fp32", "FP32"},
    {DataType::Fp16, "fp16", "FP16"},
    {DataType::Bf16, "bf16", "BF16"},
    {DataType::Int8, "int8", "INT8 (symmetric, int32 accumulate)"},
    {DataType::Int4, "int4", "INT4 (symmetric, int32 accumulate)"},
};
static_assert(listsEveryValue(kDataTypes, DataType::Int4));

/** Storage bits of one encoded operand value. */
constexpr int
dataTypeValueBits(DataType dtype)
{
    switch (dtype) {
      case DataType::Fp32:
        return 32;
      case DataType::Fp16:
      case DataType::Bf16:
        return 16;
      case DataType::Int8:
        return 8;
      case DataType::Int4:
        return 4;
    }
    return 16;
}

/** True for the integer-code datatypes (int8/int4). */
constexpr bool
dataTypeIsInteger(DataType dtype)
{
    return dtype == DataType::Int8 || dtype == DataType::Int4;
}

/** Bytes of one operand value as a real (int4 packs two per byte). */
constexpr double
dataTypeValueBytes(DataType dtype)
{
    return dataTypeValueBits(dtype) / 8.0;
}

/**
 * Bytes of one *output* element written back to DRAM. Floating
 * outputs are written at the operand width (the FP16 default matches
 * the seed model's dense-FP16 write-back); integer outputs are
 * written re-quantized at the operand width (1 byte for int8 and,
 * conservatively, int4 — output codes need the wider range).
 */
constexpr double
dataTypeOutputBytes(DataType dtype)
{
    switch (dtype) {
      case DataType::Fp32:
        return 4.0;
      case DataType::Fp16:
      case DataType::Bf16:
        return 2.0;
      case DataType::Int8:
      case DataType::Int4:
        return 1.0;
    }
    return 2.0;
}

/**
 * Tensor-Core MAC-rate multiplier relative to the FP16 pipe: narrow
 * integer lanes double (int8) or quadruple (int4) the per-cycle MAC
 * throughput, the way Turing/Ampere IMMA paths do. Divides the
 * modeled compute time.
 */
constexpr double
dataTypeComputeScale(DataType dtype)
{
    switch (dtype) {
      case DataType::Fp32:
      case DataType::Fp16:
      case DataType::Bf16:
        return 1.0;
      case DataType::Int8:
        return 2.0;
      case DataType::Int4:
        return 4.0;
    }
    return 1.0;
}

/**
 * Per-MAC energy multiplier relative to the FP16 pipe, in the spirit
 * of the Horowitz ISSCC'14 operation-energy survey: multiplier energy
 * shrinks roughly quadratically with operand width, the FP32
 * accumulate is shared. bf16 is marginally cheaper than fp16 (7-bit
 * multiplier mantissa vs 10). Scales the MAC terms of the energy
 * model; the bitmap/POPC/merge machinery is datatype-agnostic.
 */
constexpr double
dataTypeMacEnergyScale(DataType dtype)
{
    switch (dtype) {
      case DataType::Fp32:
        return 2.2;
      case DataType::Fp16:
        return 1.0;
      case DataType::Bf16:
        return 0.9;
      case DataType::Int8:
        return 0.3;
      case DataType::Int4:
        return 0.15;
    }
    return 1.0;
}

/** Largest symmetric code of an integer datatype (0 for float). */
constexpr int
dataTypeMaxCode(DataType dtype)
{
    switch (dtype) {
      case DataType::Int8:
        return 127;
      case DataType::Int4:
        return 7;
      default:
        return 0;
    }
}

/** Bytes of @p count packed values of @p dtype (int4 nibble-packs). */
constexpr size_t
dataTypePackedBytes(DataType dtype, size_t count)
{
    return (count * static_cast<size_t>(dataTypeValueBits(dtype)) + 7) /
           8;
}

/**
 * Round a float through bfloat16 precision: round-to-nearest-even on
 * the top 16 bits of the FP32 pattern. Inf stays Inf; NaN keeps a
 * mantissa bit so it stays NaN.
 */
inline float
roundToBf16(float value)
{
    uint32_t f = std::bit_cast<uint32_t>(value);
    if ((f & 0x7f800000u) == 0x7f800000u) {
        uint32_t r = f & 0xffff0000u;
        if (f & 0x007fffffu)
            r |= 0x00400000u;
        return std::bit_cast<float>(r);
    }
    const uint32_t rounded = f + 0x7fffu + ((f >> 16) & 1u);
    return std::bit_cast<float>(rounded & 0xffff0000u);
}

/**
 * The quantization applied to one operand's value lane at encode
 * time: a datatype plus (for the integer types) the symmetric
 * per-matrix scale. Default-constructed, it is the seed pipeline's
 * FP16 rounding — every pre-datatype call site keeps its exact
 * bitwise behaviour.
 */
struct QuantSpec
{
    DataType dtype = DataType::Fp16;

    /** Integer code step: lane code = rint(value / scale). Always
     *  1.0 for the floating datatypes. */
    float scale = 1.0f;

    bool integer() const { return dataTypeIsInteger(dtype); }

    /**
     * The lane value of raw operand value @p v: the precision-rounded
     * value for floating datatypes, the (clamped) integer code as a
     * float for int8/int4. apply(0) == 0 for every spec, so the
     * bitmap's zero/non-zero split is unaffected.
     */
    float
    apply(float v) const
    {
        switch (dtype) {
          case DataType::Fp32:
            return v;
          case DataType::Fp16:
            return roundToFp16(v);
          case DataType::Bf16:
            return roundToBf16(v);
          case DataType::Int8:
          case DataType::Int4: {
            const float max_code =
                static_cast<float>(dataTypeMaxCode(dtype));
            float code = std::rint(v / scale);
            if (code > max_code)
                code = max_code;
            if (code < -max_code)
                code = -max_code;
            return code;
          }
        }
        return v;
    }

    /**
     * The per-element factor that maps an accumulated sum of lane
     * products back to real-valued output: scale_a * scale_b for an
     * integer operand pair, exactly 1.0 for floating pairs (whose
     * lanes already hold real values). Applied once, after all
     * accumulation — order-free, so it preserves worker-count and
     * cross-backend bitwise equality.
     */
    static float
    outputScale(const QuantSpec &a, const QuantSpec &b)
    {
        return a.integer() || b.integer() ? a.scale * b.scale : 1.0f;
    }

    /** Spec for a matrix whose largest |value| is @p max_abs. Floating
     *  datatypes ignore it; integer scales map max_abs to the largest
     *  code (scale 1 for an all-zero operand). */
    static QuantSpec
    forMaxAbs(DataType dtype, float max_abs)
    {
        QuantSpec s{dtype, 1.0f};
        if (dataTypeIsInteger(dtype) && max_abs > 0.0f)
            s.scale = max_abs /
                      static_cast<float>(dataTypeMaxCode(dtype));
        return s;
    }

    /** forMaxAbs over a contiguous value range (serial max pass —
     *  max is order-independent, so the scale is deterministic). */
    static QuantSpec forValues(DataType dtype, const float *data,
                               size_t n);

    bool operator==(const QuantSpec &other) const = default;
};

} // namespace dstc

#endif // DSTC_COMMON_DATATYPE_H
