/**
 * @file
 * The DataType axis end to end: QuantSpec semantics, per-datatype
 * error bounds against the FP32 reference, the bitwise-determinism
 * guarantees of the quantized paths (worker counts, backends,
 * golden model), and EncodingCache isolation across datatypes.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/datatype.h"
#include "core/session.h"
#include "gemm/dense_gemm.h"
#include "gemm/spgemm_device.h"
#include "tensor/matrix.h"
#include "tensor/reference.h"
#include "timing/gpu_config.h"

namespace dstc {
namespace {

constexpr DataType kAllTypes[] = {DataType::Fp32, DataType::Fp16,
                                  DataType::Bf16, DataType::Int8,
                                  DataType::Int4};

QuantSpec
specOf(DataType dtype, const Matrix<float> &m)
{
    return QuantSpec::forValues(dtype, m.data().data(),
                                m.data().size());
}

// ---------------------------------------------------------------
// QuantSpec / datatype unit semantics
// ---------------------------------------------------------------

TEST(DataTypeSpec, PackedBytes)
{
    // int4 nibble-packs: 3 values round up to 2 bytes.
    EXPECT_EQ(dataTypePackedBytes(DataType::Int4, 3), 2u);
    EXPECT_EQ(dataTypePackedBytes(DataType::Int4, 2), 1u);
    EXPECT_EQ(dataTypePackedBytes(DataType::Int8, 3), 3u);
    EXPECT_EQ(dataTypePackedBytes(DataType::Fp16, 3), 6u);
    EXPECT_EQ(dataTypePackedBytes(DataType::Fp32, 1), 4u);
    EXPECT_EQ(dataTypePackedBytes(DataType::Int4, 0), 0u);
}

TEST(DataTypeSpec, Bf16Rounding)
{
    // 1.0 + 2^-9 rounds down (nearest-even on an 8-bit mantissa);
    // 1.0 + 3 * 2^-9 rounds up to 1 + 2^-7.
    EXPECT_EQ(roundToBf16(1.0f + 0x1p-9f), 1.0f);
    EXPECT_EQ(roundToBf16(1.0f + 3 * 0x1p-9f), 1.0f + 0x1p-7f);
    // Exactly representable values survive.
    EXPECT_EQ(roundToBf16(-2.5f), -2.5f);
    EXPECT_EQ(roundToBf16(0.0f), 0.0f);
    // Inf stays Inf, NaN stays NaN.
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(roundToBf16(inf), inf);
    EXPECT_TRUE(std::isnan(
        roundToBf16(std::numeric_limits<float>::quiet_NaN())));
}

TEST(DataTypeSpec, IntegerApplyClampsAndRounds)
{
    QuantSpec s{DataType::Int8, 0.5f};
    EXPECT_EQ(s.apply(1.0f), 2.0f);   // 1.0 / 0.5
    EXPECT_EQ(s.apply(-1.25f), -2.0f); // rint half-to-even
    EXPECT_EQ(s.apply(1000.0f), 127.0f);
    EXPECT_EQ(s.apply(-1000.0f), -127.0f);
    EXPECT_EQ(s.apply(0.0f), 0.0f);

    QuantSpec s4{DataType::Int4, 1.0f};
    EXPECT_EQ(s4.apply(100.0f), 7.0f);
    EXPECT_EQ(s4.apply(-100.0f), -7.0f);
}

TEST(DataTypeSpec, ForMaxAbsMapsToLargestCode)
{
    const QuantSpec s8 = QuantSpec::forMaxAbs(DataType::Int8, 6.35f);
    EXPECT_FLOAT_EQ(s8.scale, 6.35f / 127.0f);
    EXPECT_EQ(s8.apply(6.35f), 127.0f);

    const QuantSpec s4 = QuantSpec::forMaxAbs(DataType::Int4, 14.0f);
    EXPECT_FLOAT_EQ(s4.scale, 2.0f);
    EXPECT_EQ(s4.apply(14.0f), 7.0f);

    // All-zero operands keep scale 1 (no division by zero).
    EXPECT_FLOAT_EQ(
        QuantSpec::forMaxAbs(DataType::Int8, 0.0f).scale, 1.0f);
    // Floating datatypes ignore max_abs.
    EXPECT_FLOAT_EQ(
        QuantSpec::forMaxAbs(DataType::Fp16, 100.0f).scale, 1.0f);
}

TEST(DataTypeSpec, OutputScaleDefersIntegerScales)
{
    QuantSpec a{DataType::Int8, 0.25f};
    QuantSpec b{DataType::Int8, 0.5f};
    EXPECT_FLOAT_EQ(QuantSpec::outputScale(a, b), 0.125f);
    QuantSpec f16{DataType::Fp16, 1.0f};
    EXPECT_FLOAT_EQ(QuantSpec::outputScale(f16, f16), 1.0f);
}

// ---------------------------------------------------------------
// Accuracy: each datatype's output against the FP32 reference
// ---------------------------------------------------------------

double
errorBound(DataType dtype)
{
    // k = 96 at ~50% density: ~48 products of values in [-1, 1).
    // Bounds are per-element worst cases with generous headroom; the
    // ordering (int4 >> int8 ~ bf16 >> fp16 >> fp32) is the claim.
    switch (dtype) {
      case DataType::Fp32:
        return 1e-4; // accumulation-order noise only
      case DataType::Fp16:
        return 0.05;
      case DataType::Bf16:
        return 0.5;
      case DataType::Int8:
        return 1.0;
      case DataType::Int4:
        return 10.0;
    }
    return 0.0;
}

TEST(DataTypeAccuracy, ErrorBoundedAgainstFp32Reference)
{
    Rng rng(7);
    const Matrix<float> a = randomSparseMatrix(96, 96, 0.5, rng);
    const Matrix<float> b = randomSparseMatrix(96, 96, 0.5, rng);
    const Matrix<float> ref = refGemm(a, b);

    SpGemmDevice spgemm((GpuConfig()));
    for (DataType dtype : kAllTypes) {
        SpGemmOptions opts;
        opts.functional = true;
        opts.dtype = dtype;
        const Matrix<float> d = spgemm.multiply(a, b, opts).d;
        EXPECT_LT(maxAbsDiff(d, ref), errorBound(dtype))
            << tokenOf(kDataTypes, dtype);
        // The datapath must not be a silent FP32 passthrough: every
        // narrowed type shows *some* rounding on random data.
        if (dtype != DataType::Fp32) {
            EXPECT_GT(maxAbsDiff(d, ref), 0.0)
                << tokenOf(kDataTypes, dtype);
        }
    }
}

// ---------------------------------------------------------------
// Bitwise determinism of the quantized paths
// ---------------------------------------------------------------

TEST(DataTypeDeterminism, IntegerResultsInvariantToWorkerCount)
{
    Rng rng(11);
    const Matrix<float> a = randomSparseMatrix(128, 96, 0.9, rng);
    const Matrix<float> b = randomSparseMatrix(96, 128, 0.9, rng);

    SpGemmDevice spgemm((GpuConfig()));
    for (DataType dtype : {DataType::Int8, DataType::Int4}) {
        SpGemmOptions serial;
        serial.functional = true;
        serial.dtype = dtype;
        serial.num_workers = 1;
        const Matrix<float> want = spgemm.multiply(a, b, serial).d;

        for (int workers : {2, 4, 0}) {
            SpGemmOptions opts = serial;
            opts.num_workers = workers;
            const Matrix<float> got = spgemm.multiply(a, b, opts).d;
            EXPECT_TRUE(got == want)
                << tokenOf(kDataTypes, dtype) << " diverged at num_workers="
                << workers;
        }
    }
}

TEST(DataTypeDeterminism, DenseEqualsDualSparseForIntegers)
{
    Rng rng(13);
    const Matrix<float> a = randomSparseMatrix(96, 64, 0.5, rng);
    const Matrix<float> b = randomSparseMatrix(64, 96, 0.5, rng);

    const GpuConfig cfg;
    SpGemmDevice spgemm(cfg);
    DenseGemmDevice dense(cfg);
    for (DataType dtype : {DataType::Int8, DataType::Int4}) {
        SpGemmOptions opts;
        opts.functional = true;
        opts.dtype = dtype;
        const Matrix<float> dual = spgemm.multiply(a, b, opts).d;
        const Matrix<float> d =
            dense.multiply(a, b, specOf(dtype, a), specOf(dtype, b));
        EXPECT_TRUE(d == dual) << tokenOf(kDataTypes, dtype);
    }
}

TEST(DataTypeDeterminism, IntegerEngineMatchesGoldenModelBitwise)
{
    // Integer code products accumulate exactly in FP32 (< 2^24), so
    // the engine's tile order and the golden model's increasing-k
    // order reach the same sums bit for bit; the deferred sa * sb
    // multiply is then identical on both sides.
    Rng rng(17);
    const Matrix<float> a = randomSparseMatrix(96, 96, 0.7, rng);
    const Matrix<float> b = randomSparseMatrix(96, 96, 0.7, rng);

    SpGemmDevice spgemm((GpuConfig()));
    for (DataType dtype : {DataType::Int8, DataType::Int4}) {
        SpGemmOptions opts;
        opts.functional = true;
        opts.dtype = dtype;
        const Matrix<float> d = spgemm.multiply(a, b, opts).d;
        const Matrix<float> ref =
            refGemmQuant(a, b, specOf(dtype, a), specOf(dtype, b));
        EXPECT_EQ(maxAbsDiff(d, ref), 0.0) << tokenOf(kDataTypes, dtype);
    }
}

// ---------------------------------------------------------------
// EncodingCache isolation across datatypes
// ---------------------------------------------------------------

TEST(DataTypeCache, NoCollisionAcrossDataTypes)
{
    Rng rng(19);
    const Matrix<float> a = randomSparseMatrix(96, 96, 0.6, rng);
    const Matrix<float> b = randomSparseMatrix(96, 96, 0.6, rng);

    const auto request = [&](DataType dtype) {
        return KernelRequest::gemm(a, b)
            .withMethod(Method::DualSparse)
            .withDataType(dtype);
    };

    // Fresh single-datatype sessions give the uncontaminated answers.
    Matrix<float> want16, want8;
    {
        Session s;
        want16 = *s.run(request(DataType::Fp16)).d;
    }
    {
        Session s;
        want8 = *s.run(request(DataType::Int8)).d;
    }
    ASSERT_FALSE(want16 == want8); // distinct datapaths on this data

    // One shared session: the int8 run must not be served the fp16
    // encodings (a key collision would hand it fp16 value lanes).
    Session shared;
    const KernelReport r16 = shared.run(request(DataType::Fp16));
    EXPECT_FALSE(r16.encode_cache_hit);
    const KernelReport r8 = shared.run(request(DataType::Int8));
    EXPECT_FALSE(r8.encode_cache_hit)
        << "int8 request hit the fp16 cache entry";
    EXPECT_TRUE(*r16.d == want16);
    EXPECT_TRUE(*r8.d == want8);

    // Same datatype still caches: a repeat int8 run hits and stays
    // bitwise identical.
    const KernelReport r8again = shared.run(request(DataType::Int8));
    EXPECT_TRUE(r8again.encode_cache_hit);
    EXPECT_TRUE(*r8again.d == want8);
}

} // namespace
} // namespace dstc
