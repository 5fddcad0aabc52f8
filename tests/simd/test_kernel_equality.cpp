/**
 * @file
 * Exhaustive scalar <-> vector-tier bit-equality over the full kernel
 * table, run once per vector tier (AVX2 and AVX-512) through a
 * value-parameterized fixture. Lengths 1..67 cover every (full-block,
 * lane, remainder) phase of the canonical lane-blocked reduction
 * several times over; the GEMM and MLP shapes stress remainder-heavy
 * panels. Every comparison is EXPECT_EQ on the doubles — bit identity,
 * not tolerance — because that is the contract the dispatch layer
 * sells. A tier the build or CPU lacks skips its instantiation
 * cleanly (the runtime probe half of the CI avx512 guard).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "simd/simd.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;

constexpr std::size_t kMaxLen = 67;

/** Deterministic operand with varied signs and magnitudes. */
std::vector<double>
operand(std::size_t n, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(-3.0, 3.0);
    return v;
}

/** Non-negative operand (distance weights). */
std::vector<double>
weightOperand(std::size_t n, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(0.0, 2.0);
    return v;
}

class KernelEquality : public ::testing::TestWithParam<simd::Tier>
{
  protected:
    void SetUp() override
    {
        switch (GetParam()) {
          case simd::Tier::Avx2:
            if (simd::avx2Kernels() == nullptr ||
                !simd::cpuSupportsAvx2())
                GTEST_SKIP()
                    << "AVX2 tier unavailable on this build/CPU";
            vec_ = simd::avx2Kernels();
            break;
          case simd::Tier::Avx512:
            if (simd::avx512Kernels() == nullptr ||
                !simd::cpuSupportsAvx512())
                GTEST_SKIP()
                    << "AVX-512 tier unavailable on this build/CPU";
            vec_ = simd::avx512Kernels();
            break;
          default:
            FAIL() << "parameterized over vector tiers only";
        }
    }

    const simd::KernelTable &scalar_ = simd::scalarKernels();
    const simd::KernelTable *vec_ = nullptr;
};

TEST_P(KernelEquality, ReductionsAgreeOnEveryLength)
{
    for (std::size_t n = 1; n <= kMaxLen; ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto a = operand(n, 100 + n);
        const auto b = operand(n, 200 + n);
        const auto w = weightOperand(n, 300 + n);
        EXPECT_EQ(scalar_.dot(a.data(), b.data(), n),
                  vec_->dot(a.data(), b.data(), n));
        EXPECT_EQ(scalar_.squaredDistance(a.data(), b.data(), n),
                  vec_->squaredDistance(a.data(), b.data(), n));
        EXPECT_EQ(scalar_.manhattan(a.data(), b.data(), n),
                  vec_->manhattan(a.data(), b.data(), n));
        EXPECT_EQ(
            scalar_.weightedSquaredDistance(a.data(), b.data(), w.data(),
                                            n),
            vec_->weightedSquaredDistance(a.data(), b.data(), w.data(),
                                          n));
        EXPECT_EQ(scalar_.centeredDot(a.data(), b.data(), 0.125, -0.75,
                                      n),
                  vec_->centeredDot(a.data(), b.data(), 0.125, -0.75,
                                    n));
    }
}

TEST_P(KernelEquality, ElementwiseSweepsAgreeOnEveryLength)
{
    for (std::size_t n = 1; n <= kMaxLen; ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto base = operand(n, 400 + n);
        const auto b = operand(n, 500 + n);

        auto s = base;
        auto v = base;
        scalar_.axpy(s.data(), b.data(), 1.25, n);
        vec_->axpy(v.data(), b.data(), 1.25, n);
        EXPECT_EQ(s, v);

        s = base;
        v = base;
        scalar_.scale(s.data(), -0.333, n);
        vec_->scale(v.data(), -0.333, n);
        EXPECT_EQ(s, v);

        s = base;
        v = base;
        scalar_.mulAdd(s.data(), b.data(), base.data(), n);
        vec_->mulAdd(v.data(), b.data(), base.data(), n);
        EXPECT_EQ(s, v);
    }
}

TEST_P(KernelEquality, GemmMicroAgreesOnRemainderHeavyShapes)
{
    const std::size_t shapes[] = {1,  2,  3,  5,  7,  8,  9, 15,
                                  16, 17, 31, 33, 63, 65, 67};
    for (std::size_t k : shapes) {
        for (std::size_t n : shapes) {
            SCOPED_TRACE("k=" + std::to_string(k) +
                         " n=" + std::to_string(n));
            auto a = operand(k, 600 + k);
            if (k > 2)
                a[k / 2] = 0.0; // exercise the zero-skip in both tiers
            const auto b = operand(k * n, 700 + k * 31 + n);
            auto cs = operand(n, 800 + n);
            auto cv = cs;
            scalar_.gemmMicro(k, n, a.data(), b.data(), n, cs.data());
            vec_->gemmMicro(k, n, a.data(), b.data(), n, cv.data());
            EXPECT_EQ(cs, cv);
        }
    }
}

TEST_P(KernelEquality, MlpKernelsAgreeAcrossLayerShapes)
{
    const std::size_t widths[] = {1, 2, 3, 5, 8, 15, 16, 17, 33, 67};
    for (std::size_t in : widths) {
        for (std::size_t out : widths) {
            SCOPED_TRACE("in=" + std::to_string(in) +
                         " out=" + std::to_string(out));
            const std::size_t ld = simd::mlpPadded(out);
            const std::size_t pin = simd::mlpPadded(in);
            const auto wt = operand(in * ld, 900 + in * 71 + out);
            const auto bias = operand(ld, 1000 + out);
            const auto a_in = operand(in, 1100 + in);

            std::vector<double> nets_s(ld, 0.0);
            std::vector<double> nets_v(ld, 0.0);
            scalar_.mlpLayerNets(in, out, ld, wt.data(), bias.data(),
                                 a_in.data(), nets_s.data());
            vec_->mlpLayerNets(in, out, ld, wt.data(), bias.data(),
                               a_in.data(), nets_v.data());
            for (std::size_t r = 0; r < out; ++r)
                EXPECT_EQ(nets_s[r], nets_v[r]) << "r=" << r;

            // Deltas: `out` plays the successor width here.
            const auto d_next = operand(ld, 1200 + out);
            std::vector<double> d_s(pin, 0.0);
            std::vector<double> d_v(pin, 0.0);
            scalar_.mlpLayerDeltas(in, out, ld, wt.data(), d_next.data(),
                                   d_s.data());
            vec_->mlpLayerDeltas(in, out, ld, wt.data(), d_next.data(),
                                 d_v.data());
            for (std::size_t j = 0; j < in; ++j)
                EXPECT_EQ(d_s[j], d_v[j]) << "j=" << j;

            // Momentum update mutates every buffer; compare them all
            // (pad lanes are free to differ between tiers).
            auto d2_s = operand(ld, 1300 + out);
            auto d2_v = d2_s;
            auto wt_s = wt;
            auto wt_v = wt;
            auto pwt_s = operand(in * ld, 1400 + in + out);
            auto pwt_v = pwt_s;
            auto bias_s = bias;
            auto bias_v = bias;
            auto pb_s = operand(ld, 1500 + out);
            auto pb_v = pb_s;
            scalar_.mlpUpdateLayer(in, out, ld, 0.05, 0.2, a_in.data(),
                                   d2_s.data(), wt_s.data(),
                                   pwt_s.data(), bias_s.data(),
                                   pb_s.data());
            vec_->mlpUpdateLayer(in, out, ld, 0.05, 0.2, a_in.data(),
                                 d2_v.data(), wt_v.data(),
                                 pwt_v.data(), bias_v.data(),
                                 pb_v.data());
            const std::size_t stride = out == 1 ? 1 : ld;
            for (std::size_t r = 0; r < out; ++r) {
                EXPECT_EQ(d2_s[r], d2_v[r]) << "r=" << r;
                EXPECT_EQ(bias_s[r], bias_v[r]) << "r=" << r;
                EXPECT_EQ(pb_s[r], pb_v[r]) << "r=" << r;
                for (std::size_t c = 0; c < in; ++c) {
                    EXPECT_EQ(wt_s[c * stride + r], wt_v[c * stride + r]);
                    EXPECT_EQ(pwt_s[c * stride + r],
                              pwt_v[c * stride + r]);
                }
            }
        }
    }
}

/**
 * The minibatch kernels. mlpBatchNets must equal running mlpLayerNets
 * row by row (the per-sample engine's arithmetic) and the vector tier
 * must match the scalar tier bit-for-bit; mlpGradAccum must equal the
 * zero-init sample-ascending rank-1 accumulation in the weight layout
 * and OVERWRITE any garbage already in gw. Strided variants cover
 * lda/ldd/ldc larger than the padded row width.
 */
TEST_P(KernelEquality, BatchKernelsMatchPerSampleLoops)
{
    const std::size_t bns[] = {1, 2, 3, 4, 5, 8, 13};
    const std::size_t ins[] = {1, 2, 7, 16, 28, 33};
    const std::size_t outs[] = {1, 2, 4, 8, 14, 17};
    for (std::size_t bn : bns) {
        for (std::size_t in : ins) {
            for (std::size_t out : outs) {
                SCOPED_TRACE("bn=" + std::to_string(bn) +
                             " in=" + std::to_string(in) +
                             " out=" + std::to_string(out));
                const std::size_t ld = simd::mlpPadded(out);
                const std::size_t stride = out == 1 ? 1 : ld;
                const std::size_t lda = in + (bn % 3);  // packed + padded
                const std::size_t ldc = ld + 8 * (bn % 2);
                const auto a =
                    operand(bn * lda, 2100 + bn * 131 + in * 7 + out);
                const auto wt = operand(in * ld, 2200 + in * 71 + out);
                const auto bias = operand(ld, 2300 + out);

                std::vector<double> ref(bn * ldc, 0.0);
                for (std::size_t s = 0; s < bn; ++s)
                    scalar_.mlpLayerNets(in, out, ld, wt.data(),
                                         bias.data(), a.data() + s * lda,
                                         ref.data() + s * ldc);

                std::vector<double> nets_s(bn * ldc, 0.0);
                scalar_.mlpBatchNets(bn, in, out, ld, a.data(), lda,
                                     wt.data(), bias.data(),
                                     nets_s.data(), ldc);
                std::vector<double> nets_v(bn * ldc, 0.0);
                vec_->mlpBatchNets(bn, in, out, ld, a.data(), lda,
                                   wt.data(), bias.data(), nets_v.data(),
                                   ldc);
                for (std::size_t s = 0; s < bn; ++s)
                    for (std::size_t r = 0; r < out; ++r) {
                        EXPECT_EQ(ref[s * ldc + r], nets_s[s * ldc + r]);
                        EXPECT_EQ(ref[s * ldc + r], nets_v[s * ldc + r]);
                    }

                const std::size_t ldd = ld + 8 * (in % 2);
                const auto d =
                    operand(bn * ldd, 2400 + bn * 17 + in + out);
                std::vector<double> gw_ref(in * ld, 0.0);
                for (std::size_t s = 0; s < bn; ++s)
                    for (std::size_t r = 0; r < out; ++r)
                        for (std::size_t col = 0; col < in; ++col)
                            gw_ref[col * stride + r] +=
                                d[s * ldd + r] * a[s * lda + col];

                // Prefill with garbage: the kernel must overwrite.
                auto gw_s = operand(in * ld, 2500 + in + out);
                scalar_.mlpGradAccum(bn, out, in, ld, d.data(), ldd,
                                     a.data(), lda, gw_s.data());
                auto gw_v = operand(in * ld, 2600 + in + out);
                vec_->mlpGradAccum(bn, out, in, ld, d.data(), ldd,
                                   a.data(), lda, gw_v.data());
                for (std::size_t col = 0; col < in; ++col)
                    for (std::size_t r = 0; r < out; ++r) {
                        const std::size_t i = col * stride + r;
                        EXPECT_EQ(gw_ref[i], gw_s[i]);
                        EXPECT_EQ(gw_ref[i], gw_v[i]);
                    }
            }
        }
    }
}

/**
 * Pad-lane fences for the padded layout: every `out` in 1..33 at
 * ld = roundUp(out, 8), with every pad lane of every operand (weight
 * rows, unit-wide vectors, input tails) set to NaN. The vector tiers
 * sweep whole padded rows, so NaN flows through their pad lanes; the
 * real lanes must still match the scalar tier bit for bit and must
 * never see a NaN.
 */
class PadLanes : public KernelEquality
{
  protected:
    static constexpr std::size_t kIns[] = {1, 7, 8, 9, 14, 28, 33};

    /** n real values then NaN up to the padded length. */
    static std::vector<double> padded(std::size_t n, std::uint64_t seed)
    {
        std::vector<double> v(simd::mlpPadded(n), kNaN);
        const auto real = operand(n, seed);
        std::copy(real.begin(), real.end(), v.begin());
        return v;
    }

    /**
     * `rows` weight rows of a layer of `out` units at stride ld with
     * NaN pads; the single-unit column when out == 1.
     */
    static std::vector<double> weights(std::size_t rows, std::size_t out,
                                       std::size_t ld, std::uint64_t seed)
    {
        if (out == 1)
            return padded(rows, seed);
        std::vector<double> w(rows * ld, kNaN);
        const auto real = operand(rows * out, seed);
        for (std::size_t c = 0; c < rows; ++c)
            std::copy_n(real.begin() + static_cast<std::ptrdiff_t>(c * out),
                        out, w.begin() + static_cast<std::ptrdiff_t>(c * ld));
        return w;
    }

    /** Real lanes [0, n) of row `row` (stride ld) agree and are not NaN. */
    static void expectRealLanes(const std::vector<double> &s,
                                const std::vector<double> &v,
                                std::size_t rows, std::size_t n,
                                std::size_t ld, const char *what)
    {
        for (std::size_t row = 0; row < rows; ++row)
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t k = row * ld + i;
                EXPECT_EQ(s[k], v[k]) << what << " row=" << row << " i=" << i;
                EXPECT_FALSE(std::isnan(v[k]))
                    << what << " row=" << row << " i=" << i;
            }
    }

    static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
};

TEST_P(PadLanes, PerSampleKernelsIgnorePadLanes)
{
    for (std::size_t in : kIns) {
        for (std::size_t out = 1; out <= 33; ++out) {
            SCOPED_TRACE("in=" + std::to_string(in) +
                         " out=" + std::to_string(out));
            const std::size_t ld = simd::mlpPadded(out);
            const std::size_t stride = out == 1 ? 1 : ld;
            const auto wt = weights(in, out, ld, 3000 + in * 37 + out);
            const auto bias = padded(out, 3100 + out);
            const auto a_in = padded(in, 3200 + in);

            auto nets_s = padded(out, 3300 + out);
            auto nets_v = nets_s;
            scalar_.mlpLayerNets(in, out, ld, wt.data(), bias.data(),
                                 a_in.data(), nets_s.data());
            vec_->mlpLayerNets(in, out, ld, wt.data(), bias.data(),
                               a_in.data(), nets_v.data());
            expectRealLanes(nets_s, nets_v, 1, out, ld, "nets");

            // `out` is the successor width; the layer has `in` units.
            const auto d_next = padded(out, 3400 + out);
            auto d_s = padded(in, 3500 + in);
            auto d_v = d_s;
            scalar_.mlpLayerDeltas(in, out, ld, wt.data(), d_next.data(),
                                   d_s.data());
            vec_->mlpLayerDeltas(in, out, ld, wt.data(), d_next.data(),
                                 d_v.data());
            expectRealLanes(d_s, d_v, 1, in, in, "deltas");

            auto d2_s = padded(out, 3600 + out);
            auto d2_v = d2_s;
            auto wt_s = wt;
            auto wt_v = wt;
            auto pwt_s = weights(in, out, ld, 3700 + in + out);
            auto pwt_v = pwt_s;
            auto bias_s = bias;
            auto bias_v = bias;
            auto pb_s = padded(out, 3800 + out);
            auto pb_v = pb_s;
            scalar_.mlpUpdateLayer(in, out, ld, 0.05, 0.2, a_in.data(),
                                   d2_s.data(), wt_s.data(), pwt_s.data(),
                                   bias_s.data(), pb_s.data());
            vec_->mlpUpdateLayer(in, out, ld, 0.05, 0.2, a_in.data(),
                                 d2_v.data(), wt_v.data(), pwt_v.data(),
                                 bias_v.data(), pb_v.data());
            expectRealLanes(d2_s, d2_v, 1, out, ld, "scaled deltas");
            expectRealLanes(wt_s, wt_v, in, out, stride, "weights");
            expectRealLanes(pwt_s, pwt_v, in, out, stride, "prev dw");
            expectRealLanes(bias_s, bias_v, 1, out, ld, "bias");
            expectRealLanes(pb_s, pb_v, 1, out, ld, "prev db");
        }
    }
}

TEST_P(PadLanes, BatchKernelsIgnorePadLanes)
{
    const std::size_t bn = 5; // one 4-sample tile plus a lone sample
    for (std::size_t in : kIns) {
        for (std::size_t out = 1; out <= 33; ++out) {
            SCOPED_TRACE("in=" + std::to_string(in) +
                         " out=" + std::to_string(out));
            const std::size_t ld = simd::mlpPadded(out);
            const std::size_t stride = out == 1 ? 1 : ld;
            const std::size_t lda = simd::mlpPadded(in);
            std::vector<double> a;
            std::vector<double> d;
            for (std::size_t s = 0; s < bn; ++s) {
                const auto row = padded(in, 4000 + s * 7 + in);
                a.insert(a.end(), row.begin(), row.end());
                const auto drow = padded(out, 4100 + s * 7 + out);
                d.insert(d.end(), drow.begin(), drow.end());
            }
            const auto wt = weights(in, out, ld, 4200 + in * 37 + out);
            const auto bias = padded(out, 4300 + out);

            std::vector<double> nets_s(bn * ld, kNaN);
            auto nets_v = nets_s;
            scalar_.mlpBatchNets(bn, in, out, ld, a.data(), lda, wt.data(),
                                 bias.data(), nets_s.data(), ld);
            vec_->mlpBatchNets(bn, in, out, ld, a.data(), lda, wt.data(),
                               bias.data(), nets_v.data(), ld);
            expectRealLanes(nets_s, nets_v, bn, out, ld, "batch nets");

            std::vector<double> gw_s(in * ld, kNaN);
            auto gw_v = gw_s;
            scalar_.mlpGradAccum(bn, out, in, ld, d.data(), ld, a.data(),
                                 lda, gw_s.data());
            vec_->mlpGradAccum(bn, out, in, ld, d.data(), ld, a.data(), lda,
                               gw_v.data());
            expectRealLanes(gw_s, gw_v, in, out, stride, "gradient");
        }
    }
}

/**
 * gemmDot: the blocked canonical-dot GEMM must match the naive
 * `bias[j] + dot(...)` double loop bit-for-bit on shapes that straddle
 * its 16x256 panel boundaries, and the vector tier must match the
 * scalar tier entry by entry.
 */
TEST_P(KernelEquality, GemmDotMatchesNaiveDotLoopAcrossBlocks)
{
    const std::size_t ms[] = {1, 3, 16, 31, 257};
    const std::size_t ns[] = {1, 2, 15, 16, 17, 33};
    const std::size_t ks[] = {1, 7, 16, 28, 67};
    for (std::size_t m : ms) {
        for (std::size_t n : ns) {
            for (std::size_t k : ks) {
                SCOPED_TRACE("m=" + std::to_string(m) +
                             " n=" + std::to_string(n) +
                             " k=" + std::to_string(k));
                const auto a = operand(m * k, 1800 + m * 131 + k);
                const auto b = operand(n * k, 1900 + n * 17 + k);
                const auto bias = operand(n, 2000 + n);

                std::vector<double> naive(m * n);
                for (std::size_t i = 0; i < m; ++i)
                    for (std::size_t j = 0; j < n; ++j)
                        naive[i * n + j] =
                            bias[j] + scalar_.dot(a.data() + i * k,
                                                  b.data() + j * k, k);

                std::vector<double> blocked_s(m * n);
                simd::gemmDot(scalar_, m, n, k, a.data(), k, b.data(),
                              k, bias.data(), blocked_s.data(), n);
                EXPECT_EQ(naive, blocked_s);

                std::vector<double> blocked_v(m * n);
                simd::gemmDot(*vec_, m, n, k, a.data(), k, b.data(), k,
                              bias.data(), blocked_v.data(), n);
                EXPECT_EQ(naive, blocked_v);
            }
        }
    }
}

const auto tierParamName =
    [](const ::testing::TestParamInfo<simd::Tier> &info) {
        return std::string(simd::tierName(info.param));
    };

INSTANTIATE_TEST_SUITE_P(VectorTiers, KernelEquality,
                         ::testing::Values(simd::Tier::Avx2,
                                           simd::Tier::Avx512),
                         tierParamName);

INSTANTIATE_TEST_SUITE_P(VectorTiers, PadLanes,
                         ::testing::Values(simd::Tier::Avx2,
                                           simd::Tier::Avx512),
                         tierParamName);

/**
 * The degenerate-length property the golden-value tests rely on: below
 * one full block (n < 16) the canonical reduction IS the plain
 * sequential sum, so small fixtures keep their pre-SIMD values.
 */
TEST(KernelCanonicalReduction, ShortLengthsMatchSequentialSum)
{
    for (std::size_t n = 1; n < 16; ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto a = operand(n, 1600 + n);
        const auto b = operand(n, 1700 + n);
        double seq = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            seq += a[i] * b[i];
        EXPECT_EQ(simd::scalarKernels().dot(a.data(), b.data(), n), seq);
    }
}

} // namespace
