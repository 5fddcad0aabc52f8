/**
 * @file
 * The AVX-512 tier: 512-bit implementations of the kernel table that
 * land on exactly the same bits as the scalar tier (kernels_scalar.cpp
 * is the specification). The 16 canonical partials live in two zmm
 * accumulators — z0 holds s[0..7], z1 holds s[8..15] — and the fold
 * adds 256-bit halves so each ymm lane l carries
 * (s[l] + s[l+4]) + (s[l+8] + s[l+12]), exactly the L_l terms of
 * combinePartials(); the remaining low/high 128-bit fold is the same
 * one the AVX2 tier uses. Elementwise kernels sweep 8 lanes at a time,
 * free to pick any width because nothing sums across elements.
 *
 * Only the AVX512F subset is used (no DQ/BW/VL instructions), so the
 * tier runs on any CPU reporting avx512f: |x| is built from an
 * epi64 andnot instead of the DQ-only _mm512_and_pd.
 *
 * No FMA, as everywhere in this layer: _mm512_fmadd_pd rounds once
 * where the contract demands the two roundings of mul+add. The file is
 * compiled with -mavx512f and -ffp-contract=off
 * (src/simd/CMakeLists.txt). On targets where the build system cannot
 * enable AVX-512 this file compiles to a stub avx512Kernels()
 * returning null and the dispatcher never offers the tier.
 */

#include "simd/simd.h"

#if defined(__AVX512F__)

// dtrank-lint-ignore(no-raw-intrinsics): this is the one directory
// where raw intrinsics are allowed; the include still trips the
// substring scan, so the suppression is spelled out for readers.
#include <immintrin.h>

#include <cmath>

namespace dtrank::simd
{

namespace
{

constexpr std::size_t kBlock = 16; // 8 lanes x 2 vector accumulators

/**
 * The canonical fold over two zmm accumulators. z0's ymm halves are
 * s[0..3] and s[4..7], z1's are s[8..11] and s[12..15]:
 *   t0 lane l = s[l] + s[l+4]
 *   t1 lane l = s[l+8] + s[l+12]
 *   L  lane l = t0 + t1 = (s[l] + s[l+4]) + (s[l+8] + s[l+12])
 * then the 128-bit split-and-add produces (L0 + L2) + (L1 + L3) —
 * exactly combinePartials() of the scalar tier.
 */
inline double
foldAccumulators(__m512d z0, __m512d z1)
{
    const __m256d t0 = _mm256_add_pd(_mm512_castpd512_pd256(z0),
                                     _mm512_extractf64x4_pd(z0, 1));
    const __m256d t1 = _mm256_add_pd(_mm512_castpd512_pd256(z1),
                                     _mm512_extractf64x4_pd(z1, 1));
    const __m256d v = _mm256_add_pd(t0, t1);
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    const __m128d swapped = _mm_unpackhi_pd(pair, pair);
    return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

double
dotAvx512(const double *a, const double *b, std::size_t n)
{
    __m512d z0 = _mm512_setzero_pd();
    __m512d z1 = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        z0 = _mm512_add_pd(z0, _mm512_mul_pd(_mm512_loadu_pd(a + i),
                                             _mm512_loadu_pd(b + i)));
        z1 = _mm512_add_pd(z1,
                           _mm512_mul_pd(_mm512_loadu_pd(a + i + 8),
                                         _mm512_loadu_pd(b + i + 8)));
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += a[i] * b[i];
    return foldAccumulators(z0, z1) + tail;
}

void
axpyAvx512(double *a, const double *b, double factor, std::size_t n)
{
    const __m512d f = _mm512_set1_pd(factor);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512d bv = _mm512_loadu_pd(b + i);
        const __m512d av = _mm512_loadu_pd(a + i);
        _mm512_storeu_pd(a + i,
                         _mm512_add_pd(av, _mm512_mul_pd(f, bv)));
    }
    for (; i < n; ++i)
        a[i] += factor * b[i];
}

void
scaleAvx512(double *v, double factor, std::size_t n)
{
    const __m512d f = _mm512_set1_pd(factor);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm512_storeu_pd(v + i,
                         _mm512_mul_pd(_mm512_loadu_pd(v + i), f));
    for (; i < n; ++i)
        v[i] *= factor;
}

void
mulAddAvx512(double *out, const double *a, const double *b,
             std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512d prod = _mm512_mul_pd(_mm512_loadu_pd(a + i),
                                           _mm512_loadu_pd(b + i));
        _mm512_storeu_pd(
            out + i, _mm512_add_pd(_mm512_loadu_pd(out + i), prod));
    }
    for (; i < n; ++i)
        out[i] += a[i] * b[i];
}

void
gemmMicroAvx512(std::size_t k, std::size_t n, const double *a,
                const double *b, std::size_t ldb, double *c)
{
    for (std::size_t kk = 0; kk < k; ++kk) {
        const double av = a[kk];
        if (av == 0.0)
            continue;
        const double *b_row = b + kk * ldb;
        const __m512d avv = _mm512_set1_pd(av);
        std::size_t j = 0;
        // 16 lanes per step: two independent 512-bit accumulate chains.
        for (; j + 16 <= n; j += 16) {
            const __m512d p0 =
                _mm512_mul_pd(avv, _mm512_loadu_pd(b_row + j));
            const __m512d p1 =
                _mm512_mul_pd(avv, _mm512_loadu_pd(b_row + j + 8));
            _mm512_storeu_pd(
                c + j, _mm512_add_pd(_mm512_loadu_pd(c + j), p0));
            _mm512_storeu_pd(
                c + j + 8,
                _mm512_add_pd(_mm512_loadu_pd(c + j + 8), p1));
        }
        for (; j + 8 <= n; j += 8) {
            const __m512d p =
                _mm512_mul_pd(avv, _mm512_loadu_pd(b_row + j));
            _mm512_storeu_pd(
                c + j, _mm512_add_pd(_mm512_loadu_pd(c + j), p));
        }
        for (; j < n; ++j)
            c[j] += av * b_row[j];
    }
}

double
squaredDistanceAvx512(const double *a, const double *b, std::size_t n)
{
    __m512d z0 = _mm512_setzero_pd();
    __m512d z1 = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m512d d0 = _mm512_sub_pd(_mm512_loadu_pd(a + i),
                                         _mm512_loadu_pd(b + i));
        const __m512d d1 = _mm512_sub_pd(_mm512_loadu_pd(a + i + 8),
                                         _mm512_loadu_pd(b + i + 8));
        z0 = _mm512_add_pd(z0, _mm512_mul_pd(d0, d0));
        z1 = _mm512_add_pd(z1, _mm512_mul_pd(d1, d1));
    }
    double tail = 0.0;
    for (; i < n; ++i) {
        const double d = a[i] - b[i];
        tail += d * d;
    }
    return foldAccumulators(z0, z1) + tail;
}

/** |x| per lane via the F-subset integer andnot (and_pd needs DQ). */
inline __m512d
absLanes(__m512d x)
{
    const __m512i sign_bit =
        _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ULL));
    return _mm512_castsi512_pd(
        _mm512_andnot_epi64(sign_bit, _mm512_castpd_si512(x)));
}

double
manhattanAvx512(const double *a, const double *b, std::size_t n)
{
    __m512d z0 = _mm512_setzero_pd();
    __m512d z1 = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m512d d0 = _mm512_sub_pd(_mm512_loadu_pd(a + i),
                                         _mm512_loadu_pd(b + i));
        const __m512d d1 = _mm512_sub_pd(_mm512_loadu_pd(a + i + 8),
                                         _mm512_loadu_pd(b + i + 8));
        z0 = _mm512_add_pd(z0, absLanes(d0));
        z1 = _mm512_add_pd(z1, absLanes(d1));
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += std::fabs(a[i] - b[i]);
    return foldAccumulators(z0, z1) + tail;
}

double
weightedSquaredDistanceAvx512(const double *a, const double *b,
                              const double *w, std::size_t n)
{
    __m512d z0 = _mm512_setzero_pd();
    __m512d z1 = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m512d d0 = _mm512_sub_pd(_mm512_loadu_pd(a + i),
                                         _mm512_loadu_pd(b + i));
        const __m512d d1 = _mm512_sub_pd(_mm512_loadu_pd(a + i + 8),
                                         _mm512_loadu_pd(b + i + 8));
        // (w * d) * d — same association as the scalar tier.
        const __m512d wd0 =
            _mm512_mul_pd(_mm512_loadu_pd(w + i), d0);
        const __m512d wd1 =
            _mm512_mul_pd(_mm512_loadu_pd(w + i + 8), d1);
        z0 = _mm512_add_pd(z0, _mm512_mul_pd(wd0, d0));
        z1 = _mm512_add_pd(z1, _mm512_mul_pd(wd1, d1));
    }
    double tail = 0.0;
    for (; i < n; ++i) {
        const double d = a[i] - b[i];
        tail += (w[i] * d) * d;
    }
    return foldAccumulators(z0, z1) + tail;
}

double
centeredDotAvx512(const double *a, const double *b, double ca,
                  double cb, std::size_t n)
{
    const __m512d cav = _mm512_set1_pd(ca);
    const __m512d cbv = _mm512_set1_pd(cb);
    __m512d z0 = _mm512_setzero_pd();
    __m512d z1 = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m512d a0 =
            _mm512_sub_pd(_mm512_loadu_pd(a + i), cav);
        const __m512d a1 =
            _mm512_sub_pd(_mm512_loadu_pd(a + i + 8), cav);
        const __m512d b0 =
            _mm512_sub_pd(_mm512_loadu_pd(b + i), cbv);
        const __m512d b1 =
            _mm512_sub_pd(_mm512_loadu_pd(b + i + 8), cbv);
        z0 = _mm512_add_pd(z0, _mm512_mul_pd(a0, b0));
        z1 = _mm512_add_pd(z1, _mm512_mul_pd(a1, b1));
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += (a[i] - ca) * (b[i] - cb);
    return foldAccumulators(z0, z1) + tail;
}

// ---------------------------------------------------------------------
// MLP kernels over the padded layout (simd.h): a layer of out > 1
// units has rows of ld lanes, a multiple of 8, so every unit-wide sweep
// is whole zmm registers with no remainder. The single-unit column and
// the inputs are read at [0, n) only; their last partial block goes
// through a lane mask.
// ---------------------------------------------------------------------

/** Lane mask for the first min(n - i, 8) of the 8 lanes at i. */
inline __mmask8
liveMask(std::size_t i, std::size_t n)
{
    return n - i >= 8 ? static_cast<__mmask8>(0xff)
                      : static_cast<__mmask8>((1u << (n - i)) - 1u);
}

void
mlpLayerNetsAvx512(std::size_t in, std::size_t out, std::size_t ld,
                   const double *wt, const double *bias,
                   const double *a_in, double *a_out)
{
    if (out == 1) {
        a_out[0] = bias[0] + dotAvx512(wt, a_in, in);
        return;
    }
    // Bias init, then input-ascending adds in registers: a 16-unit
    // block (two zmm) stays live across the whole input loop, so each
    // element sees the scalar tier's exact add sequence with no
    // store/reload per input.
    std::size_t r = 0;
    for (; r + 16 <= ld; r += 16) {
        __m512d x0 = _mm512_loadu_pd(bias + r);
        __m512d x1 = _mm512_loadu_pd(bias + r + 8);
        for (std::size_t c = 0; c < in; ++c) {
            const __m512d av = _mm512_set1_pd(a_in[c]);
            const double *w = wt + c * ld + r;
            x0 = _mm512_add_pd(x0, _mm512_mul_pd(_mm512_loadu_pd(w), av));
            x1 = _mm512_add_pd(x1,
                               _mm512_mul_pd(_mm512_loadu_pd(w + 8), av));
        }
        _mm512_storeu_pd(a_out + r, x0);
        _mm512_storeu_pd(a_out + r + 8, x1);
    }
    if (r < ld) {
        __m512d x = _mm512_loadu_pd(bias + r);
        for (std::size_t c = 0; c < in; ++c)
            x = _mm512_add_pd(
                x, _mm512_mul_pd(_mm512_loadu_pd(wt + c * ld + r),
                                 _mm512_set1_pd(a_in[c])));
        _mm512_storeu_pd(a_out + r, x);
    }
}

void
mlpLayerDeltasAvx512(std::size_t width, std::size_t width_next,
                     std::size_t ld_next, const double *wt_next,
                     const double *d_next, double *d)
{
    if (width_next == 1) {
        const __m512d dkv = _mm512_set1_pd(d_next[0]);
        for (std::size_t j = 0; j < width; j += 8) {
            const __mmask8 m = liveMask(j, width);
            _mm512_mask_storeu_pd(
                d + j, m,
                _mm512_mul_pd(_mm512_maskz_loadu_pd(m, wt_next + j), dkv));
        }
        return;
    }
    for (std::size_t j = 0; j < width; ++j)
        d[j] = dotAvx512(wt_next + j * ld_next, d_next, width_next);
}

void
mlpUpdateLayerAvx512(std::size_t in, std::size_t out, std::size_t ld,
                     double lr, double momentum, const double *in_act,
                     double *d, double *wt, double *pwt, double *bias,
                     double *pb)
{
    const __m512d lrv = _mm512_set1_pd(lr);
    const __m512d mom = _mm512_set1_pd(momentum);
    if (out == 1) {
        d[0] *= lr;
        const __m512d d0v = _mm512_set1_pd(d[0]);
        for (std::size_t c = 0; c < in; c += 8) {
            const __mmask8 m = liveMask(c, in);
            const __m512d dw = _mm512_add_pd(
                _mm512_mul_pd(d0v, _mm512_maskz_loadu_pd(m, in_act + c)),
                _mm512_mul_pd(mom, _mm512_maskz_loadu_pd(m, pwt + c)));
            _mm512_mask_storeu_pd(
                wt + c, m,
                _mm512_add_pd(_mm512_maskz_loadu_pd(m, wt + c), dw));
            _mm512_mask_storeu_pd(pwt + c, m, dw);
        }
        const double db = d[0] + momentum * pb[0];
        bias[0] += db;
        pb[0] = db;
        return;
    }
    if (ld <= 16) {
        // Up to 16 units (the paper's 14): the block of scaled deltas
        // stays in registers across the whole input loop.
        const __m512d d0 = _mm512_mul_pd(_mm512_loadu_pd(d), lrv);
        const __m512d d1 =
            ld == 16 ? _mm512_mul_pd(_mm512_loadu_pd(d + 8), lrv) : d0;
        _mm512_storeu_pd(d, d0);
        if (ld == 16)
            _mm512_storeu_pd(d + 8, d1);
        for (std::size_t c = 0; c < in; ++c) {
            const __m512d av = _mm512_set1_pd(in_act[c]);
            double *wc = wt + c * ld;
            double *pwc = pwt + c * ld;
            const __m512d dw0 =
                _mm512_add_pd(_mm512_mul_pd(d0, av),
                              _mm512_mul_pd(mom, _mm512_loadu_pd(pwc)));
            _mm512_storeu_pd(wc, _mm512_add_pd(_mm512_loadu_pd(wc), dw0));
            _mm512_storeu_pd(pwc, dw0);
            if (ld == 16) {
                const __m512d dw1 = _mm512_add_pd(
                    _mm512_mul_pd(d1, av),
                    _mm512_mul_pd(mom, _mm512_loadu_pd(pwc + 8)));
                _mm512_storeu_pd(
                    wc + 8, _mm512_add_pd(_mm512_loadu_pd(wc + 8), dw1));
                _mm512_storeu_pd(pwc + 8, dw1);
            }
        }
    } else {
        // Wider layers: each weight row is one contiguous sweep.
        for (std::size_t r = 0; r < ld; r += 8)
            _mm512_storeu_pd(d + r,
                             _mm512_mul_pd(_mm512_loadu_pd(d + r), lrv));
        for (std::size_t c = 0; c < in; ++c) {
            const __m512d av = _mm512_set1_pd(in_act[c]);
            double *wc = wt + c * ld;
            double *pwc = pwt + c * ld;
            for (std::size_t r = 0; r < ld; r += 8) {
                const __m512d dw = _mm512_add_pd(
                    _mm512_mul_pd(_mm512_loadu_pd(d + r), av),
                    _mm512_mul_pd(mom, _mm512_loadu_pd(pwc + r)));
                _mm512_storeu_pd(
                    wc + r, _mm512_add_pd(_mm512_loadu_pd(wc + r), dw));
                _mm512_storeu_pd(pwc + r, dw);
            }
        }
    }
    for (std::size_t r = 0; r < ld; r += 8) {
        const __m512d db =
            _mm512_add_pd(_mm512_loadu_pd(d + r),
                          _mm512_mul_pd(mom, _mm512_loadu_pd(pb + r)));
        _mm512_storeu_pd(bias + r,
                         _mm512_add_pd(_mm512_loadu_pd(bias + r), db));
        _mm512_storeu_pd(pb + r, db);
    }
}

void
mlpBatchNetsAvx512(std::size_t bn, std::size_t in, std::size_t out,
                   std::size_t ld, const double *a, std::size_t lda,
                   const double *wt, const double *bias, double *c,
                   std::size_t ldc)
{
    if (out == 1) {
        // Single-unit layer with a contiguous weight column: one
        // canonical dot per sample, like the per-sample engine.
        for (std::size_t s = 0; s < bn; ++s)
            c[s * ldc] = bias[0] + dotAvx512(wt, a + s * lda, in);
        return;
    }
    // Per sample: bias init, then input-ascending rank-1 adds with a
    // register accumulator per 8-unit block — element (s, r) sees the
    // exact add sequence of the scalar mlpLayerNets loop. Samples are
    // tiled in fours so one weight-row load feeds four independent
    // accumulator chains; a lone chain is in * 4 cycles of exposed
    // add latency, four of them run at FP throughput instead.
    std::size_t s = 0;
    for (; s + 4 <= bn; s += 4) {
        const double *a0 = a + s * lda;
        const double *a1 = a0 + lda;
        const double *a2 = a1 + lda;
        const double *a3 = a2 + lda;
        double *c0 = c + s * ldc;
        double *c1 = c0 + ldc;
        double *c2 = c1 + ldc;
        double *c3 = c2 + ldc;
        for (std::size_t r = 0; r < ld; r += 8) {
            const __m512d b0 = _mm512_loadu_pd(bias + r);
            __m512d x0 = b0, x1 = b0, x2 = b0, x3 = b0;
            for (std::size_t k = 0; k < in; ++k) {
                const __m512d w = _mm512_loadu_pd(wt + k * ld + r);
                x0 = _mm512_add_pd(
                    x0, _mm512_mul_pd(_mm512_set1_pd(a0[k]), w));
                x1 = _mm512_add_pd(
                    x1, _mm512_mul_pd(_mm512_set1_pd(a1[k]), w));
                x2 = _mm512_add_pd(
                    x2, _mm512_mul_pd(_mm512_set1_pd(a2[k]), w));
                x3 = _mm512_add_pd(
                    x3, _mm512_mul_pd(_mm512_set1_pd(a3[k]), w));
            }
            _mm512_storeu_pd(c0 + r, x0);
            _mm512_storeu_pd(c1 + r, x1);
            _mm512_storeu_pd(c2 + r, x2);
            _mm512_storeu_pd(c3 + r, x3);
        }
    }
    for (; s < bn; ++s)
        mlpLayerNetsAvx512(in, out, ld, wt, bias, a + s * lda,
                           c + s * ldc);
}

void
mlpGradAccumAvx512(std::size_t bn, std::size_t out, std::size_t in,
                   std::size_t ld, const double *d, std::size_t ldd,
                   const double *a, std::size_t lda, double *gw)
{
    // Register accumulators swept over all samples, stored once. Each
    // gw element still sees zero-init plus sample-ascending adds — the
    // same bits as a read-modify-write sweep — but without bn
    // store-forwarding round trips per element.
    if (out == 1) {
        // The single-unit column gw[c]: lanes run across inputs.
        for (std::size_t c = 0; c < in; c += 8) {
            const __mmask8 m = liveMask(c, in);
            __m512d acc = _mm512_setzero_pd();
            for (std::size_t s = 0; s < bn; ++s)
                acc = _mm512_add_pd(
                    acc,
                    _mm512_mul_pd(_mm512_set1_pd(d[s * ldd]),
                                  _mm512_maskz_loadu_pd(m, a + s * lda + c)));
            _mm512_mask_storeu_pd(gw + c, m, acc);
        }
        return;
    }
    // Lanes run across units. Inputs are tiled in fours so one delta
    // load feeds four accumulator chains — without the tiling the
    // s-loop is one long add-latency chain per (input, block) and the
    // loads outnumber the arithmetic.
    std::size_t c = 0;
    for (; c + 4 <= in; c += 4) {
        for (std::size_t r = 0; r < ld; r += 8) {
            __m512d acc0 = _mm512_setzero_pd(), acc1 = acc0, acc2 = acc0,
                    acc3 = acc0;
            for (std::size_t s = 0; s < bn; ++s) {
                const __m512d dv = _mm512_loadu_pd(d + s * ldd + r);
                const double *as = a + s * lda + c;
                acc0 = _mm512_add_pd(
                    acc0, _mm512_mul_pd(dv, _mm512_set1_pd(as[0])));
                acc1 = _mm512_add_pd(
                    acc1, _mm512_mul_pd(dv, _mm512_set1_pd(as[1])));
                acc2 = _mm512_add_pd(
                    acc2, _mm512_mul_pd(dv, _mm512_set1_pd(as[2])));
                acc3 = _mm512_add_pd(
                    acc3, _mm512_mul_pd(dv, _mm512_set1_pd(as[3])));
            }
            _mm512_storeu_pd(gw + (c + 0) * ld + r, acc0);
            _mm512_storeu_pd(gw + (c + 1) * ld + r, acc1);
            _mm512_storeu_pd(gw + (c + 2) * ld + r, acc2);
            _mm512_storeu_pd(gw + (c + 3) * ld + r, acc3);
        }
    }
    for (; c < in; ++c) {
        for (std::size_t r = 0; r < ld; r += 8) {
            __m512d acc = _mm512_setzero_pd();
            for (std::size_t s = 0; s < bn; ++s)
                acc = _mm512_add_pd(
                    acc, _mm512_mul_pd(_mm512_loadu_pd(d + s * ldd + r),
                                       _mm512_set1_pd(a[s * lda + c])));
            _mm512_storeu_pd(gw + c * ld + r, acc);
        }
    }
}

// ---------------------------------------------------------------------
// Masked reductions. The mask byte for lanes [i, i+8) is bits
// (i % 64)..(i % 64 + 7) of valid[i / 64]; i advances in multiples of
// 8 and 8 divides 64, so a byte never straddles a word boundary. The
// zeroing-masked multiply writes +0.0 to masked lanes without running
// their arithmetic, so NaN-poisoned cells never reach the sum — the
// same +0.0 the scalar tier adds — and an all-set mask reproduces the
// dense kernel bit for bit.
// ---------------------------------------------------------------------

inline __mmask8
byteAt(const std::uint64_t *valid, std::size_t i)
{
    return static_cast<__mmask8>((valid[i >> 6] >> (i & 63)) & 0xff);
}

inline bool
validBit(const std::uint64_t *valid, std::size_t i)
{
    return ((valid[i >> 6] >> (i & 63)) & 1u) != 0;
}

double
maskedDotAvx512(const double *a, const double *b,
                const std::uint64_t *valid, std::size_t n)
{
    __m512d z0 = _mm512_setzero_pd();
    __m512d z1 = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        z0 = _mm512_add_pd(
            z0, _mm512_maskz_mul_pd(byteAt(valid, i),
                                    _mm512_loadu_pd(a + i),
                                    _mm512_loadu_pd(b + i)));
        z1 = _mm512_add_pd(
            z1, _mm512_maskz_mul_pd(byteAt(valid, i + 8),
                                    _mm512_loadu_pd(a + i + 8),
                                    _mm512_loadu_pd(b + i + 8)));
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += validBit(valid, i) ? a[i] * b[i] : 0.0;
    return foldAccumulators(z0, z1) + tail;
}

double
maskedSumAvx512(const double *a, const std::uint64_t *valid,
                std::size_t n)
{
    __m512d z0 = _mm512_setzero_pd();
    __m512d z1 = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        z0 = _mm512_add_pd(
            z0, _mm512_maskz_loadu_pd(byteAt(valid, i), a + i));
        z1 = _mm512_add_pd(
            z1, _mm512_maskz_loadu_pd(byteAt(valid, i + 8), a + i + 8));
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += validBit(valid, i) ? a[i] : 0.0;
    return foldAccumulators(z0, z1) + tail;
}

double
maskedSquaredDistanceAvx512(const double *a, const double *b,
                            const std::uint64_t *valid, std::size_t n)
{
    __m512d z0 = _mm512_setzero_pd();
    __m512d z1 = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m512d d0 = _mm512_sub_pd(_mm512_loadu_pd(a + i),
                                         _mm512_loadu_pd(b + i));
        const __m512d d1 = _mm512_sub_pd(_mm512_loadu_pd(a + i + 8),
                                         _mm512_loadu_pd(b + i + 8));
        z0 = _mm512_add_pd(
            z0, _mm512_maskz_mul_pd(byteAt(valid, i), d0, d0));
        z1 = _mm512_add_pd(
            z1, _mm512_maskz_mul_pd(byteAt(valid, i + 8), d1, d1));
    }
    double tail = 0.0;
    for (; i < n; ++i) {
        if (validBit(valid, i)) {
            const double d = a[i] - b[i];
            tail += d * d;
        } else {
            tail += 0.0;
        }
    }
    return foldAccumulators(z0, z1) + tail;
}

double
maskedWeightedSquaredDistanceAvx512(const double *a, const double *b,
                                    const double *w,
                                    const std::uint64_t *valid,
                                    std::size_t n)
{
    __m512d z0 = _mm512_setzero_pd();
    __m512d z1 = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m512d d0 = _mm512_sub_pd(_mm512_loadu_pd(a + i),
                                         _mm512_loadu_pd(b + i));
        const __m512d d1 = _mm512_sub_pd(_mm512_loadu_pd(a + i + 8),
                                         _mm512_loadu_pd(b + i + 8));
        const __m512d wd0 = _mm512_mul_pd(_mm512_loadu_pd(w + i), d0);
        const __m512d wd1 =
            _mm512_mul_pd(_mm512_loadu_pd(w + i + 8), d1);
        z0 = _mm512_add_pd(
            z0, _mm512_maskz_mul_pd(byteAt(valid, i), wd0, d0));
        z1 = _mm512_add_pd(
            z1, _mm512_maskz_mul_pd(byteAt(valid, i + 8), wd1, d1));
    }
    double tail = 0.0;
    for (; i < n; ++i) {
        if (validBit(valid, i)) {
            const double d = a[i] - b[i];
            tail += (w[i] * d) * d;
        } else {
            tail += 0.0;
        }
    }
    return foldAccumulators(z0, z1) + tail;
}

} // namespace

const KernelTable *
avx512Kernels()
{
    static const KernelTable kTable = {
        "avx512",
        dotAvx512,
        axpyAvx512,
        scaleAvx512,
        mulAddAvx512,
        gemmMicroAvx512,
        squaredDistanceAvx512,
        manhattanAvx512,
        weightedSquaredDistanceAvx512,
        centeredDotAvx512,
        mlpLayerNetsAvx512,
        mlpLayerDeltasAvx512,
        mlpUpdateLayerAvx512,
        mlpBatchNetsAvx512,
        mlpGradAccumAvx512,
        maskedDotAvx512,
        maskedSumAvx512,
        maskedSquaredDistanceAvx512,
        maskedWeightedSquaredDistanceAvx512,
    };
    return &kTable;
}

} // namespace dtrank::simd

#else // !defined(__AVX512F__)

namespace dtrank::simd
{

const KernelTable *
avx512Kernels()
{
    return nullptr;
}

} // namespace dtrank::simd

#endif
