/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the project's dense inner
 * loops: dot products, axpy/scale sweeps, the blocked GEMM microkernel,
 * the kNN distance evaluations and the MLP layer micro-ops.
 *
 * Three tiers implement the same kernel table:
 *   - scalar  portable C++, compiles and runs everywhere;
 *   - avx2    256-bit AVX2 intrinsics, selected at startup when the
 *             CPU reports AVX2 support (overridable with --simd or the
 *             DTRANK_SIMD environment variable);
 *   - avx512  512-bit AVX-512F intrinsics, selected when the CPU
 *             reports avx512f (same overrides; an unavailable request
 *             falls back to the best remaining tier).
 *
 * # The canonical reduction contract
 *
 * The repository's headline guarantee is that every protocol run is
 * bit-identical across thread counts, caches and machines. Dispatch
 * adds a new axis: the same binary must produce the same bits whether
 * the scalar or the AVX2 tier runs. Floating-point addition is not
 * associative, so both tiers commit to ONE summation order — the
 * canonical lane-blocked reduction — instead of each tier summing in
 * its naturally fastest order:
 *
 *   - terms are consumed in blocks of 16 (4 lanes x 4-way unroll);
 *     term i of a full block feeds partial accumulator s[i mod 16];
 *   - the 16 partials are combined in a fixed tree mirroring the AVX2
 *     register combine (vector adds, then a low/high 128-bit fold):
 *         L_l = (s[l] + s[l+4]) + (s[l+8] + s[l+12])   for l = 0..3
 *         R   = (L_0 + L_2) + (L_1 + L_3)
 *   - the trailing n mod 16 terms accumulate sequentially into a
 *     separate scalar, added last:  result = R + tail.
 *
 * The scalar tier spells this order out with 16 named partials; the
 * AVX2 tier reaches it with four vector accumulators and the exact
 * fold above; the AVX-512 tier holds the same 16 partials in two zmm
 * registers and folds halves so each 256-bit lane-add lands on the
 * identical (s[l] + s[l+4]) + (s[l+8] + s[l+12]) association. Fused
 * multiply-add is deliberately NOT used in any tier: FMA rounds once
 * where mul+add rounds twice, so an FMA tier could never be
 * bit-identical to a portable one (see the DTRANK_NATIVE note in the
 * top-level CMakeLists.txt).
 *
 * Elementwise kernels (axpy, scale, mul_add, the GEMM microkernel
 * inner sweep, the MLP update) never sum across elements, so they are
 * bit-identical across tiers by construction at any lane width.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dtrank::simd
{

/** Dispatch tiers, ordered from most portable to most specialized. */
enum class Tier
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/**
 * The kernel table one tier implements. All pointers are non-null in
 * every published table; sizes follow BLAS conventions (row-major,
 * leading dimension in elements).
 */
struct KernelTable
{
    /** Tier name, e.g. "scalar". */
    const char *name;

    /** Canonical-reduction dot product sum_i a[i] * b[i]. */
    double (*dot)(const double *a, const double *b, std::size_t n);

    /** a[i] += factor * b[i] (elementwise, no reduction). */
    void (*axpy)(double *a, const double *b, double factor,
                 std::size_t n);

    /** v[i] *= factor. */
    void (*scale)(double *v, double factor, std::size_t n);

    /** out[i] += a[i] * b[i] (elementwise multiply-accumulate). */
    void (*mulAdd)(double *out, const double *a, const double *b,
                   std::size_t n);

    /**
     * GEMM microkernel: one output-row panel update
     *     c[j] += sum over kk of a[kk] * b[kk * ldb + j]
     * accumulated k-ascending into c (elementwise in j, so any lane
     * width gives the same bits). Zero a[kk] panels are skipped, like
     * the blocked multiply always has.
     */
    void (*gemmMicro)(std::size_t k, std::size_t n, const double *a,
                      const double *b, std::size_t ldb, double *c);

    /** Canonical-reduction sum_i (a[i] - b[i])^2. */
    double (*squaredDistance)(const double *a, const double *b,
                              std::size_t n);

    /** Canonical-reduction sum_i |a[i] - b[i]|. */
    double (*manhattan)(const double *a, const double *b, std::size_t n);

    /** Canonical-reduction sum_i (w[i] * (a[i]-b[i])) * (a[i]-b[i]). */
    double (*weightedSquaredDistance)(const double *a, const double *b,
                                      const double *w, std::size_t n);

    /** Canonical-reduction sum_i (a[i] - ca) * (b[i] - cb). */
    double (*centeredDot)(const double *a, const double *b, double ca,
                          double cb, std::size_t n);

    // -----------------------------------------------------------------
    // MLP layer kernels over the padded transposed layout. A layer of
    // `out` > 1 units stores its weights [input][unit]: row c holds the
    // weights from input c to every unit, and rows are `ld` doubles
    // apart, where ld is a multiple of 8 (one 64-byte line) and >= out
    // (mlpPadded(out) in the training workspace). Every unit-wide
    // vector of such a layer (bias, nets, deltas, momentum state, and
    // each row of a batch block) likewise has ld lanes. Lanes
    // [out, ld) are pad lanes: the vector tiers sweep whole padded
    // rows and may read and write them, the scalar tier leaves them
    // alone, and no real lane ever reads one — every operation is
    // either elementwise across units or a reduction over real lanes
    // only — so pad contents never reach a result. A single-unit layer
    // (out == 1) instead stores its `in` weights as one contiguous
    // column and ignores ld; kernels touch only its `in` real entries.
    // Inputs (a_in, in_act, a) are read at [0, in) only.
    // -----------------------------------------------------------------

    /**
     * MLP forward nets: a_out[r] = bias[r] + sum_c wt[c * ld + r] *
     * a_in[c] for r < out, accumulated bias-first then input-ascending
     * (elementwise across units, so any lane width gives the same
     * bits). For out == 1 this is bias + canonical dot over `in` terms.
     */
    void (*mlpLayerNets)(std::size_t in, std::size_t out, std::size_t ld,
                         const double *wt, const double *bias,
                         const double *a_in, double *a_out);

    /**
     * MLP backward delta recurrence for a layer of `width` units whose
     * successor has `width_next` units at row stride ld_next:
     * d[j] = sum_k wt_next[j * ld_next + k] * d_next[k], one canonical
     * dot per unit over the width_next real lanes; an elementwise
     * product d[j] = wt_next[j] * d_next[0] when the successor has one
     * unit.
     */
    void (*mlpLayerDeltas)(std::size_t width, std::size_t width_next,
                           std::size_t ld_next, const double *wt_next,
                           const double *d_next, double *d);

    /**
     * MLP momentum weight update. Scales d[r] by lr in place, then per
     * weight
     *     dw = d[r] * in_act[c] + momentum * pwt[c * ld + r]
     * and adds dw to the weight / stores it as the new previous delta;
     * biases likewise. Purely elementwise.
     */
    void (*mlpUpdateLayer)(std::size_t in, std::size_t out, std::size_t ld,
                           double lr, double momentum,
                           const double *in_act, double *d, double *wt,
                           double *pwt, double *bias, double *pb);

    /**
     * Whole-minibatch layer forward (a blocked GEMM): for every
     * sample s < bn, computes the row
     *     c[s * ldc + r] = bias[r] + sum over k of
     *                      a[s * lda + k] * wt[k * ld + r]
     * with EXACTLY the arithmetic of mlpLayerNets on row s, so the
     * minibatch forward is bit-identical to running the per-sample
     * forward row by row. For out > 1, ldc >= ld and every row of c
     * has ld lanes. Vector tiers broadcast a[s][k] against whole
     * padded weight rows and keep a register accumulator per unit
     * block across the whole input loop; the in-kernel sample loop
     * lets the pipeline overlap independent samples' chains instead
     * of paying an indirect call per sample.
     */
    void (*mlpBatchNets)(std::size_t bn, std::size_t in, std::size_t out,
                         std::size_t ld, const double *a, std::size_t lda,
                         const double *wt, const double *bias, double *c,
                         std::size_t ldc);

    /**
     * Batched gradient accumulation (a sum of rank-1 outer products),
     * written in the layer's own weight layout:
     *     gw[c * ld + r] = sum over s of d[s * ldd + r] * a[s * lda + c]
     * for r < out, c < in (gw[c] when out == 1), OVERWRITING gw. Every
     * element's sum starts from 0.0 and adds its per-sample products in
     * ascending s order — plain sequential adds, elementwise across
     * (r, c) — so any lane width and any loop nesting lands on the same
     * bits. For out > 1, every row of d has ld lanes. Vector tiers keep
     * the accumulators in registers across the whole sample loop,
     * which is what makes the minibatch MLP gradient pass cheaper than
     * per-sample read-modify-write sweeps.
     */
    void (*mlpGradAccum)(std::size_t bn, std::size_t out, std::size_t in,
                         std::size_t ld, const double *d, std::size_t ldd,
                         const double *a, std::size_t lda, double *gw);

    // -----------------------------------------------------------------
    // Masked reductions (ragged score matrices). `valid` is a packed
    // little-endian bit vector: element i is valid iff bit (i % 64) of
    // valid[i / 64] is set. Every masked kernel runs the SAME canonical
    // lane-blocked reduction as its dense sibling with each invalid
    // term replaced by a literal +0.0 (zero-substitution) — never by
    // skipping the add — so an all-set mask is bit-identical to the
    // unmasked kernel by construction, in every tier. Invalid elements
    // are never read arithmetically in the scalar tier and are crushed
    // to 0.0 after the multiply in the vector tiers, so NaN-poisoned
    // masked cells cannot leak into the sum.
    // -----------------------------------------------------------------

    /** Masked canonical dot: sum over valid i of a[i] * b[i]. */
    double (*maskedDot)(const double *a, const double *b,
                        const std::uint64_t *valid, std::size_t n);

    /** Masked canonical sum: sum over valid i of a[i]. */
    double (*maskedSum)(const double *a, const std::uint64_t *valid,
                        std::size_t n);

    /** Masked canonical sum over valid i of (a[i] - b[i])^2. */
    double (*maskedSquaredDistance)(const double *a, const double *b,
                                    const std::uint64_t *valid,
                                    std::size_t n);

    /** Masked sum over valid i of (w[i] * (a[i]-b[i])) * (a[i]-b[i]). */
    double (*maskedWeightedSquaredDistance)(const double *a,
                                            const double *b,
                                            const double *w,
                                            const std::uint64_t *valid,
                                            std::size_t n);
};

/** Lanes in one padded MLP row: 8 doubles, one 64-byte cache line. */
inline constexpr std::size_t kMlpRowLanes = 8;

/** `n` rounded up to whole padded MLP rows (a multiple of 8). */
constexpr std::size_t
mlpPadded(std::size_t n)
{
    return (n + kMlpRowLanes - 1) / kMlpRowLanes * kMlpRowLanes;
}

/** The portable reference tier. Always available. */
const KernelTable &scalarKernels();

/**
 * The AVX2 tier, or null when the binary was built without AVX2
 * support (non-x86 target or a compiler without -mavx2).
 */
const KernelTable *avx2Kernels();

/**
 * The AVX-512 tier, or null when the binary was built without AVX-512
 * support (non-x86 target or a compiler without -mavx512f). Uses only
 * the AVX512F subset so any avx512f CPU can run it.
 */
const KernelTable *avx512Kernels();

/** True when the running CPU reports AVX2 (cpuid). */
bool cpuSupportsAvx2();

/** True when the running CPU reports AVX-512 Foundation (cpuid). */
bool cpuSupportsAvx512();

/**
 * Comma-separated feature flags of the running CPU relevant to the
 * kernel tiers (e.g. "sse2,avx,avx2,fma,avx512f"), for bench/JSON
 * context records.
 */
std::string cpuFeatureString();

/** "scalar", "avx2" or "avx512". */
const char *tierName(Tier tier);

/** Inverse of tierName. @throws util::InvalidArgument on anything else. */
Tier parseTier(const std::string &name);

/**
 * Pure tier-resolution rule (unit-testable): an override string (from
 * DTRANK_SIMD or --simd; null/empty/"auto" means no override) against
 * what the CPU and the binary provide. "auto" picks the widest
 * available tier (avx512 > avx2 > scalar). An unavailable avx512
 * request falls back to the widest remaining tier; an unavailable
 * avx2 request falls back to Scalar. The avx512 arguments default to
 * "absent" so the PR 4 three-argument truth table keeps its meaning.
 */
Tier resolveTier(const char *override_name, bool cpu_avx2,
                 bool avx2_compiled, bool cpu_avx512 = false,
                 bool avx512_compiled = false);

/**
 * The active table. Resolved once on first use from DTRANK_SIMD and
 * cpuid; hot kernels go through one relaxed atomic load + indirect
 * call, which is noise next to the loops they run.
 */
const KernelTable &kernels();

/** The tier kernels() currently dispatches to. */
Tier activeTier();

/**
 * Strict override: selects `tier` for all subsequent kernels() calls.
 * @throws util::InvalidArgument when the tier is not available on this
 * CPU/binary. Call during startup, before worker threads exist.
 */
void setTier(Tier tier);

/**
 * Forgiving override for CLI/env plumbing: like setTier, but an
 * unavailable request logs a warning and selects Scalar.
 * @return the tier actually selected.
 */
Tier requestTier(Tier tier);

/**
 * Blocked "canonical-dot GEMM": with A row-major m x k (leading
 * dimension lda) and B row-major n x k (ldb), computes
 *
 *     c[i * ldc + j] = (bias ? bias[j] : 0) + dot(A row i, B row j, k)
 *
 * i.e. C = bias + A * B^T where every output entry is ONE
 * canonical-reduction dot product. The blocking only reorders which
 * (i, j) entries are computed when — never the arithmetic inside an
 * entry — so the result is bit-identical to the naive per-entry
 * `bias[j] + kt.dot(...)` loop, in every tier, at any block size.
 * This is the workhorse of the minibatch MLP forward pass and the
 * batched predict: B rows are the transposed operand (for the MLP,
 * unit-major weight rows), kept hot in cache across a panel of A rows.
 */
void gemmDot(const KernelTable &kt, std::size_t m, std::size_t n,
             std::size_t k, const double *a, std::size_t lda,
             const double *b, std::size_t ldb, const double *bias,
             double *c, std::size_t ldc);

// ---------------------------------------------------------------------
// Convenience dispatchers: the names consumers call.
// ---------------------------------------------------------------------

inline void
gemmDot(std::size_t m, std::size_t n, std::size_t k, const double *a,
        std::size_t lda, const double *b, std::size_t ldb,
        const double *bias, double *c, std::size_t ldc)
{
    gemmDot(kernels(), m, n, k, a, lda, b, ldb, bias, c, ldc);
}

inline double
dot(const double *a, const double *b, std::size_t n)
{
    return kernels().dot(a, b, n);
}

inline void
axpy(double *a, const double *b, double factor, std::size_t n)
{
    kernels().axpy(a, b, factor, n);
}

inline void
scale(double *v, double factor, std::size_t n)
{
    kernels().scale(v, factor, n);
}

inline void
mulAdd(double *out, const double *a, const double *b, std::size_t n)
{
    kernels().mulAdd(out, a, b, n);
}

inline void
gemmMicro(std::size_t k, std::size_t n, const double *a, const double *b,
          std::size_t ldb, double *c)
{
    kernels().gemmMicro(k, n, a, b, ldb, c);
}

inline double
squaredDistance(const double *a, const double *b, std::size_t n)
{
    return kernels().squaredDistance(a, b, n);
}

inline double
manhattan(const double *a, const double *b, std::size_t n)
{
    return kernels().manhattan(a, b, n);
}

inline double
weightedSquaredDistance(const double *a, const double *b,
                        const double *w, std::size_t n)
{
    return kernels().weightedSquaredDistance(a, b, w, n);
}

inline double
centeredDot(const double *a, const double *b, double ca, double cb,
            std::size_t n)
{
    return kernels().centeredDot(a, b, ca, cb, n);
}

inline double
maskedDot(const double *a, const double *b, const std::uint64_t *valid,
          std::size_t n)
{
    return kernels().maskedDot(a, b, valid, n);
}

inline double
maskedSum(const double *a, const std::uint64_t *valid, std::size_t n)
{
    return kernels().maskedSum(a, valid, n);
}

inline double
maskedSquaredDistance(const double *a, const double *b,
                      const std::uint64_t *valid, std::size_t n)
{
    return kernels().maskedSquaredDistance(a, b, valid, n);
}

inline double
maskedWeightedSquaredDistance(const double *a, const double *b,
                              const double *w,
                              const std::uint64_t *valid, std::size_t n)
{
    return kernels().maskedWeightedSquaredDistance(a, b, w, valid, n);
}

} // namespace dtrank::simd
