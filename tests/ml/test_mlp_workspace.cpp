/**
 * @file
 * Tests for the workspace-based MLP training engine: the explicit and
 * per-thread workspace paths must be bit-identical to each other and to
 * the pre-workspace implementation (golden values), and a warm
 * workspace must make the epoch x sample loop allocation-free.
 */

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/mlp.h"
#include "simd/simd.h"
#include "util/error.h"
#include "util/rng.h"

// ---------------------------------------------------------------------
// Counting global allocator: every operator new in this binary bumps
// g_news, so a test can measure how many heap allocations a region
// performs. Deallocation is not counted (free order is uninteresting).
// ---------------------------------------------------------------------

namespace
{
std::atomic<std::size_t> g_news{0};

void *
countedAlloc(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    const std::size_t rounded = (size + align - 1) / align * align;
    if (void *p = std::aligned_alloc(align, rounded ? rounded : align))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace dtrank;
using linalg::Matrix;

Matrix
goldenX()
{
    return Matrix{{1.0, 4.0}, {2.0, 3.0}, {3.0, 2.0}, {4.0, 1.0}};
}

const std::vector<double> kGoldenY = {2.0, 4.0, 6.0, 8.0};

ml::MlpConfig
goldenConfig()
{
    ml::MlpConfig config;
    config.epochs = 120;
    return config;
}

TEST(MlpWorkspace, GoldenEquivalenceWithPreWorkspaceImplementation)
{
    // Pinned from the pre-workspace (PR 1) implementation at the same
    // seed: the workspace engine restructures the loops but must not
    // change a single bit of the arithmetic.
    ml::Mlp net(goldenConfig());
    ml::MlpWorkspace ws;
    net.fit(goldenX(), kGoldenY, ws);
    EXPECT_EQ(net.trainingMse(), 0.005230875614947751);
    EXPECT_EQ(net.predict(std::vector<double>{2.5, 2.5}),
              5.0102542199924294);
}

/**
 * The MLP^T training shape of the paper protocol: 100 rows of 28
 * features, so WEKA's automatic hidden layer has (28 + 1) / 2 = 14
 * units — a width that is not a whole number of 8-double rows.
 */
struct PaperShape
{
    Matrix x{100, 28};
    std::vector<double> y = std::vector<double>(100);
};

PaperShape
paperShape()
{
    PaperShape data;
    util::Rng rng(28);
    for (std::size_t i = 0; i < data.x.rows(); ++i) {
        for (std::size_t c = 0; c < data.x.cols(); ++c)
            data.x(i, c) = rng.uniform(1.0, 50.0);
        data.y[i] =
            data.x(i, 0) + 0.5 * data.x(i, 13) - 0.25 * data.x(i, 27);
    }
    return data;
}

/**
 * Runs `body(tier)` under every dispatch tier this build and CPU
 * offer, scalar first, then restores the active tier.
 */
template <class Body>
void
forEachTier(Body body)
{
    const simd::Tier saved = simd::activeTier();
    for (simd::Tier tier :
         {simd::Tier::Scalar, simd::Tier::Avx2, simd::Tier::Avx512}) {
        if (simd::requestTier(tier) != tier)
            continue; // tier unavailable on this build/CPU
        body(tier);
    }
    simd::setTier(saved);
}

TEST(MlpWorkspace, PaperShapeGoldenOnEveryTier)
{
    // 100 x 28 -> 14 -> 1 for 500 epochs with WEKA's defaults, the fit
    // MLP^T repeats for every family-CV task. Pinned with the earlier
    // unpadded, unaligned workspace layout: padding the rows to whole
    // cache lines must not change a bit, on any tier.
    const PaperShape data = paperShape();
    forEachTier([&](simd::Tier tier) {
        SCOPED_TRACE(simd::tierName(tier));
        ml::Mlp net{ml::MlpConfig{}};
        ml::MlpWorkspace ws;
        net.fit(data.x, data.y, ws);
        EXPECT_EQ(net.hiddenSizes(), std::vector<std::size_t>{14});
        EXPECT_EQ(net.trainingMse(), 1.0274292387990738e-05);
        EXPECT_EQ(net.predict(std::vector<double>(28, 25.0)),
                  30.978495550932927);
    });
}

TEST(MlpWorkspace, HiddenWidthsAroundTheRowPaddingAgreeAcrossTiers)
{
    // Widths one below, at and one above each 8-double row boundary,
    // plus two-hidden-layer nets whose delta recurrence reads padded
    // successor rows: every tier must reproduce the scalar tier.
    const PaperShape data = paperShape();
    const std::vector<std::vector<std::size_t>> shapes = {
        {7}, {8}, {9}, {15}, {16}, {17}, {15, 9}, {9, 17}};
    for (const auto &hidden : shapes) {
        ml::MlpConfig config;
        config.hiddenLayers = hidden;
        config.epochs = 60;
        std::vector<double> ref_loss;
        std::vector<double> ref_pred;
        forEachTier([&](simd::Tier tier) {
            SCOPED_TRACE(std::string(simd::tierName(tier)) + " hidden " +
                         std::to_string(hidden.front()) + "," +
                         std::to_string(hidden.back()));
            ml::Mlp net(config);
            ml::MlpWorkspace ws;
            net.fit(data.x, data.y, ws);
            if (tier == simd::Tier::Scalar) {
                ref_loss = net.lossHistory();
                ref_pred = net.predict(data.x);
                return;
            }
            EXPECT_EQ(net.lossHistory(), ref_loss);
            EXPECT_EQ(net.predict(data.x), ref_pred);
        });
    }
}

TEST(MlpWorkspace, ExplicitWorkspaceMatchesPerThreadWorkspace)
{
    ml::Mlp implicit_ws(goldenConfig());
    implicit_ws.fit(goldenX(), kGoldenY);

    ml::Mlp explicit_ws(goldenConfig());
    ml::MlpWorkspace ws;
    explicit_ws.fit(goldenX(), kGoldenY, ws);

    EXPECT_EQ(implicit_ws.lossHistory(), explicit_ws.lossHistory());
    const Matrix x = goldenX();
    for (std::size_t r = 0; r < x.rows(); ++r)
        EXPECT_EQ(implicit_ws.predict(x.row(r)),
                  explicit_ws.predict(x.row(r)));
}

TEST(MlpWorkspace, WarmWorkspaceMatchesColdWorkspace)
{
    // Reusing a workspace across fits (the steady state of the
    // experiment protocols) must leave no trace in the results.
    ml::MlpWorkspace warm;
    ml::Mlp first(goldenConfig());
    first.fit(goldenX(), kGoldenY, warm);

    ml::Mlp reused(goldenConfig());
    reused.fit(goldenX(), kGoldenY, warm);
    ml::Mlp cold_net(goldenConfig());
    ml::MlpWorkspace cold;
    cold_net.fit(goldenX(), kGoldenY, cold);

    EXPECT_EQ(reused.lossHistory(), cold_net.lossHistory());
    EXPECT_EQ(reused.predict(std::vector<double>{2.5, 2.5}),
              cold_net.predict(std::vector<double>{2.5, 2.5}));
}

TEST(MlpWorkspace, ReuseAcrossArchitecturesIsSafe)
{
    // One workspace alternating between different network shapes must
    // produce exactly what a dedicated workspace produces.
    util::Rng rng(11);
    Matrix wide(20, 6);
    std::vector<double> wide_y(20);
    for (std::size_t i = 0; i < 20; ++i) {
        for (std::size_t c = 0; c < 6; ++c)
            wide(i, c) = rng.uniform(-2.0, 2.0);
        wide_y[i] = wide(i, 0) - wide(i, 5);
    }

    ml::MlpConfig deep_config = goldenConfig();
    deep_config.hiddenLayers = {5, 3};

    ml::MlpWorkspace shared;
    ml::Mlp narrow_shared(goldenConfig());
    narrow_shared.fit(goldenX(), kGoldenY, shared);
    ml::Mlp deep_shared(deep_config);
    deep_shared.fit(wide, wide_y, shared);
    ml::Mlp narrow_again(goldenConfig());
    narrow_again.fit(goldenX(), kGoldenY, shared);

    ml::MlpWorkspace dedicated;
    ml::Mlp deep_dedicated(deep_config);
    deep_dedicated.fit(wide, wide_y, dedicated);

    EXPECT_EQ(deep_shared.lossHistory(), deep_dedicated.lossHistory());
    ml::Mlp narrow_dedicated(goldenConfig());
    ml::MlpWorkspace fresh;
    narrow_dedicated.fit(goldenX(), kGoldenY, fresh);
    EXPECT_EQ(narrow_again.lossHistory(),
              narrow_dedicated.lossHistory());
}

TEST(MlpWorkspace, LayerSizesReflectTrainedArchitecture)
{
    ml::MlpWorkspace ws;
    ml::Mlp net(goldenConfig());
    net.fit(goldenX(), kGoldenY, ws);
    // 2 inputs -> WEKA 'a' hidden layer of (2 + 1) / 2 = 1 -> 1 output.
    EXPECT_EQ(ws.layerSizes(),
              (std::vector<std::size_t>{2, 1, 1}));
}

TEST(MlpWorkspace, ResizeValidatesLayerCount)
{
    ml::MlpWorkspace ws;
    EXPECT_THROW(ws.resize({5}), util::InvalidArgument);
}

TEST(MlpWorkspace, WarmFitAllocationCountIsIndependentOfEpochs)
{
    // The tentpole claim: with a warm workspace the epoch x sample loop
    // performs zero heap allocation, so quadrupling the epoch count
    // must not change the number of allocations a fit performs (the
    // fixed per-fit cost — normalization, publishing layers_ — stays).
    util::Rng rng(12);
    Matrix x(30, 4);
    std::vector<double> y(30);
    for (std::size_t i = 0; i < 30; ++i) {
        for (std::size_t c = 0; c < 4; ++c)
            x(i, c) = rng.uniform(-1.0, 1.0);
        y[i] = x(i, 0) + 0.5 * x(i, 1) - x(i, 3);
    }

    ml::MlpConfig short_config;
    short_config.epochs = 50;
    ml::MlpConfig long_config;
    long_config.epochs = 200;

    // Warm the workspace for the largest epoch count and row count.
    ml::MlpWorkspace ws;
    {
        ml::Mlp warmup(long_config);
        warmup.fit(x, y, ws);
    }

    const auto count_fit = [&](const ml::MlpConfig &config) {
        ml::Mlp net(config);
        const std::size_t before =
            g_news.load(std::memory_order_relaxed);
        net.fit(x, y, ws);
        return g_news.load(std::memory_order_relaxed) - before;
    };

    const std::size_t short_allocs = count_fit(short_config);
    const std::size_t long_allocs = count_fit(long_config);
    EXPECT_EQ(short_allocs, long_allocs);
    // Sanity: the fixed per-fit cost is small (a handful of vectors and
    // the published layers), nowhere near one allocation per sample.
    EXPECT_LT(long_allocs, 40u);
}

} // namespace
