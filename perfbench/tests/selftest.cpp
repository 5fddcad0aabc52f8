/**
 * @file
 * Self-tests of dtbench's output checks: flipping any one bit of
 * one prediction must change the digest the committed table is
 * compared against, and must break the bit-equality cross-check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <cstdint>
#include <ctime>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common.h"
#include "openloop.h"

namespace
{

std::vector<double>
predictions()
{
    std::vector<double> v;
    for (int i = 0; i < 64; ++i)
        v.push_back(1.0 / (i + 3.0));
    return v;
}

std::string
digestOf(const std::vector<double> &v)
{
    perfbench::Digest d;
    d.add(std::string_view("NN^T"));
    d.add(v);
    return d.hex();
}

} // namespace

TEST(Digest, EveryFlippedBitChangesTheDigest)
{
    const std::vector<double> clean = predictions();
    const std::string expected = digestOf(clean);
    for (std::size_t i : {std::size_t{0}, std::size_t{17}, clean.size() - 1}) {
        for (int bit = 0; bit < 64; ++bit) {
            std::vector<double> bad = clean;
            bad[i] = std::bit_cast<double>(
                std::bit_cast<std::uint64_t>(bad[i]) ^
                (std::uint64_t{1} << bit));
            EXPECT_NE(digestOf(bad), expected)
                << "element " << i << " bit " << bit;
            EXPECT_FALSE(perfbench::bitEqual(bad, clean));
        }
    }
    EXPECT_EQ(digestOf(clean), expected);
    EXPECT_TRUE(perfbench::bitEqual(clean, predictions()));
}

TEST(Digest, LengthAndLabelsAreCovered)
{
    std::vector<double> v = predictions();
    const std::string full = digestOf(v);
    v.pop_back();
    EXPECT_NE(digestOf(v), full);

    perfbench::Digest a, b;
    a.add(std::string_view("ab"));
    a.add(std::string_view("c"));
    b.add(std::string_view("a"));
    b.add(std::string_view("bc"));
    EXPECT_NE(a.hex(), b.hex());
}

TEST(Ranking, OnlyTheExactRankingOfThePredictionsPasses)
{
    std::vector<double> predicted = predictions();
    predicted[5] = predicted[9]; // a tie, ranked in index order
    const dtrank::core::MachineRanking ranking(predicted);
    const auto &clean = ranking.entries();
    EXPECT_TRUE(perfbench::isRankingOf(clean, predicted));

    auto dropped = clean;
    dropped.pop_back();
    EXPECT_FALSE(perfbench::isRankingOf(dropped, predicted));

    auto duplicated = clean;
    duplicated[3].machineIndex = duplicated[2].machineIndex;
    EXPECT_FALSE(perfbench::isRankingOf(duplicated, predicted));

    // Scores swapped along with their indices' places: still sorted,
    // but attached to the wrong machines.
    auto misattached = clean;
    std::swap(misattached[0].machineIndex, misattached[1].machineIndex);
    EXPECT_FALSE(perfbench::isRankingOf(misattached, predicted));

    auto flipped = clean;
    flipped[10].predictedScore = std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(flipped[10].predictedScore) ^ 1u);
    EXPECT_FALSE(perfbench::isRankingOf(flipped, predicted));

    auto reordered = clean;
    std::swap(reordered[20], reordered[21]);
    reordered[20].rank = 21;
    reordered[21].rank = 22;
    EXPECT_FALSE(perfbench::isRankingOf(reordered, predicted));

    auto tie_swapped = clean;
    const auto tie = std::find_if(
        tie_swapped.begin(), tie_swapped.end(),
        [](const auto &e) { return e.machineIndex == 5; });
    ASSERT_NE(tie + 1, tie_swapped.end());
    std::swap(tie->machineIndex, (tie + 1)->machineIndex);
    EXPECT_FALSE(perfbench::isRankingOf(tie_swapped, predicted));
}

TEST(InputRng, SamplesAreDistinctSortedAndSeeded)
{
    perfbench::InputRng a(7), b(7), c(8);
    const auto sa = a.sample(1000, 64);
    EXPECT_EQ(sa, b.sample(1000, 64));
    EXPECT_NE(sa, c.sample(1000, 64));
    EXPECT_EQ(std::set<std::size_t>(sa.begin(), sa.end()).size(), 64u);
    EXPECT_TRUE(std::is_sorted(sa.begin(), sa.end()));
    EXPECT_LT(sa.back(), 1000u);
}

namespace
{

/** A step at `rate` whose request i is answered after latency(i) ms. */
template <typename Latency>
perfbench::StepResult
syntheticStep(double rate, std::size_t n, Latency latency)
{
    perfbench::StepResult step;
    step.rate = rate;
    for (std::size_t i = 0; i < n; ++i) {
        const double due = static_cast<double>(i) * step.periodMs();
        const double ms = latency(i);
        step.latenessMs.push_back(0.0);
        step.latencyMs.push_back(ms);
        step.recvMs.push_back(due + ms);
        ++step.ok;
    }
    return step;
}

} // namespace

TEST(OpenLoop, NearestRankIgnoresUnansweredRequests)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    v.push_back(nan);
    EXPECT_EQ(perfbench::nearestRank(v, 0.99), 99.0);
    EXPECT_EQ(perfbench::nearestRank(v, 0.50), 50.0);
    EXPECT_TRUE(std::isnan(perfbench::nearestRank({nan}, 0.5)));
}

TEST(OpenLoop, SteadyLatencyIsNoBacklog)
{
    // 10k req/s at a constant 2 ms: about 20 requests in flight.
    const auto step = syntheticStep(10000, 12500, [](std::size_t) {
        return 2.0;
    });
    const auto inflight = perfbench::inflightSeries(step, 100.0);
    ASSERT_EQ(inflight.size(), 12u);
    for (double v : inflight)
        EXPECT_NEAR(v, 20.0, 1.0);
    const auto verdict = perfbench::judgeStep(step, 20.0, 100.0);
    EXPECT_TRUE(verdict.pass) << verdict.reason;
}

TEST(OpenLoop, LatencyGrowingWithTimeIsABacklog)
{
    // Service falls behind: latency grows by 1 ms per 100 requests, so
    // the in-flight count climbs through the step while p99 stays
    // under a generous limit.
    const auto step = syntheticStep(10000, 12500, [](std::size_t i) {
        return 0.5 + static_cast<double>(i) / 100.0 * 0.1;
    });
    const auto inflight = perfbench::inflightSeries(step, 100.0);
    EXPECT_GT(inflight.back(), inflight.front() + 50);
    EXPECT_TRUE(perfbench::growingBacklog(inflight, 50));
    const auto verdict = perfbench::judgeStep(step, 1000.0, 100.0);
    EXPECT_FALSE(verdict.pass);
    EXPECT_EQ(verdict.reason, "growing backlog");
}

TEST(OpenLoop, LostAndLateRequestsFailAStep)
{
    auto step = syntheticStep(1000, 2000, [](std::size_t) { return 1.0; });
    auto lost = step;
    lost.recvMs[1500] = std::numeric_limits<double>::quiet_NaN();
    lost.latencyMs[1500] = std::numeric_limits<double>::quiet_NaN();
    --lost.ok;
    ++lost.lost;
    EXPECT_FALSE(perfbench::judgeStep(lost, 20.0, 100.0).pass);

    // A generator stall delays 30 sends; timed from the due time,
    // their latency carries the stall and breaks the p99 limit.
    auto late = step;
    for (std::size_t i = 1000; i < 1030; ++i) {
        late.latenessMs[i] = 25.0;
        late.latencyMs[i] += 25.0;
        late.recvMs[i] += 25.0;
    }
    const auto verdict = perfbench::judgeStep(late, 20.0, 100.0);
    EXPECT_FALSE(verdict.pass);
    EXPECT_EQ(verdict.reason, "p99 over the limit");
    EXPECT_EQ(perfbench::nearestRank(late.latenessMs, 0.99), 25.0);
}

TEST(OpenLoop, LadderClimbsThenBisects)
{
    perfbench::RateLadder ladder(5000, 8000, 2.0, 8, 2);
    // Capacity 20k: 8k and 16k pass, 32k fails, then two bisections.
    std::vector<double> tried;
    for (double rate = ladder.next(); rate > 0; rate = ladder.next()) {
        tried.push_back(rate);
        ladder.record(rate, rate <= 20000);
    }
    ASSERT_EQ(tried.size(), 5u);
    EXPECT_EQ(tried[0], 8000);
    EXPECT_EQ(tried[1], 16000);
    EXPECT_EQ(tried[2], 32000);
    EXPECT_NEAR(tried[3], std::sqrt(16000.0 * 32000.0), 1e-6);
    EXPECT_GT(ladder.maxOk(), 16000);
    EXPECT_LE(ladder.maxOk(), 20000);

    perfbench::RateLadder none(0, 8000, 2.0, 3, 0);
    none.record(none.next(), false);
    EXPECT_EQ(none.next(), 0);
    EXPECT_EQ(none.maxOk(), 0);
}

namespace
{

/** Spins until this thread has used `seconds` of CPU time. */
void
spinFor(double seconds)
{
    const auto now = [] {
        timespec ts{};
        ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    };
    const double end = now() + seconds;
    while (now() < end) {
    }
}

} // namespace

TEST(CpuTime, ThisProcessCountsThreadsThatEnded)
{
    const double before = perfbench::cpuSeconds();
    std::thread(spinFor, 0.05).join();
    EXPECT_GE(perfbench::cpuSeconds() - before, 0.05);
}

TEST(CpuTime, AnotherProcessIsReadFromItsLiveThreads)
{
    const std::string pid = std::to_string(::getpid());
    const double before = perfbench::cpuSeconds(pid);
    spinFor(0.05);
    // schedstat counts on-CPU time, which includes the spin.
    EXPECT_GE(perfbench::cpuSeconds(pid) - before, 0.05);
    EXPECT_EQ(perfbench::cpuSeconds("no-such-process"), 0.0);
}
