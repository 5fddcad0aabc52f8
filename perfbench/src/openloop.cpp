#include "openloop.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common.h"

namespace perfbench
{

double
nearestRank(std::vector<double> values, double q)
{
    values.erase(std::remove_if(values.begin(), values.end(),
                                [](double v) { return !std::isfinite(v); }),
                 values.end());
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) -
                  1];
}

std::vector<double>
inflightSeries(const StepResult &step, double window_ms)
{
    const std::size_t n = step.latenessMs.size();
    const double span = static_cast<double>(n) * step.periodMs();
    const auto windows =
        static_cast<std::size_t>(std::floor(span / window_ms));
    std::vector<double> series(windows, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double sent =
            static_cast<double>(i) * step.periodMs() + step.latenessMs[i];
        if (!std::isfinite(sent))
            continue;
        // Window w ends at (w + 1) * window_ms; the request is in
        // flight at every end in [sent, recv).
        const double recv = step.recvMs[i];
        for (std::size_t w = 0; w < windows; ++w) {
            const double end = static_cast<double>(w + 1) * window_ms;
            if (sent <= end && !(recv <= end))
                series[w] += 1.0;
        }
    }
    return series;
}

bool
growingBacklog(const std::vector<double> &inflight, double slack)
{
    const std::size_t quarter = inflight.size() / 4;
    if (quarter == 0)
        return false;
    const std::vector<double> head(inflight.begin(),
                                   inflight.begin() +
                                       static_cast<std::ptrdiff_t>(quarter));
    const std::vector<double> tail(inflight.end() -
                                       static_cast<std::ptrdiff_t>(quarter),
                                   inflight.end());
    return median(tail) > median(head) + slack;
}

StepVerdict
judgeStep(const StepResult &step, double p99_limit_ms, double window_ms)
{
    StepVerdict verdict;
    verdict.p99Ms = nearestRank(step.latencyMs, 0.99);
    const std::uint64_t failed =
        step.error + step.overloaded + step.lost + step.wrong;
    const double slack = std::max(16.0, step.rate * 0.005);
    if (failed > 0)
        verdict.reason = std::to_string(failed) + " failed";
    else if (!(verdict.p99Ms <= p99_limit_ms))
        verdict.reason = "p99 over the limit";
    else if (growingBacklog(inflightSeries(step, window_ms), slack))
        verdict.reason = "growing backlog";
    else
        verdict.pass = true;
    return verdict;
}

RateLadder::RateLadder(double base, double start, double factor,
                       std::size_t climb, std::size_t refine)
    : best_(base), start_(start), factor_(factor), climb_(climb),
      refine_(refine)
{
}

double
RateLadder::next() const
{
    if (worst_ == 0.0)
        return climbed_ < climb_
                   ? start_ * std::pow(factor_, static_cast<double>(climbed_))
                   : 0.0;
    if (refined_ >= refine_)
        return 0.0;
    return best_ > 0.0 ? std::sqrt(best_ * worst_) : worst_ / 2;
}

void
RateLadder::record(double rate, bool pass)
{
    if (worst_ == 0.0)
        ++climbed_;
    else
        ++refined_;
    if (pass)
        best_ = std::max(best_, rate);
    else
        worst_ = worst_ == 0.0 ? rate : std::min(worst_, rate);
}

} // namespace perfbench
