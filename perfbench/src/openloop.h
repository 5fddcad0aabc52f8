/**
 * @file
 * The open-loop load generator's bookkeeping, kept free of sockets so the
 * self-tests can feed it synthetic schedules: per-request outcomes of
 * one rate step, backlog detection over sub-windows, the pass rule of
 * a ladder step, and the rate ladder itself.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Per-request outcome of one open-loop rate step. */
struct StepResult
{
    double rate = 0.0;
    /** Due time of request i is i / rate; all times in ms from that. */
    double periodMs() const { return 1e3 / rate; }
    /** Due-to-response latency; NaN unless the response was OK. */
    std::vector<double> latencyMs;
    /** Send time minus due time; NaN if never sent. */
    std::vector<double> latenessMs;
    /** Arrival time of the response; NaN if none arrived. */
    std::vector<double> recvMs;
    std::uint64_t ok = 0, error = 0, overloaded = 0, lost = 0, wrong = 0;
};

/** Nearest-rank q-quantile of the finite values; NaN when none. */
double nearestRank(std::vector<double> values, double q);

/**
 * Requests in flight (sent, not yet answered) at the end of each
 * `window_ms` sub-window of the step's send period.
 */
std::vector<double> inflightSeries(const StepResult &step,
                                   double window_ms);

/**
 * A backlog grows when the median in-flight count over the last
 * quarter of the sub-windows exceeds the median over the first quarter
 * by more than `slack` requests.
 */
bool growingBacklog(const std::vector<double> &inflight, double slack);

/** Whether a ladder step held its rate, and why not. */
struct StepVerdict
{
    bool pass = false;
    std::string reason;
    double p99Ms = 0.0;
};

/**
 * A step passes with every request answered OK and correct, p99
 * latency within `p99_limit_ms`, and no growing backlog (slack: 5 ms
 * worth of arrivals, at least 16 requests).
 */
StepVerdict judgeStep(const StepResult &step, double p99_limit_ms,
                      double window_ms);

/**
 * Rate ladder: climbs geometrically from `start` until a step fails
 * (at most `climb` steps), then bisects geometrically between the best
 * passing and the lowest failing rate `refine` times. `base` is a rate
 * already known to pass (0 if none).
 */
class RateLadder
{
  public:
    RateLadder(double base, double start, double factor, std::size_t climb,
               std::size_t refine);

    /** The next rate to run, or 0 when the ladder is done. */
    double next() const;
    void record(double rate, bool pass);
    /** Highest passing rate so far (`base` if no step passed). */
    double maxOk() const { return best_; }

  private:
    double best_;
    double worst_ = 0.0; ///< Lowest failing rate; 0 = none yet.
    double start_;
    double factor_;
    std::size_t climb_, refine_;
    std::size_t climbed_ = 0, refined_ = 0;
};

} // namespace perfbench
