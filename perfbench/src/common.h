/**
 * @file
 * Shared pieces of dtbench: options, the raw report that
 * run.py analyses, the prediction digest, clocks, memory and host
 * readings, and access to the program's own counters.
 *
 * dtbench measures and records raw samples only. Percentiles,
 * medians, the correctness verdict against the committed digests and
 * the trace breakdown are computed by run.py from this report.
 */

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/ranking.h"

namespace perfbench
{

/** Worker threads the program gets (the box has 4 cores). */
inline constexpr std::size_t kThreads = 4;

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the timed part of one run. */
    double seconds = 24.0;
    /** Run the second half of the timed part with tracing on. */
    bool trace = false;
    /** Recompute a sample of outputs down an independent path. */
    bool crossCheck = false;
    /** Where scratch files and traces go. */
    std::string workDir = ".";
    /** Path of the dtrank_serve daemon (serve workload only). */
    std::string serveBin;
};

/**
 * Raw measurements of one run: sample lists, single values and
 * strings, keyed by name, plus the operation tallies.
 */
struct Report
{
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> values;
    std::map<std::string, std::string> strings;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    sample(const std::string &name, double v)
    {
        samples[name].push_back(v);
    }

    /** Records `count` failed operations; the run is then incorrect. */
    void fail(const std::string &what, std::uint64_t count = 1);

    /** Serializes as one JSON object. */
    std::string toJson() const;
};

/**
 * FNV-1a 64 over raw bytes. The benchmark keeps its own hash so the
 * committed digests do not move when the program's hashing does.
 */
class Digest
{
  public:
    void add(const void *data, std::size_t size);
    void add(std::string_view text);
    /** Length-prefixed raw IEEE-754 bytes of every element. */
    void add(const std::vector<double> &values);
    std::string hex() const;

  private:
    std::uint64_t h_ = 14695981039346656037ULL;
};

/** Bitwise equality of two double sequences (NaN-safe). */
bool bitEqual(const std::vector<double> &a, const std::vector<double> &b);

/**
 * Whether `entries` is the ranking of `predicted`: every index exactly
 * once, each with its own score bit for bit and its 1-based rank, best
 * first, equal scores in index order.
 */
bool isRankingOf(const std::vector<dtrank::core::RankedMachine> &entries,
                 const std::vector<double> &predicted);

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Calls `op` until another call would end after `budget` seconds,
 * judged by the mean call so far; always at least once. Returns the
 * number of calls.
 */
template <typename Op>
std::size_t
repeatFor(double budget, Op op)
{
    const auto start = Clock::now();
    std::size_t calls = 0;
    do {
        op();
        ++calls;
    } while (since(start) * static_cast<double>(calls + 1) /
                 static_cast<double>(calls) <=
             budget);
    return calls;
}

/** Peak resident memory (VmHWM) of a process in MiB; 0 if unknown. */
double peakRssMiB(const std::string &pid = "self");

/**
 * CPU time of process `pid` so far, in seconds. For this process it
 * counts every thread, ended ones too; for another it is summed over
 * its live threads from /proc/<pid>/task/<tid>/schedstat, which suits
 * a daemon whose threads live as long as it does.
 */
double cpuSeconds(const std::string &pid = "self");

/** Median (mean of the middle two when even); 0 for an empty list. */
double median(std::vector<double> values);

/** Host facts every result records: nproc, SIMD tier, CPU, compiler. */
void recordHost(Report &report);

/** splitmix64: the benchmark's own input generator. */
class InputRng
{
  public:
    explicit InputRng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform index in [0, n). */
    std::size_t index(std::size_t n);
    /** `k` distinct sorted indices in [0, n). */
    std::vector<std::size_t> sample(std::size_t n, std::size_t k);

  private:
    std::uint64_t state_;
};

/** Starts or pauses recording spans into the global collector. */
void setTracing(bool on);
/** Writes the recorded spans to `path`, stops recording, drops them. */
void writeTrace(const std::string &path);

void runProtocol(const Options &options, bool ragged, Report &report);
void runScale(const Options &options, Report &report);
void runServe(const Options &options, Report &report);

} // namespace perfbench
