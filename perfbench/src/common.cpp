#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/trace.h"
#include "simd/simd.h"

namespace perfbench
{

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
Report::fail(const std::string &what, std::uint64_t count)
{
    failed += count;
    std::cerr << "perfbench: check failed: " << what << "\n";
    std::string &log = strings["failures"];
    if (log.size() < 4096)
        log += (log.empty() ? "" : "; ") + what;
}

std::string
Report::toJson() const
{
    std::ostringstream out;
    out << "{\"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"samples\": {";
    bool first = true;
    for (const auto &[name, list] : samples) {
        out << (first ? "" : ", ") << jsonString(name) << ": [";
        for (std::size_t i = 0; i < list.size(); ++i)
            out << (i ? ", " : "") << jsonNumber(list[i]);
        out << "]";
        first = false;
    }
    out << "}, \"values\": {";
    first = true;
    for (const auto &[name, v] : values) {
        out << (first ? "" : ", ") << jsonString(name) << ": "
            << jsonNumber(v);
        first = false;
    }
    out << "}, \"strings\": {";
    first = true;
    for (const auto &[name, s] : strings) {
        out << (first ? "" : ", ") << jsonString(name) << ": "
            << jsonString(s);
        first = false;
    }
    out << "}}\n";
    return out.str();
}

void
Digest::add(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        h_ = (h_ ^ bytes[i]) * 1099511628211ULL;
}

void
Digest::add(std::string_view text)
{
    const std::uint64_t n = text.size();
    add(&n, sizeof n);
    add(text.data(), text.size());
}

void
Digest::add(const std::vector<double> &values)
{
    const std::uint64_t n = values.size();
    add(&n, sizeof n);
    add(values.data(), values.size() * sizeof(double));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

bool
bitEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                0);
}

bool
isRankingOf(const std::vector<dtrank::core::RankedMachine> &entries,
            const std::vector<double> &predicted)
{
    if (entries.size() != predicted.size())
        return false;
    std::vector<bool> seen(predicted.size(), false);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto &e = entries[i];
        if (e.machineIndex >= predicted.size() || seen[e.machineIndex] ||
            e.rank != i + 1 ||
            std::memcmp(&e.predictedScore, &predicted[e.machineIndex],
                        sizeof(double)) != 0)
            return false;
        seen[e.machineIndex] = true;
        if (i > 0) {
            const auto &prev = entries[i - 1];
            if (!(prev.predictedScore > e.predictedScore ||
                  (prev.predictedScore == e.predictedScore &&
                   prev.machineIndex < e.machineIndex)))
                return false;
        }
    }
    return true;
}

double
peakRssMiB(const std::string &pid)
{
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

double
cpuSeconds(const std::string &pid)
{
    if (pid == "self") {
        timespec ts{};
        ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }
    std::error_code error;
    const std::filesystem::path tasks = "/proc/" + pid + "/task";
    double ns = 0.0;
    for (const auto &task :
         std::filesystem::directory_iterator(tasks, error)) {
        std::ifstream stat(task.path() / "schedstat");
        double on_cpu = 0.0;
        if (stat >> on_cpu)
            ns += on_cpu;
    }
    return ns * 1e-9;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
recordHost(Report &report)
{
    using namespace dtrank;
    report.strings["host.nproc"] =
        std::to_string(std::thread::hardware_concurrency());
    report.strings["host.simd_tier"] = simd::tierName(simd::activeTier());
    report.strings["host.cpu_features"] = simd::cpuFeatureString();
    report.strings["host.compiler"] = __VERSION__;
    report.strings["host.build_type"] = PERFBENCH_BUILD_TYPE;
}

std::uint64_t
InputRng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::size_t
InputRng::index(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

std::vector<std::size_t>
InputRng::sample(std::size_t n, std::size_t k)
{
    // Partial Fisher-Yates over [0, n).
    std::vector<std::size_t> pool(n);
    for (std::size_t i = 0; i < n; ++i)
        pool[i] = i;
    for (std::size_t i = 0; i < k; ++i)
        std::swap(pool[i], pool[i + index(n - i)]);
    pool.resize(k);
    std::sort(pool.begin(), pool.end());
    return pool;
}

void
setTracing(bool on)
{
    if (on)
        dtrank::obs::TraceCollector::global().enable();
    else
        dtrank::obs::TraceCollector::global().disable();
}

void
writeTrace(const std::string &path)
{
    // Written from the collector's events rather than its toJson(),
    // which prints timestamps with six significant digits: spans a few
    // seconds into a run would lose the precision self time needs.
    dtrank::obs::TraceCollector &collector =
        dtrank::obs::TraceCollector::global();
    collector.disable();
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    bool first = true;
    char num[64];
    for (const auto &e : collector.snapshot()) {
        std::snprintf(num, sizeof num,
                      "\"ts\": %.3f, \"dur\": %.3f, \"tid\": %zu",
                      static_cast<double>(e.startNanos) / 1e3,
                      static_cast<double>(e.durationNanos) / 1e3, e.tid);
        out << (first ? "\n" : ",\n") << "{\"name\": "
            << jsonString(e.name) << ", \"cat\": " << jsonString(e.category)
            << ", \"ph\": \"X\", " << num << "}";
        first = false;
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
    collector.clear();
}

} // namespace perfbench
