/**
 * @file
 * serve_open_loop: drive a fresh `dtrank_serve --dataset scaled:2000
 * --workers 2` over its wire protocol with an open-loop schedule.
 *
 * Set-up starts the daemon and warms 8 sessions with every method
 * (nn, mlp, gaknn), so no model is fitted inside a timed window. Each
 * of several fresh daemons is set up and then runs its share of the
 * fixed low and high windows and of a closed-loop saturation phase;
 * the last one also runs the rate ladder. Each rate step sends
 * requests on two connections at fixed due times, whatever the
 * responses do, and times every request from its due time. After each
 * step the daemon's Prometheus text is scraped. The saturation phase
 * keeps a fixed number of requests in flight instead and counts the
 * answers per second. Every
 * OK response is compared with the offline top-10 computed in this
 * process through experiments::predictTask, the harness core the
 * daemon shares.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "baseline/ga_knn.h"
#include "common.h"
#include "openloop.h"
#include "dataset/mica.h"
#include "dataset/scaled_spec.h"
#include "experiments/harness.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/error.h"

namespace perfbench
{

namespace
{

using dtrank::experiments::Method;
using dtrank::serve::RankedMachine;

constexpr std::size_t kMachines = 2000;
constexpr std::size_t kSessions = 8;
constexpr std::size_t kOwned = 10;
constexpr std::size_t kTargets = 64;
constexpr std::uint32_t kTop = 10;
constexpr std::size_t kConnections = 2;
constexpr const char *kWorkers = "2";
constexpr std::array<Method, 3> kMethods = {Method::NnT, Method::MlpT,
                                            Method::GaKnn};
/** Grace period for responses after a step's last due time. */
constexpr double kDrainSeconds = 2.0;
/** Sub-window over which in-flight requests are counted. */
constexpr double kWindowMs = 100.0;
/** Fresh daemons per run, each measured for a share of the fixed
 *  windows. Whether requests wait out MLP^T batch holds is decided per
 *  daemon, so the median over daemons is steadier than one daemon. */
constexpr std::size_t kDaemons = 8;

// The schedule: a fixed low and high rate, each for a fifth of the
// timed part, then a closed-loop saturation phase for another fifth,
// all three split evenly over the daemons; then the ladder on the last
// daemon for a quarter: x1.25 steps from 10000 req/s until one fails
// (at most 8), then three bisections. The last 15% is left for what
// each step adds: planning, draining, scrapes and daemon start-ups.
// A third of the requests are MLP^T, which never coalesce in this mix
// but still hold a worker for the 500 us batch hold, so the client
// median is the faster methods' 75th percentile. At 1000 req/s the
// holds delay enough other requests, in some phases, to push it to
// the MLP^T latency; at 500 req/s that is rare.
constexpr double kLowRps = 500;
constexpr double kHighRps = 3000;
constexpr double kFixedShare = 0.2;
constexpr double kSaturationShare = 0.2;
constexpr double kLadderShare = 0.25;
constexpr double kLadderStart = 10000;
constexpr double kLadderFactor = 1.25;
constexpr std::size_t kLadderClimb = 8;
constexpr std::size_t kLadderRefine = 3;
/** Requests in flight on each connection in the saturation phase:
 *  enough to keep both workers busy and let same-method requests
 *  coalesce, far below the daemon's queue depth of 256. */
constexpr std::size_t kSaturationDepth = 32;
/** Distinct requests the saturation phase cycles through. */
constexpr std::size_t kSaturationPlans = 4096;
/** p99 limit of a ladder step: above the ~10 ms tail a busy shared
 *  host adds, below the queue-full latency of an overloaded daemon. */
constexpr double kP99LimitMs = 20.0;

/** One warmed session: its partial vector and offline predictions. */
struct Session
{
    std::uint32_t app = 0;
    std::vector<std::pair<std::uint32_t, double>> predictive;
    /** Machines outside the predictive set, ascending. */
    std::vector<std::uint32_t> universe;
    /** Offline full-universe predictions per kMethods entry. */
    std::array<std::vector<double>, kMethods.size()> predicted;
};

/** Tallies of a closed-loop saturation phase. */
struct Saturation
{
    /** OK answers that arrived within the phase, per second. */
    double okPerSecond = 0.0;
    std::uint64_t sent = 0, ok = 0, refused = 0, lost = 0, wrong = 0;
};

/** A pre-encoded request with the ranking it must come back with. */
struct Planned
{
    std::vector<std::uint8_t> frame;
    std::vector<RankedMachine> expected;
};

/**
 * Sessions and their offline answers: the predictive database is the
 * owned machines' rows (whose app row is the partial vector), the
 * target universe every other machine, and the MLP seed the serving
 * path's split tag 0 seed.
 */
std::vector<Session>
makeSessions(std::uint64_t seed)
{
    using namespace dtrank;
    dataset::ScaledSpecConfig gen_config;
    gen_config.machines = kMachines;
    gen_config.seed = seed;
    const dataset::ScaledSpecGenerator generator(gen_config);
    const dataset::PerfDatabase db = generator.generate();
    const linalg::Matrix chars =
        dataset::MicaGenerator().generate(generator.benchmarkProfiles());
    const experiments::MethodSuiteConfig config;

    InputRng rng(seed);
    std::vector<Session> sessions(kSessions);
    for (Session &s : sessions) {
        s.app = static_cast<std::uint32_t>(rng.index(db.benchmarkCount()));
        const std::vector<std::size_t> owned = rng.sample(kMachines, kOwned);
        std::vector<std::size_t> universe;
        std::size_t next = 0;
        for (std::size_t m = 0; m < kMachines; ++m) {
            if (next < owned.size() && owned[next] == m) {
                s.predictive.emplace_back(static_cast<std::uint32_t>(m),
                                          db.scores()(s.app, m));
                ++next;
            } else {
                universe.push_back(m);
                s.universe.push_back(static_cast<std::uint32_t>(m));
            }
        }
        const dataset::PerfDatabase pred_db = db.selectMachines(owned);
        const dataset::PerfDatabase target_db = db.selectMachines(universe);
        baseline::GaKnnModel gaknn(config.gaKnn);
        gaknn.train(chars, pred_db.scores());
        for (std::size_t k = 0; k < kMethods.size(); ++k)
            s.predicted[k] = experiments::predictTask(
                kMethods[k], config, pred_db, target_db, s.app,
                experiments::taskMlpSeed(config, 0, s.app), &gaknn,
                &chars, nullptr);
    }
    return sessions;
}

/** Request `id`: method and session round-robin, 64 random targets. */
Planned
planRequest(const std::vector<Session> &sessions, std::uint64_t id,
            InputRng &rng)
{
    using namespace dtrank;
    const std::size_t k = id % kMethods.size();
    const Session &s = sessions[id % sessions.size()];
    serve::Request request;
    request.type = serve::MessageType::Rank;
    request.id = id;
    request.rank.method = kMethods[k];
    request.rank.app = s.app;
    request.rank.topK = kTop;
    request.rank.predictive = s.predictive;

    Planned plan;
    for (std::size_t pos : rng.sample(s.universe.size(), kTargets)) {
        request.rank.targets.push_back(s.universe[pos]);
        plan.expected.push_back({s.universe[pos], s.predicted[k][pos]});
    }
    std::sort(plan.expected.begin(), plan.expected.end(),
              [](const RankedMachine &a, const RankedMachine &b) {
                  if (a.predicted != b.predicted)
                      return a.predicted > b.predicted;
                  return a.machine < b.machine;
              });
    plan.expected.resize(kTop);
    serve::appendFrame(plan.frame, serve::encodeRequest(request));
    return plan;
}

bool
sameRanking(const std::vector<RankedMachine> &got,
            const std::vector<RankedMachine> &want)
{
    if (got.size() != want.size())
        return false;
    for (std::size_t i = 0; i < got.size(); ++i)
        if (got[i].machine != want[i].machine ||
            std::memcmp(&got[i].predicted, &want[i].predicted,
                        sizeof(double)) != 0)
            return false;
    return true;
}

/**
 * A dtrank_serve child process. The destructor stops it with SIGTERM
 * (SIGKILL after a grace period) and reaps it; the child also gets
 * SIGKILL should this process die first.
 */
class Daemon
{
  public:
    Daemon(const std::string &binary, std::uint64_t seed)
    {
        const std::string seed_arg = std::to_string(seed);
        std::vector<std::string> args = {
            binary,   "--dataset", "scaled:" + std::to_string(kMachines),
            "--seed", seed_arg,    "--workers",
            kWorkers, "--port",    "0"};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        int fds[2];
        if (::pipe(fds) != 0)
            throw dtrank::util::IoError("pipe failed");
        const pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ < 0)
            throw dtrank::util::IoError("fork failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
            ::dup2(fds[1], STDOUT_FILENO);
            ::close(fds[0]);
            ::close(fds[1]);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        ::close(fds[1]);
        out_ = fds[0];
        port_ = readPort();
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    std::uint16_t port() const { return port_; }

    /** Peak resident memory of the daemon so far. */
    double peakRssMiB() const
    {
        return perfbench::peakRssMiB(std::to_string(pid_));
    }

    /** On-CPU time of the daemon's threads so far, in seconds. */
    double cpuSeconds() const
    {
        return perfbench::cpuSeconds(std::to_string(pid_));
    }

    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        int status = 0;
        for (int i = 0; i < 200; ++i) {
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            pid_ = -1;
        }
        ::close(out_);
    }

  private:
    /** Reads the daemon's stdout up to its "LISTENING port=N" line. */
    std::uint16_t
    readPort()
    {
        std::string text;
        const auto deadline = Clock::now() + std::chrono::seconds(60);
        while (Clock::now() < deadline) {
            pollfd pfd{out_, POLLIN, 0};
            if (::poll(&pfd, 1, 100) <= 0)
                continue;
            char buf[512];
            const ssize_t n = ::read(out_, buf, sizeof buf);
            if (n <= 0)
                break;
            text.append(buf, static_cast<std::size_t>(n));
            const std::size_t at = text.find("LISTENING port=");
            const std::size_t eol =
                at == std::string::npos ? at : text.find('\n', at);
            if (eol != std::string::npos)
                return static_cast<std::uint16_t>(
                    std::stoul(text.substr(at + 15, eol - at - 15)));
        }
        stop();
        throw dtrank::util::IoError("dtrank_serve did not start: " + text);
    }

    pid_t pid_ = -1;
    int out_ = -1;
    std::uint16_t port_ = 0;
};

/**
 * A client connection to the daemon that acknowledges every response
 * at once. dtrank_serve leaves Nagle's algorithm on its accepted
 * sockets, so with the kernel's delayed ACKs a response would wait for
 * the ACK the next request on its connection carries: client latency
 * would then read the send schedule, not the daemon. TCP_QUICKACK is
 * not sticky, so it is set again after every read, which also sends
 * any ACK still pending.
 */
class Connection
{
  public:
    explicit Connection(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw dtrank::util::IoError("socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd_);
            throw dtrank::util::IoError("cannot connect to dtrank_serve");
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        quickAck();
    }

    ~Connection() { ::close(fd_); }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    void
    send(const std::vector<std::uint8_t> &frame)
    {
        std::size_t sent = 0;
        while (sent < frame.size()) {
            const ssize_t n = ::send(fd_, frame.data() + sent,
                                     frame.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw dtrank::util::IoError("send to dtrank_serve failed");
            sent += static_cast<std::size_t>(n);
        }
    }

    /**
     * The next response, waiting up to `timeout_ms` (0: only what has
     * arrived). False when none is complete by then.
     */
    bool
    read(dtrank::serve::Response &response, int timeout_ms)
    {
        while (!reader_.next(payload_)) {
            pollfd pfd{fd_, POLLIN, 0};
            const int ready = ::poll(&pfd, 1, timeout_ms);
            if (ready == 0)
                return false;
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                throw dtrank::util::IoError("poll failed");
            }
            std::uint8_t chunk[16384];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw dtrank::util::IoError("dtrank_serve closed the "
                                            "connection");
            quickAck();
            reader_.feed(chunk, static_cast<std::size_t>(n));
        }
        response = dtrank::serve::decodeResponse(payload_.data(),
                                                 payload_.size());
        return true;
    }

  private:
    void
    quickAck()
    {
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
    }

    int fd_ = -1;
    dtrank::serve::FrameReader reader_;
    std::vector<std::uint8_t> payload_;
};

class LoadGenerator
{
  public:
    LoadGenerator(std::uint16_t port, const std::vector<Session> &sessions,
           std::uint64_t seed)
        : sessions_(sessions), rng_(seed ^ 0x5e55105ULL)
    {
        for (auto &connection : connections_)
            connection = std::make_unique<Connection>(port);
    }

    /**
     * Sends one request per (session, method), all at once, and waits
     * for every answer: the fits and GA training this triggers are
     * the daemon's lazy one-time work.
     */
    void
    warm(Report &report)
    {
        const std::size_t n = sessions_.size() * kMethods.size();
        std::vector<Planned> plans;
        for (std::size_t i = 0; i < n; ++i) {
            plans.push_back(planRequest(sessions_, nextId_ + i, rng_));
            connections_[0]->send(plans.back().frame);
        }
        nextId_ += n;
        for (std::size_t got = 0; got < n; ++got) {
            dtrank::serve::Response response;
            if (!connections_[0]->read(response, 60000)) {
                report.fail("warm-up request timed out");
                return;
            }
            const std::uint64_t i = response.id - (nextId_ - n);
            ++report.attempted;
            if (i >= n ||
                response.status != dtrank::serve::Status::Ok ||
                !sameRanking(response.ranking, plans[i].expected))
                report.fail("warm-up response is wrong or refused");
        }
    }

    /** Runs `rate` requests/s for `seconds` on every connection. */
    StepResult
    step(double rate, double seconds)
    {
        const std::size_t n = static_cast<std::size_t>(
            std::llround(rate * seconds));
        std::vector<Planned> plans;
        plans.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            plans.push_back(planRequest(sessions_, nextId_ + i, rng_));
        const std::uint64_t base = nextId_;
        nextId_ += n;

        StepResult r;
        r.rate = rate;
        const double nan = std::numeric_limits<double>::quiet_NaN();
        r.latencyMs.assign(n, nan);
        r.latenessMs.assign(n, nan);
        r.recvMs.assign(n, nan);
        std::vector<std::uint8_t> status(n, 255);
        std::vector<std::uint8_t> wrong(n, 0);

        const double period_ms = 1e3 / rate;
        const auto t0 = Clock::now() + std::chrono::milliseconds(20);
        auto ms_since_t0 = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::milli>(t - t0)
                .count();
        };
        const auto deadline =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         static_cast<double>(n) * period_ms +
                         kDrainSeconds * 1e3));

        // One thread sends and receives on both connections, polling
        // without sleeping: a sleeping generator wakes late on a busy
        // host and that delay would read as server latency.
        std::size_t next = 0;
        std::size_t pending = n;
        bool broken = false;
        dtrank::serve::Response response;
        while (pending > 0 && !broken && Clock::now() < deadline) {
            const double now = ms_since_t0(Clock::now());
            while (next < n &&
                   static_cast<double>(next) * period_ms <= now) {
                const double sent = ms_since_t0(Clock::now());
                try {
                    connections_[next % kConnections]->send(
                        plans[next].frame);
                } catch (const dtrank::util::Error &) {
                    broken = true; // connection lost: the rest are lost
                    break;
                }
                r.latenessMs[next] =
                    sent - static_cast<double>(next) * period_ms;
                ++next;
            }
            for (auto &connection : connections_) {
                try {
                    while (connection->read(response, 0)) {
                        const double t = ms_since_t0(Clock::now());
                        if (response.id < base || response.id - base >= n)
                            continue;
                        const std::size_t i = response.id - base;
                        --pending;
                        r.recvMs[i] = t;
                        status[i] =
                            static_cast<std::uint8_t>(response.status);
                        if (response.status ==
                            dtrank::serve::Status::Ok) {
                            r.latencyMs[i] =
                                t - static_cast<double>(i) * period_ms;
                            wrong[i] = !sameRanking(response.ranking,
                                                    plans[i].expected);
                        }
                    }
                } catch (const dtrank::util::Error &) {
                    broken = true;
                }
            }
        }

        for (std::size_t i = 0; i < n; ++i) {
            switch (status[i]) {
              case 0:
                ++r.ok;
                break;
              case 1:
                ++r.error;
                break;
              case 2:
                ++r.overloaded;
                break;
              default:
                ++r.lost;
            }
            r.wrong += wrong[i];
        }
        return r;
    }

    /**
     * Closed loop: keeps `depth` requests in flight on every connection
     * for `seconds`, sending a connection its next request as soon as
     * one of its answers arrives. Requests cycle through
     * kSaturationPlans pre-planned ones, so planning stays out of the
     * window; with far fewer in flight, no id is ever in flight twice.
     * Answers still in flight at the end are awaited and checked but
     * not counted in the rate.
     */
    Saturation
    saturate(double seconds, std::size_t depth)
    {
        std::vector<Planned> plans;
        plans.reserve(kSaturationPlans);
        for (std::size_t i = 0; i < kSaturationPlans; ++i)
            plans.push_back(planRequest(sessions_, nextId_ + i, rng_));
        const std::uint64_t base = nextId_;
        nextId_ += kSaturationPlans;

        Saturation s;
        std::uint64_t next = 0, pending = 0, in_window = 0;
        auto send_next = [&](Connection &connection) {
            connection.send(plans[next++ % kSaturationPlans].frame);
            ++pending;
        };
        const auto t0 = Clock::now();
        const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
        const auto deadline =
            end + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kDrainSeconds));
        dtrank::serve::Response response;
        try {
            for (auto &connection : connections_)
                for (std::size_t i = 0; i < depth; ++i)
                    send_next(*connection);
            while (pending > 0 && Clock::now() < deadline) {
                for (auto &connection : connections_) {
                    while (connection->read(response, 0)) {
                        const bool open = Clock::now() < end;
                        if (response.id < base ||
                            response.id - base >= kSaturationPlans)
                            continue;
                        --pending;
                        if (response.status == dtrank::serve::Status::Ok) {
                            ++s.ok;
                            in_window += open;
                            s.wrong += !sameRanking(
                                response.ranking,
                                plans[response.id - base].expected);
                        } else {
                            ++s.refused;
                        }
                        if (open)
                            send_next(*connection);
                    }
                }
            }
        } catch (const dtrank::util::Error &) {
            // Connection lost: whatever is still in flight is lost.
        }
        s.sent = next;
        s.lost = pending;
        s.okPerSecond = static_cast<double>(in_window) / seconds;
        return s;
    }

    /** The daemon's Prometheus text, via a Metrics request. */
    std::string
    scrape()
    {
        dtrank::serve::Request request;
        request.type = dtrank::serve::MessageType::Metrics;
        request.id = nextId_++;
        std::vector<std::uint8_t> frame;
        dtrank::serve::appendFrame(frame,
                                   dtrank::serve::encodeRequest(request));
        connections_[0]->send(frame);
        dtrank::serve::Response response;
        while (connections_[0]->read(response, 5000))
            if (response.id == request.id)
                return response.text;
        throw dtrank::util::IoError("metrics scrape timed out");
    }

  private:
    const std::vector<Session> &sessions_;
    InputRng rng_;
    std::uint64_t nextId_ = 0;
    std::array<std::unique_ptr<Connection>, kConnections> connections_;
};

} // namespace

void
runServe(const Options &options, Report &report)
{
    using namespace dtrank;
    // The offline answers are the benchmark's own verification work,
    // computed before the first daemon starts and not part of setup_s.
    const std::vector<Session> sessions = makeSessions(options.seed);

    if (options.trace)
        setTracing(true);
    auto run_step = [&](LoadGenerator &load, const std::string &name,
                        double rate, double seconds) {
        StepResult r;
        {
            obs::TraceSpan span("bench_serve_step", "serve");
            r = load.step(rate, seconds);
        }
        const StepVerdict verdict =
            judgeStep(r, kP99LimitMs, kWindowMs);
        const std::string key = "step." + name + ".";
        report.strings["scrape." + name] = load.scrape();
        report.samples[key + "latency_ms"] = r.latencyMs;
        report.samples[key + "lateness_ms"] = r.latenessMs;
        report.samples[key + "inflight"] = inflightSeries(r, kWindowMs);
        report.values[key + "rate"] = rate;
        report.values[key + "ok"] = static_cast<double>(r.ok);
        report.values[key + "error"] = static_cast<double>(r.error);
        report.values[key + "overloaded"] =
            static_cast<double>(r.overloaded);
        report.values[key + "lost"] = static_cast<double>(r.lost);
        report.values[key + "wrong"] = static_cast<double>(r.wrong);
        report.values[key + "pass"] = verdict.pass ? 1.0 : 0.0;
        report.strings[key + "verdict"] =
            verdict.pass ? "pass" : verdict.reason;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return r;
    };

    // ---- per daemon: set-up (start plus session warm-up), then its
    // share of the fixed low and high windows and of the saturation
    // phase ----------------------------------------------------------
    // Every request of the fixed windows and of the saturation phase is
    // an operation, and a refused, lost or wrong one fails.
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<LoadGenerator> load;
    const double share = options.seconds * kFixedShare / kDaemons;
    bool high_pass = false;
    for (std::size_t d = 0; d < kDaemons; ++d) {
        load.reset();
        daemon.reset();
        {
            const auto t0 = Clock::now();
            obs::TraceSpan span("bench_serve_setup", "serve");
            daemon =
                std::make_unique<Daemon>(options.serveBin, options.seed);
            load = std::make_unique<LoadGenerator>(daemon->port(),
                                                   sessions, options.seed);
            load->warm(report);
            report.sample("setup_s", since(t0));
        }
        const std::string tag = std::to_string(d);
        report.strings["scrape.setup." + tag] = load->scrape();
        for (const auto &[step, rate] :
             {std::pair{"low", kLowRps}, {"high", kHighRps}}) {
            const std::string name = std::string(step) + "." + tag;
            const StepResult r = run_step(*load, name, rate, share);
            report.attempted += r.latencyMs.size();
            const std::uint64_t failed =
                r.error + r.overloaded + r.lost + r.wrong;
            if (failed > 0)
                report.fail(std::to_string(failed) + " of the " + name +
                                " step's requests refused, lost or wrong",
                            failed);
            high_pass = report.values["step." + name + ".pass"] > 0;
        }
        Saturation s;
        const double cpu0 = daemon->cpuSeconds();
        {
            obs::TraceSpan span("bench_serve_saturate", "serve");
            s = load->saturate(options.seconds * kSaturationShare /
                                   kDaemons,
                               kSaturationDepth);
        }
        const std::string key = "saturate." + tag + ".";
        report.values[key + "ok_per_s"] = s.okPerSecond;
        report.values[key + "daemon_cpu_ms_per_ok"] =
            (daemon->cpuSeconds() - cpu0) * 1e3 /
            static_cast<double>(std::max<std::uint64_t>(s.ok, 1));
        report.values[key + "sent"] = static_cast<double>(s.sent);
        report.attempted += s.sent;
        const std::uint64_t failed = s.refused + s.lost + s.wrong;
        if (failed > 0)
            report.fail(std::to_string(failed) + " of the saturation "
                            "requests on daemon " + tag +
                            " refused, lost or wrong",
                        failed);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    // ---- the ladder, on the last daemon ------------------------------
    // A ladder step probes past capacity on purpose, so it is one
    // operation, failed only by a wrong answer; its refusals fail the
    // step, not the run.
    RateLadder ladder(high_pass ? kHighRps : 0.0, kLadderStart,
                      kLadderFactor, kLadderClimb, kLadderRefine);
    std::size_t steps = 0;
    for (double rate = ladder.next(); rate > 0; rate = ladder.next()) {
        const std::string name = "ladder" + std::to_string(steps++);
        const StepResult r =
            run_step(*load, name, rate,
                     options.seconds * kLadderShare /
                         static_cast<double>(kLadderClimb + kLadderRefine));
        ++report.attempted;
        if (r.wrong > 0)
            report.fail(std::to_string(r.wrong) + " wrong responses in " +
                        name + " step");
        ladder.record(rate, report.values["step." + name + ".pass"] > 0);
    }
    report.values["daemons"] = static_cast<double>(kDaemons);
    report.values["ladder.steps"] = static_cast<double>(steps);
    report.values["ladder.max_ok_rps"] = ladder.maxOk();

    if (options.trace)
        writeTrace(options.workDir + "/trace.events.json");
    report.values["peak_rss_mib"] = daemon->peakRssMiB();
    load.reset();
    daemon->stop();
}

} // namespace perfbench
