/**
 * @file
 * paper_protocol and ragged_protocol: the Table 2 family
 * cross-validation (NN^T, MLP^T, GA-10NN; 500 epochs; model cache off)
 * on the paper's 117 x 29 database, dense or with 30% of score cells
 * hidden. The timed operation is one FamilyCrossValidation::run.
 */

#include <memory>
#include <optional>

#include "common.h"
#include "dataset/mica.h"
#include "dataset/perf_database.h"
#include "dataset/synthetic_spec.h"
#include "experiments/family_cv.h"
#include "experiments/harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace perfbench
{

namespace
{

using dtrank::experiments::FamilyCvResults;
using dtrank::experiments::Method;

constexpr double kMissingFraction = 0.30;
constexpr std::size_t kEpochs = 500;
/**
 * Set-up takes under a millisecond, and how fast this host runs it
 * changes from one stretch of seconds to the next (one run read 0.35 ms
 * throughout, the next 0.5 ms). So it is repeated for this long before
 * the first protocol run and again after each one, and setup_s is the
 * median over every repetition.
 */
constexpr double kSetupSeconds = 0.5;

/** Digest of every predicted vector, one per method. */
std::map<std::string, std::string>
digestOf(const FamilyCvResults &results)
{
    std::map<std::string, std::string> out;
    for (const auto &[method, cells] : results.cells) {
        Digest digest;
        for (const auto &cell : cells) {
            digest.add(cell.family);
            digest.add(cell.task.benchmark);
            digest.add(cell.task.predicted);
        }
        out[dtrank::experiments::methodName(method)] = digest.hex();
    }
    return out;
}

/** The protocol's inputs, rebuilt by every set-up repetition. */
struct Inputs
{
    dtrank::dataset::PerfDatabase db;
    dtrank::linalg::Matrix characteristics;
    std::unique_ptr<dtrank::experiments::SplitEvaluator> evaluator;
};

/**
 * Serial, scalar-tier recomputation of one family split, compared bit
 * for bit with the same split's cells of the timed run (the serial vs
 * parallel and tier vs tier contracts).
 */
void
crossCheck(const Inputs &in, const dtrank::experiments::MethodSuiteConfig
                                 &config,
           const FamilyCvResults &results, std::uint64_t seed,
           Report &report)
{
    using namespace dtrank;
    const dataset::PerfDatabase &db = in.db;
    std::vector<std::string> families;
    for (const std::string &family : db.families())
        if (db.machineIndicesByFamily(family).size() >= 2)
            families.push_back(family);
    const std::size_t split = seed % families.size();
    const std::string &family = families[split];
    std::vector<std::size_t> predictive;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        if (db.machine(m).family != family)
            predictive.push_back(m);

    experiments::MethodSuiteConfig serial = config;
    serial.parallel.threads = 1;
    const experiments::SplitEvaluator reference(db, in.characteristics,
                                                serial);
    const simd::Tier tier = simd::activeTier();
    simd::setTier(simd::Tier::Scalar);
    const experiments::SplitResults expected = reference.evaluateSplit(
        predictive, db.machineIndicesByFamily(family),
        experiments::allMethods(), split);
    simd::setTier(tier);

    for (const auto &[method, tasks] : expected) {
        std::size_t app = 0;
        for (const auto &cell : results.cells.at(method)) {
            if (cell.family != family)
                continue;
            if (app >= tasks.size() ||
                !bitEqual(cell.task.predicted, tasks[app].predicted))
                report.fail("cross-check: " +
                            experiments::methodName(method) + " on " +
                            family + " differs from the serial scalar "
                                     "recomputation");
            ++app;
        }
        if (app != tasks.size())
            report.fail("cross-check: split " + family +
                        " is missing cells");
    }
    report.strings["cross_check"] = "family " + family;
}

} // namespace

void
runProtocol(const Options &options, bool ragged, Report &report)
{
    using namespace dtrank;
    experiments::MethodSuiteConfig config;
    config.mlp.mlp.epochs = kEpochs;
    config.parallel.threads = kThreads;

    // ---- set-up: everything before the first timed operation -------
    auto set_up = [&](std::optional<Inputs> &in) {
        const auto start = Clock::now();
        do {
            in.reset();
            const auto t0 = Clock::now();
            in.emplace();
            in->db = dataset::makePaperDataset(options.seed);
            if (ragged)
                in->db = dataset::applyMissingness(
                    in->db, kMissingFraction, options.seed);
            in->characteristics =
                dataset::MicaGenerator().generateForCatalog();
            in->evaluator = std::make_unique<experiments::SplitEvaluator>(
                in->db, in->characteristics, config);
            report.sample("setup_s", since(t0));
        } while (since(start) < kSetupSeconds);
    };
    std::optional<Inputs> in;
    set_up(in);
    const experiments::FamilyCrossValidation cv(*in->evaluator);

    // ---- timed: repeated protocol runs ------------------------------
    std::map<std::string, std::string> first_digest;
    std::optional<FamilyCvResults> last;
    auto run_once = [&](const std::string &prefix) {
        ++report.attempted;
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        {
            obs::TraceSpan span("bench_family_cv", "experiments");
            last = cv.run(experiments::allMethods());
        }
        report.sample(prefix + "protocol_s", since(t0));
        report.sample(prefix + "protocol_cpu_s", cpuSeconds() - cpu0);
        std::optional<Inputs> spare;
        set_up(spare);
        const auto digest = digestOf(*last);
        if (first_digest.empty())
            first_digest = digest;
        else if (digest != first_digest)
            report.fail("protocol run is not deterministic");
    };

    // The program's counters, scraped around the timed part; run.py
    // takes the per-run deltas.
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    report.strings["scrape.before"] = metrics.scrapePrometheus();
    repeatFor(options.trace ? options.seconds / 2 : options.seconds,
              [&] { run_once(""); });
    if (options.trace) {
        setTracing(true);
        repeatFor(options.seconds / 2,
                  [&] { run_once("traced."); });
        writeTrace(options.workDir + "/trace.events.json");
    }
    report.strings["scrape.after"] = metrics.scrapePrometheus();
    report.values["threads"] = static_cast<double>(kThreads);

    for (const auto &[method, hex] : first_digest)
        report.strings["digest." + method] = hex;
    if (options.crossCheck)
        crossCheck(*in, config, *last, options.seed, report);
}

} // namespace perfbench
