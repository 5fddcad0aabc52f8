/**
 * @file
 * scale_100k: rank a 100,000-machine catalog for every application.
 *
 * Set-up generates scaled:100000x29, saves it as a columnar .dtc file,
 * reloads it through the memory map (the round trip must be
 * bit-identical), trains GA-kNN on 10 predictive machines and ranks
 * once with each method so page faults and pool spin-up stay out of
 * the timed part. Timed: rounds over all 29 applications, each ranking
 * the 99,990 other machines with tiled NN^T and with sweep GA-kNN,
 * timed from problem build (or prediction) through the sorted
 * MachineRanking.
 */

#include <cstdio>
#include <memory>
#include <optional>

#include "baseline/ga_knn.h"
#include "common.h"
#include "core/linear_transposition.h"
#include "core/ranking.h"
#include "core/transposition.h"
#include "dataset/columnar_io.h"
#include "dataset/mica.h"
#include "dataset/scaled_spec.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace perfbench
{

namespace
{

constexpr std::size_t kMachines = 100000;
constexpr std::size_t kBenchmarks = 29;
constexpr std::size_t kPredictive = 10;
constexpr std::size_t kSetups = 3;

struct Inputs
{
    dtrank::dataset::PerfDatabase db;
    dtrank::linalg::Matrix characteristics;
    std::vector<std::size_t> predictive;
    std::vector<std::size_t> targets;
    /** Benchmark scores of the target machines (GA-kNN candidates). */
    dtrank::linalg::Matrix targetScores;
    std::unique_ptr<dtrank::baseline::GaKnnModel> gaknn;
};

double
ms(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** The timed operations, shared by warm-up and the timed rounds. */
class Ranker
{
  public:
    explicit Ranker(const Inputs &in) : in_(in)
    {
        dtrank::core::LinearTranspositionConfig config;
        config.scan = dtrank::core::ScanMode::Tiled;
        config.threads = kThreads;
        nnt_.emplace(config);
    }

    /** NN^T ranking of the targets for `app`; records its timings. */
    std::vector<double>
    rankNnt(std::size_t app, Report *report)
    {
        using namespace dtrank;
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        core::TranspositionProblem problem;
        {
            obs::TraceSpan span("bench_make_problem", "core");
            problem = core::makeProblemFromSplit(
                in_.db, in_.predictive, in_.targets,
                in_.db.benchmark(app).name);
        }
        const auto t1 = Clock::now();
        std::vector<double> predicted;
        {
            obs::TraceSpan span("bench_nnt_predict", "core");
            predicted = nnt_->predict(problem);
        }
        const auto t2 = Clock::now();
        std::optional<core::MachineRanking> ranking;
        {
            obs::TraceSpan span("bench_ranking", "core");
            ranking.emplace(predicted);
        }
        const auto t3 = Clock::now();
        const double cpu3 = cpuSeconds();
        checkRanking(*ranking, predicted, report);
        if (report != nullptr) {
            const char *prefix = tracing() ? "traced." : "";
            report->sample(std::string(prefix) + "rank_nnt_ms",
                           ms(t0, t3));
            report->sample(std::string(prefix) + "rank_nnt_cpu_ms",
                           (cpu3 - cpu0) * 1e3);
            report->sample(std::string(prefix) + "core.make_problem_ms",
                           ms(t0, t1));
            report->sample(std::string(prefix) + "core.nnt_scan_ms",
                           ms(t1, t2));
            report->sample(std::string(prefix) + "core.ranking_ms",
                           ms(t2, t3));
            targetBlockBytes_ = static_cast<double>(
                problem.targetBenchScores.rows() *
                problem.targetBenchScores.cols() * sizeof(double));
        }
        return predicted;
    }

    /** GA-kNN ranking of the targets for `app`; records its timings. */
    std::vector<double>
    rankGaknn(std::size_t app, Report *report)
    {
        using namespace dtrank;
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        std::vector<double> predicted;
        {
            obs::TraceSpan span("bench_gaknn_predict", "baseline");
            predicted = in_.gaknn->predictApp(in_.characteristics.row(app),
                                              in_.characteristics,
                                              in_.targetScores, app);
        }
        const auto t1 = Clock::now();
        std::optional<core::MachineRanking> ranking;
        {
            obs::TraceSpan span("bench_ranking", "core");
            ranking.emplace(predicted);
        }
        const auto t2 = Clock::now();
        const double cpu2 = cpuSeconds();
        checkRanking(*ranking, predicted, report);
        if (report != nullptr) {
            const char *prefix = tracing() ? "traced." : "";
            report->sample(std::string(prefix) + "rank_gaknn_ms",
                           ms(t0, t2));
            report->sample(std::string(prefix) + "rank_gaknn_cpu_ms",
                           (cpu2 - cpu0) * 1e3);
            report->sample(std::string(prefix) +
                               "baseline.gaknn_predict_ms",
                           ms(t0, t1));
            report->sample(std::string(prefix) + "core.ranking_ms",
                           ms(t1, t2));
        }
        return predicted;
    }

    double targetBlockBytes() const { return targetBlockBytes_; }

  private:
    static bool
    tracing()
    {
        return dtrank::obs::TraceCollector::global().enabled();
    }

    /**
     * A ranking must hold every target once, with its own predicted
     * score bit for bit, best first. Runs outside the timed window.
     */
    static void
    checkRanking(const dtrank::core::MachineRanking &ranking,
                 const std::vector<double> &predicted, Report *report)
    {
        if (report != nullptr && !isRankingOf(ranking.entries(), predicted))
            report->fail("ranking is not a sorted permutation of the "
                         "predictions");
    }

    const Inputs &in_;
    std::optional<dtrank::core::LinearTransposition> nnt_;
    double targetBlockBytes_ = 0.0;
};

std::unique_ptr<Inputs>
setUp(const Options &options, Report &report)
{
    using namespace dtrank;
    auto in = std::make_unique<Inputs>();
    const std::string path = options.workDir + "/scale_100k.dtc";

    dataset::ScaledSpecConfig gen_config;
    gen_config.machines = kMachines;
    gen_config.benchmarks = kBenchmarks;
    gen_config.seed = options.seed;
    gen_config.threads = kThreads;
    const dataset::ScaledSpecGenerator generator(gen_config);
    auto t0 = Clock::now();
    dataset::PerfDatabase generated;
    {
        obs::TraceSpan span("bench_generate", "dataset");
        generated = generator.generate();
    }
    report.sample("dataset.generate_s", since(t0));

    t0 = Clock::now();
    {
        obs::TraceSpan span("bench_save_columnar", "dataset");
        dataset::saveColumnar(generated, path);
    }
    report.sample("dataset.columnar_save_s", since(t0));

    t0 = Clock::now();
    {
        obs::TraceSpan span("bench_open_columnar", "dataset");
        const auto columnar = dataset::ColumnarDatabase::open(path);
        in->db = columnar.toDatabase();
        report.values["dataset.file_mib"] =
            static_cast<double>(columnar.fileBytes()) / (1024.0 * 1024.0);
        if (!columnar.memoryMapped())
            report.fail("columnar file was not memory-mapped");
    }
    report.sample("dataset.columnar_load_s", since(t0));
    std::remove(path.c_str());
    if (!bitEqual(generated.scores().data(), in->db.scores().data()))
        report.fail("columnar round trip is not bit-identical");

    in->characteristics =
        dataset::MicaGenerator().generate(generator.benchmarkProfiles());
    InputRng rng(options.seed);
    in->predictive = rng.sample(kMachines, kPredictive);
    std::size_t next = 0;
    for (std::size_t m = 0; m < kMachines; ++m) {
        if (next < kPredictive && in->predictive[next] == m)
            ++next;
        else
            in->targets.push_back(m);
    }
    in->targetScores = in->db.selectMachines(in->targets).scores();

    baseline::GaKnnConfig ga_config;
    ga_config.sweepPredict = true;
    ga_config.predictThreads = kThreads;
    in->gaknn = std::make_unique<baseline::GaKnnModel>(ga_config);
    {
        obs::TraceSpan span("bench_gaknn_train", "baseline");
        in->gaknn->train(
            in->characteristics,
            in->db.selectMachines(in->predictive).scores());
    }
    return in;
}

/**
 * NN^T with the naive scan and GA-kNN with the per-machine reference
 * gather, both on the scalar tier, for one application; each must
 * match the timed path bit for bit.
 */
void
crossCheck(const Inputs &in, Ranker &ranker, std::size_t app,
           Report &report)
{
    using namespace dtrank;
    const std::vector<double> nnt = ranker.rankNnt(app, nullptr);
    const std::vector<double> ga = ranker.rankGaknn(app, nullptr);

    const simd::Tier tier = simd::activeTier();
    simd::setTier(simd::Tier::Scalar);
    core::LinearTranspositionConfig naive_config;
    naive_config.scan = core::ScanMode::Naive;
    core::LinearTransposition naive(naive_config);
    const std::vector<double> nnt_ref = naive.predict(
        core::makeProblemFromSplit(in.db, in.predictive, in.targets,
                                   in.db.benchmark(app).name));
    baseline::GaKnnConfig ref_config = in.gaknn->config();
    ref_config.sweepPredict = false;
    ref_config.predictThreads = 1;
    baseline::GaKnnModel reference(ref_config);
    reference.restore(in.gaknn->weights(), in.gaknn->trainingFitness());
    const std::vector<double> ga_ref = reference.predictApp(
        in.characteristics.row(app), in.characteristics, in.targetScores,
        app);
    simd::setTier(tier);

    if (!bitEqual(nnt, nnt_ref))
        report.fail("cross-check: tiled NN^T differs from the naive "
                    "scalar scan");
    if (!bitEqual(ga, ga_ref))
        report.fail("cross-check: sweep GA-kNN differs from the "
                    "reference scalar gather");
    report.strings["cross_check"] =
        "app " + in.db.benchmark(app).name;
}

} // namespace

void
runScale(const Options &options, Report &report)
{
    // ---- set-up ------------------------------------------------------
    std::unique_ptr<Inputs> in;
    std::unique_ptr<Ranker> ranker;
    for (std::size_t rep = 0; rep < kSetups; ++rep) {
        ranker.reset();
        in.reset();
        // A traced run also traces the last set-up, for the dataset
        // layer's spans.
        setTracing(options.trace && rep + 1 == kSetups);
        const auto t0 = Clock::now();
        in = setUp(options, report);
        ranker = std::make_unique<Ranker>(*in);
        // First touch of every buffer and pool spin-up.
        ranker->rankNnt(0, nullptr);
        ranker->rankGaknn(0, nullptr);
        report.sample("setup_s", since(t0));
    }
    if (options.trace)
        writeTrace(options.workDir + "/setup.trace.events.json");

    // ---- timed: rounds over every application ------------------------
    std::string first_digest;
    auto rank_round = [&] {
        Digest digest;
        for (std::size_t app = 0; app < kBenchmarks; ++app) {
            digest.add(ranker->rankNnt(app, &report));
            digest.add(ranker->rankGaknn(app, &report));
            report.attempted += 2;
        }
        if (first_digest.empty())
            first_digest = digest.hex();
        else if (digest.hex() != first_digest)
            report.fail("ranking round is not deterministic");
    };
    repeatFor(options.trace ? options.seconds / 2 : options.seconds,
              rank_round);
    if (options.trace) {
        setTracing(true);
        repeatFor(options.seconds / 2, rank_round);
        writeTrace(options.workDir + "/trace.events.json");
    }

    report.values["core.target_block_bytes"] = ranker->targetBlockBytes();
    report.strings["digest.rankings"] = first_digest;
    if (options.crossCheck)
        crossCheck(*in, *ranker, options.seed % kBenchmarks, report);
}

} // namespace perfbench
