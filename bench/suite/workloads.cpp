/**
 * @file
 * The four workloads (README.md: "Workloads" explains each choice).
 *
 * Every run measures repeated identical units of work inside its
 * --seconds window: a pass over a fixed request set against a freshly
 * started daemon (suite_cold, portfolio), a stream of warm requests
 * (warm_zipf), or a training chunk (pretrain). Units repeat exactly, so
 * every result must come out bit-identical each time it is produced;
 * the suite checks that, and re-validates each distinct mapping after
 * the window.
 *
 * --seed shuffles request orders and draws the Zipf stream and the
 * training curriculum. Compile seeds are pinned: the search cost of a
 * hard kernel swings by 10x with its seed, which would make run-to-run
 * spread a property of the seed instead of the code.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <numeric>
#include <thread>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "dfg/kernels.hpp"
#include "rl/trainer.hpp"
#include "suite.hpp"

namespace mapzero::suite {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Set-ups measured per untimed run; setup_s is their median. */
constexpr int kSetups = 3;

std::string
subdir(const RunConfig &config, const std::string &name)
{
    return (std::filesystem::path(config.workDir) / name).string();
}

void
endToEnd(Outcome &out, const std::string &name, double value,
         const std::string &unit)
{
    out.endToEnd.push_back(Metric{name, value, unit});
}

/**
 * Throughput, latency and peak memory of one unit of measured work (a
 * pass over a request set, a quarter second of a request stream, or a
 * training chunk). The end-to-end numbers are medians over a run's units
 * (the request stream's: its best tenth, see bestTenthOf), so a few
 * seconds of machine noise inside a run move them little; the peak
 * resident set is the median of the per-unit (per-second for the stream)
 * high-water marks.
 */
struct UnitSample {
    double throughput = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double mean = 0.0;
    double peakRss = 0.0;
};

UnitSample
sampleOf(const std::vector<double> &latencies, double units, double seconds)
{
    UnitSample u;
    u.throughput = seconds > 0.0 ? units / seconds : 0.0;
    u.p50 = quantile(latencies, 0.50);
    u.p99 = quantile(latencies, 0.99);
    u.mean = mean(latencies);
    return u;
}

UnitSample
sampleOf(const std::vector<JobRecord> &jobs, double seconds)
{
    std::vector<double> latencies;
    for (const JobRecord &job : jobs)
        latencies.push_back(job.latency);
    return sampleOf(latencies, static_cast<double>(jobs.size()), seconds);
}

/** Field-wise median over a run's units. */
UnitSample
medianOf(const std::vector<UnitSample> &units)
{
    const auto med = [&](double UnitSample::*field) {
        std::vector<double> values;
        for (const UnitSample &u : units)
            values.push_back(u.*field);
        return median(values);
    };
    UnitSample m;
    m.throughput = med(&UnitSample::throughput);
    m.p50 = med(&UnitSample::p50);
    m.p99 = med(&UnitSample::p99);
    m.mean = med(&UnitSample::mean);
    m.peakRss = med(&UnitSample::peakRss);
    return m;
}

/**
 * Field-wise best tenth over a run's units: the 90th percentile of
 * throughput and the 10th of each latency. Host interference on a shared
 * machine only ever slows a unit, so over many short units this tracks
 * the code's own speed more closely than a median, which moves with how
 * busy the host was; a slower code path still slows every unit, the best
 * ones included.
 */
UnitSample
bestTenthOf(const std::vector<UnitSample> &units)
{
    const auto pick = [&](double UnitSample::*field, double q) {
        std::vector<double> values;
        for (const UnitSample &u : units)
            values.push_back(u.*field);
        return quantile(values, q);
    };
    UnitSample b;
    b.throughput = pick(&UnitSample::throughput, 0.9);
    b.p50 = pick(&UnitSample::p50, 0.1);
    b.p99 = pick(&UnitSample::p99, 0.1);
    b.mean = pick(&UnitSample::mean, 0.1);
    return b;
}

/** One note line listing every unit's throughput and latency median. */
std::string
unitsNote(const std::vector<UnitSample> &units)
{
    std::string line = "units (throughput/p50 ms):";
    for (const UnitSample &u : units)
        line += cat(" ", u.throughput, "/", u.p50 * 1e3);
    return line;
}

/** Every end-to-end metric, in BENCHMARK.json order. */
void
reportEndToEnd(Outcome &out, const std::vector<double> &setups,
               const UnitSample &summary, const ResultBook &book)
{
    endToEnd(out, "setup_s", median(setups), "s");
    endToEnd(out, "throughput_per_s", summary.throughput, "1/s");
    endToEnd(out, "latency_p50_ms", summary.p50 * 1e3, "ms");
    endToEnd(out, "latency_p99_ms", summary.p99 * 1e3, "ms");
    endToEnd(out, "latency_mean_ms", summary.mean * 1e3, "ms");
    endToEnd(out, "ii_over_mii_geomean", book.iiOverMiiGeomean(), "ratio");
    endToEnd(out, "mapped_fraction", book.mappedFraction(), "ratio");
    endToEnd(out, "peak_rss_mb", summary.peakRss, "MB");
}

/**
 * Peak resident set of each second while it runs: the high-water mark
 * is read and restarted once a second while a request stream runs.
 */
class RssSampler
{
  public:
    RssSampler()
        : thread_([this] {
              std::unique_lock<std::mutex> lock(mutex_);
              resetPeakRss();
              while (!stop_.wait_for(lock, std::chrono::seconds(1),
                                     [this] { return stopping_; })) {
                  peaks_.push_back(peakRssMb());
                  resetPeakRss(false);
              }
          })
    {}

    ~RssSampler() { stop(); }

    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    /** Stop sampling; the per-second peaks so far (MB). */
    std::vector<double>
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        stop_.notify_all();
        if (thread_.joinable())
            thread_.join();
        return peaks_;
    }

  private:
    std::mutex mutex_;
    std::condition_variable stop_;
    bool stopping_ = false;
    std::vector<double> peaks_;
    std::thread thread_;
};

/** The fingerprint of @p fabric's cached network under @p budget. */
std::uint64_t
fabricFingerprint(const std::string &fabric, const PretrainBudget &budget)
{
    return modelFingerprint(
        *pretrainedNetwork(*cgra::Architecture::byName(fabric), budget));
}

// ------------------------------------------------------ daemon workloads

/** A workload that drives in-process daemons with compile requests. */
struct DaemonWorkload {
    std::vector<std::string> fabrics;
    std::vector<Request> requests;
    std::int32_t workers = 1;
    std::int32_t clients = 1;
    /** The first `leading` requests are the known-long ones; each pass
     *  submits them first, longest first, as a build scheduler orders
     *  its known-long steps, and the rest in a seeded order. */
    std::size_t leading = 0;
    PretrainBudget budget = servicePretrainBudget();
};

std::vector<Request>
coreRequests(const std::vector<std::string> &fabrics,
             const std::vector<std::uint64_t> &seeds, std::int32_t restarts,
             std::int32_t jobs)
{
    std::vector<Request> requests;
    for (const std::string &fabric : fabrics) {
        for (const std::string &kernel : dfg::coreKernelNames()) {
            for (const std::uint64_t seed : seeds)
                requests.push_back(
                    makeRequest(kernel, fabric, seed, restarts, jobs));
        }
    }
    return requests;
}

/**
 * Set-up as a deployment pays it: start the daemon, then pre-train each
 * fabric's network from scratch (the agent cache is cleared first).
 * Records the model fingerprints (they must repeat across set-ups) and
 * the per-fabric training times.
 */
std::unique_ptr<Rig>
setUp(const DaemonWorkload &w, const std::string &dir,
      std::map<std::string, std::uint64_t> &fingerprints,
      std::map<std::string, double> &trainSeconds, Outcome &out)
{
    clearAgentCache();
    auto rig = std::make_unique<Rig>(w.workers, dir, w.budget);
    trainSeconds = pretrainFabrics(w.fabrics, w.budget);
    for (const std::string &fabric : w.fabrics) {
        const std::uint64_t fp = fabricFingerprint(fabric, w.budget);
        ++out.attempted;
        const auto [it, fresh] = fingerprints.emplace(fabric, fp);
        if (!fresh && it->second != fp)
            out.fail("pre-training " + fabric +
                     " produced a different network than before");
    }
    return rig;
}

void
noteSetup(const std::map<std::string, std::uint64_t> &fingerprints,
          const std::vector<double> &setups, Outcome &out)
{
    for (const auto &[fabric, fp] : fingerprints)
        out.notes.push_back("model fingerprint " + fabric + " " + hex64(fp));
    std::string line = "setups (s):";
    for (const double s : setups)
        line += cat(" ", s);
    out.notes.push_back(line);
}

/** Trainer-layer readings of a set-up's pre-training. */
void
foldSetupTraining(const RegistryDelta &delta,
                  const std::map<std::string, double> &trainSeconds,
                  LayerValues &values)
{
    std::vector<double> seconds;
    double wall = 0.0;
    for (const auto &[fabric, s] : trainSeconds) {
        seconds.push_back(s);
        wall = std::max(wall, s);
    }
    values["trainer.chunk_s.p50"] = median(seconds);
    values["trainer.inference_share"] =
        wall > 0.0 ? delta.histogramSum("mcts.net_eval_seconds") / wall
                   : 0.0;
    // The fabrics train concurrently, so their episodes share one wall.
    const double episodes = delta.counter("trainer.episodes");
    values["episodes_per_s"] = wall > 0.0 ? episodes / wall : 0.0;
    values["train_success_fraction"] =
        episodes > 0.0 ? delta.counter("trainer.successes") / episodes : 0.0;
}

/** Completed requests per second and summed server-clocked latency of
 *  each untraced pass, as medians over @p passes. */
void
foldPassTotals(const std::vector<LoadResult> &passes, LayerValues &values)
{
    std::vector<double> rates, sums;
    for (const LoadResult &pass : passes) {
        double sum = 0.0;
        for (const JobRecord &job : pass.jobs)
            sum += job.latency;
        sums.push_back(sum);
        rates.push_back(static_cast<double>(pass.jobs.size()) / pass.wall);
    }
    values["jobs_per_s"] = median(rates);
    values["compile_s_sum"] = median(sums);
}

/** Per-layer readings every traced daemon pass shares. */
void
foldTracedPasses(const std::vector<LoadResult> &passes,
                 const ResultBook &book, const RegistryDelta &delta,
                 double cpuSeconds, double wall, LayerValues &values,
                 Outcome &out)
{
    std::vector<JobRecord> jobs;
    for (const LoadResult &pass : passes)
        jobs.insert(jobs.end(), pass.jobs.begin(), pass.jobs.end());
    foldTracedJobs(jobs, book.results(), values, out);
    foldRegistry(delta, static_cast<double>(jobs.size()), values);
    values["compiler.cpu_per_wall"] = wall > 0.0 ? cpuSeconds / wall : 0.0;
}

/** The end of every traced run: the layer replays on the workload's own
 *  requests and results, then the per-layer report. */
void
finishPerLayer(const std::vector<Request> &requests, const ResultBook &book,
               const PretrainBudget &budget, const RunConfig &config,
               LayerValues &values, TraceCollector &spans, Outcome &out)
{
    ReplayInputs inputs;
    inputs.requests = &requests;
    inputs.results = &book.results();
    inputs.budget = budget;
    inputs.scratchDir = subdir(config, "replay");
    runLayerReplays(inputs, values, spans, out);
    values["proc.cpu_s"] = processCpuSeconds();
    emitPerLayer(values, out);
}

/**
 * suite_cold and portfolio: repeated passes over a fixed request set,
 * each against a freshly started daemon (empty eval cache, empty result
 * tier), in a seeded order per pass.
 */
void
runPasses(const DaemonWorkload &w, const RunConfig &config,
          TraceCollector &spans, Outcome &out)
{
    std::map<std::string, std::uint64_t> fingerprints;
    std::map<std::string, double> trainSeconds;
    std::vector<double> setups;
    RegistryDelta setupDelta;
    setupDelta.begin();
    for (int k = 0; k < (config.trace ? 1 : kSetups); ++k) {
        const Clock::time_point start = Clock::now();
        const std::unique_ptr<Rig> rig =
            setUp(w, subdir(config, cat("setup-", k)), fingerprints,
                  trainSeconds, out);
        setups.push_back(secondsSince(start));
    }
    setupDelta.end();
    noteSetup(fingerprints, setups, out);

    ResultBook book(w.requests);
    std::vector<double> passPeaks;
    const auto pass = [&](std::size_t index, bool traced) {
        std::vector<std::size_t> rest(w.requests.size() - w.leading);
        std::iota(rest.begin(), rest.end(), w.leading);
        Rng(Rng::deriveSeed(config.seed, index)).shuffle(rest);
        std::vector<std::size_t> order(w.leading);
        std::iota(order.begin(), order.end(), 0);
        order.insert(order.end(), rest.begin(), rest.end());
        resetPeakRss();
        Rig rig(w.workers, subdir(config, cat("pass-", index)), w.budget);
        LoadOptions options;
        options.clients = w.clients;
        options.traced = traced;
        options.spans = &spans;
        LoadResult result =
            driveClosedLoop(rig.port(), w.requests, order, options);
        passPeaks.push_back(peakRssMb());
        return result;
    };

    // Untimed runs measure for the whole window; a traced run splits it
    // between an untraced and a traced half, so the difference between
    // the halves is the tracing overhead.
    const double untracedSeconds =
        config.trace ? config.seconds / 2.0 : config.seconds;
    std::vector<LoadResult> untraced, traced;
    Clock::time_point window = Clock::now();
    do {
        untraced.push_back(pass(untraced.size(), false));
    } while (secondsSince(window) < untracedSeconds);

    RegistryDelta delta;
    double cpuBefore = 0.0, tracedWall = 0.0;
    if (config.trace) {
        delta.begin();
        cpuBefore = processCpuSeconds();
        window = Clock::now();
        do {
            traced.push_back(
                pass(untraced.size() + traced.size(), true));
        } while (secondsSince(window) < config.seconds / 2.0);
        tracedWall = secondsSince(window);
        delta.end();
    }

    for (const LoadResult &p : untraced)
        book.check(p, out);
    for (const LoadResult &p : traced)
        book.check(p, out);
    book.revalidateAll(out, spans);
    out.notes.push_back(cat("results digest ", hex64(book.digest()), " (",
                            w.requests.size(), " requests, ",
                            untraced.size() + traced.size(), " passes)"));

    if (!config.trace) {
        std::vector<UnitSample> units;
        for (std::size_t i = 0; i < untraced.size(); ++i) {
            units.push_back(sampleOf(untraced[i].jobs, untraced[i].wall));
            units.back().peakRss = passPeaks[i];
        }
        out.notes.push_back(unitsNote(units));
        reportEndToEnd(out, setups, medianOf(units), book);
        return;
    }

    LayerValues values;
    foldSetupTraining(setupDelta, trainSeconds, values);
    foldPassTotals(untraced, values);
    foldTracedPasses(traced, book, delta, processCpuSeconds() - cpuBefore,
                     tracedWall, values, out);
    const auto meanWall = [](const std::vector<LoadResult> &passes) {
        double wall = 0.0;
        for (const LoadResult &p : passes)
            wall += p.wall;
        return wall / static_cast<double>(passes.size());
    };
    values["trace.overhead"] = meanWall(traced) / meanWall(untraced) - 1.0;
    finishPerLayer(w.requests, book, w.budget, config, values, spans, out);
}

/**
 * suite_cold: the paper's evaluation set on its three 4x4 fabrics, the
 * unrolled kernels that push MapZero past MII, and the one request
 * whose guided search exhausts its 2M-backtrack budget and escalates
 * into MCTS within a second or two (mac2 on the heterogeneous fabric).
 */
void
runSuiteCold(const RunConfig &config, TraceCollector &spans,
             Outcome &out)
{
    DaemonWorkload w;
    w.fabrics = {"hrea", "adres", "hycube", "hetero"};
    w.workers = 2;
    w.clients = 2;
    w.requests.push_back(makeRequest("mac2", "hetero", 1, 1, 1));
    w.requests.push_back(makeRequest("jpegdct_u", "hrea", 1, 1, 1));
    w.leading = w.requests.size();
    // hycube/arf is left out: its guided search burns the backtrack
    // budget twice before MCTS maps it (~21 s), longer than a run.
    for (Request &r : coreRequests({"hrea", "adres", "hycube"}, {1}, 1, 1)) {
        if (r.arch != "hycube" || r.kernel != "arf")
            w.requests.push_back(std::move(r));
    }
    for (const auto &[kernel, fabric] :
         std::vector<std::pair<std::string, std::string>>{
             {"jpegdct_u", "hycube"}, {"sort_u", "hrea"}, {"sort_u", "adres"}})
        w.requests.push_back(makeRequest(kernel, fabric, 1, 1, 1));
    runPasses(w, config, spans, out);
}

/**
 * portfolio: every request runs a 4-restart portfolio on 2 pool threads
 * (compilePortfolio: shared EvalBatcher, transposition table), and the
 * same kernels recur under several compile seeds, warming the daemon's
 * shared eval cache within a pass.
 */
void
runPortfolio(const RunConfig &config, TraceCollector &spans,
             Outcome &out)
{
    DaemonWorkload w;
    w.fabrics = {"hrea", "adres"};
    w.workers = 1;
    w.clients = 1;
    w.requests = coreRequests(w.fabrics, {1, 2, 3}, 4, 2);
    w.requests.push_back(makeRequest("jpegdct_u", "hrea", 1, 4, 2));
    runPasses(w, config, spans, out);
}

/** Length of one warm_zipf unit of the request stream. */
constexpr double kZipfUnitSeconds = 0.25;

/**
 * warm_zipf: the 26 distinct core requests are compiled once during
 * set-up (filling the result tier), then a Zipf(1.0) stream over them
 * is replayed by 4 clients against 4 workers: every timed request is a
 * disk hit, and every blob must equal its cold original byte for byte.
 */
void
runWarmZipf(const RunConfig &config, TraceCollector &spans,
            Outcome &out)
{
    DaemonWorkload w;
    w.fabrics = {"hrea", "adres"};
    w.workers = 4;
    w.clients = 4;
    w.requests = coreRequests(w.fabrics, {1}, 1, 1);

    std::map<std::string, std::uint64_t> fingerprints;
    std::map<std::string, double> trainSeconds;
    std::vector<double> setups;
    std::unique_ptr<Rig> rig;
    ResultBook book(w.requests);
    std::vector<std::string> originals;
    RegistryDelta setupDelta;
    setupDelta.begin();
    for (int k = 0; k < (config.trace ? 1 : kSetups); ++k) {
        rig.reset();
        const Clock::time_point start = Clock::now();
        rig = setUp(w, subdir(config, cat("setup-", k)), fingerprints,
                    trainSeconds, out);
        std::vector<std::size_t> all(w.requests.size());
        std::iota(all.begin(), all.end(), 0);
        LoadOptions options;
        options.clients = w.clients;
        const LoadResult prefill =
            driveClosedLoop(rig->port(), w.requests, all, options);
        setups.push_back(secondsSince(start));
        book.check(prefill, out);
        originals.assign(w.requests.size(), "");
        for (const JobRecord &job : prefill.jobs)
            originals[job.request] = job.blob;
    }
    setupDelta.end();
    noteSetup(fingerprints, setups, out);

    // Zipf(1.0) over the requests, heaviest DFG first, so the hot head
    // is the costliest to load and render. The seed draws the stream;
    // it does not choose which request is hot, because the per-request
    // cost differs by an order of magnitude between kernels and the mix
    // would then differ from seed to seed.
    Rng rng(config.seed);
    std::vector<std::size_t> byRank(w.requests.size());
    std::iota(byRank.begin(), byRank.end(), 0);
    std::stable_sort(byRank.begin(), byRank.end(),
                     [&](std::size_t a, std::size_t b) {
                         return w.requests[a].dfg.nodeCount() >
                                w.requests[b].dfg.nodeCount();
                     });
    std::vector<double> weights(byRank.size());
    for (std::size_t k = 0; k < weights.size(); ++k)
        weights[k] = 1.0 / static_cast<double>(k + 1);
    std::vector<std::size_t> stream(1u << 21);
    for (std::size_t &index : stream)
        index = byRank[rng.weightedIndex(weights)];

    const auto drive = [&](double seconds, bool traced) {
        LoadOptions options;
        options.clients = w.clients;
        options.traced = traced;
        options.spans = &spans;
        options.stopAfterSeconds = seconds;
        options.expected = &originals;
        return driveClosedLoop(rig->port(), w.requests, stream, options);
    };

    LoadResult untraced;
    std::vector<double> secondPeaks;
    {
        RssSampler sampler;
        untraced = drive(config.trace ? config.seconds / 2.0 : config.seconds,
                         false);
        secondPeaks = sampler.stop();
    }
    book.check(untraced, out);

    if (!config.trace) {
        book.revalidateAll(out, spans);
        out.notes.push_back(cat("results digest ", hex64(book.digest()),
                                " (", w.requests.size(), " requests, ",
                                untraced.jobs.size(), " warm jobs)"));
        // Units are the window's quarter seconds, by FETCH time: a
        // quarter second holds ~750 requests, and a 20 s window gives 80
        // units, so the best tenth is eight of them.
        std::vector<std::vector<JobRecord>> slices(
            static_cast<std::size_t>(config.seconds / kZipfUnitSeconds));
        for (const JobRecord &job : untraced.jobs) {
            const auto k =
                static_cast<std::size_t>(job.done / kZipfUnitSeconds);
            if (k < slices.size())
                slices[k].push_back(job);
        }
        std::vector<UnitSample> units;
        for (const std::vector<JobRecord> &slice : slices)
            units.push_back(sampleOf(slice, kZipfUnitSeconds));
        out.notes.push_back(unitsNote(units));
        UnitSample summary = bestTenthOf(units);
        summary.peakRss = median(secondPeaks);
        reportEndToEnd(out, setups, summary, book);
        return;
    }

    RegistryDelta delta;
    delta.begin();
    const double cpuBefore = processCpuSeconds();
    const LoadResult traced = drive(config.seconds / 2.0, true);
    const double cpu = processCpuSeconds() - cpuBefore;
    delta.end();
    book.check(traced, out);
    book.revalidateAll(out, spans);
    out.notes.push_back(cat("results digest ", hex64(book.digest())));

    LayerValues values;
    foldSetupTraining(setupDelta, trainSeconds, values);
    foldPassTotals({untraced}, values);
    foldTracedPasses({traced}, book, delta, cpu, traced.wall, values, out);
    const auto perJob = [](const LoadResult &r) {
        return r.wall / static_cast<double>(std::max<std::size_t>(
                            1, r.jobs.size()));
    };
    values["trace.overhead"] = perJob(traced) / perJob(untraced) - 1.0;
    finishPerLayer(w.requests, book, w.budget, config, values, spans, out);
}

// -------------------------------------------------------------- pretrain

/** Episodes per training chunk: one curriculum sweep over 3-30 nodes. */
constexpr std::int32_t kChunkEpisodes = 25;

/** Episodes per timed pretrain() call: one self-play wave of the two
 *  workers MAPZERO_NUM_THREADS pins. */
constexpr std::int32_t kWaveEpisodes = 2;

/**
 * pretrain: repeated chunks of the trainAgent() run behind a daemon's
 * cold start, at the paper's 3-30 node curriculum range. A chunk drives
 * the trainer one self-play wave per pretrain() call, so each wave - the
 * latency of one training step - is timed. Every chunk is the same
 * seeded run, so its network and per-episode outcomes must repeat
 * exactly. After the window the trained model is served: a fresh daemon
 * whose cold start runs trainAgent() on the same budget compiles the
 * core kernels on HReA, and its network must carry the chunks'
 * fingerprint, which also proves the wave-by-wave calls train exactly
 * what trainAgent() trains.
 */
void
runPretrain(const RunConfig &config, TraceCollector &spans,
            Outcome &out)
{
    const cgra::Architecture arch = cgra::Architecture::hrea();
    PretrainBudget budget = servicePretrainBudget();
    budget.episodes = kChunkEpisodes;
    budget.maxNodes = 30;
    budget.mctsExpansions = 16;
    budget.seed = Rng::deriveSeed(config.seed, 0x50524554u); // "PRET"

    // Set-up of a training run: the trainer's fabric symmetry group,
    // network initialization and optimizer state. It takes well under a
    // millisecond, so it is measured a few times before every chunk and
    // reported as the median over the whole window.
    std::vector<double> setups;
    const auto setUpTrainer = [&] {
        for (int k = 0; k < 4; ++k) {
            const Clock::time_point start = Clock::now();
            rl::TrainerConfig trainerConfig;
            trainerConfig.mcts.expansionsPerMove = budget.mctsExpansions;
            const rl::Trainer trainer(arch, trainerConfig, budget.seed);
            setups.push_back(secondsSince(start));
        }
    };

    // One chunk: a whole training run, as trainAgent() makes it. A traced
    // chunk runs bound to a request-scoped trace context, as a daemon job
    // would.
    struct Chunk {
        double seconds = 0.0;
        std::vector<double> waves;
        double peakRss = 0.0;
        std::int64_t episodes = 0;
        std::uint64_t fingerprint = 0;
        std::vector<bool> successes;
    };
    std::vector<Chunk> chunks;
    const auto train = [&](bool traced) {
        ScopedSpan span(spans, traced ? "train_chunk_traced" : "train_chunk");
        TraceContext context(cat("chunk-", chunks.size()));
        TraceBinding bind(traced ? &context : nullptr);
        TraceScope stage("train");
        Chunk c;
        resetPeakRss();
        const Clock::time_point start = Clock::now();
        rl::TrainerConfig trainerConfig;
        trainerConfig.mcts.expansionsPerMove = budget.mctsExpansions;
        trainerConfig.maxEpisodesPerRun = kWaveEpisodes;
        rl::Trainer trainer(arch, trainerConfig, budget.seed);
        const Deadline deadline(budget.seconds);
        while (static_cast<std::int32_t>(trainer.history().size()) <
               budget.episodes) {
            const Clock::time_point wave = Clock::now();
            if (trainer.pretrain(budget.episodes, budget.minNodes,
                                 budget.maxNodes, deadline)
                    .empty())
                break;
            c.waves.push_back(secondsSince(wave));
        }
        c.seconds = secondsSince(start);
        c.peakRss = peakRssMb();
        c.fingerprint = modelFingerprint(trainer.network());
        for (const rl::EpisodeStats &e : trainer.history())
            c.successes.push_back(e.success);
        c.episodes = static_cast<std::int64_t>(c.successes.size());
        ++out.attempted;
        if (!chunks.empty() && (c.fingerprint != chunks.front().fingerprint ||
                                c.successes != chunks.front().successes))
            out.fail(cat("training chunk ", chunks.size(),
                         " differs from chunk 0 (same seed and budget)"));
        chunks.push_back(std::move(c));
    };

    const double untracedSeconds =
        config.trace ? config.seconds / 2.0 : config.seconds;
    Clock::time_point window = Clock::now();
    do {
        setUpTrainer();
        train(false);
    } while (secondsSince(window) < untracedSeconds);
    const std::size_t untracedChunks = chunks.size();

    RegistryDelta trainDelta;
    if (config.trace) {
        trainDelta.begin();
        window = Clock::now();
        do {
            train(true);
        } while (secondsSince(window) < config.seconds / 2.0);
        trainDelta.end();
    }

    // Serve the trained model: the daemon's cold start trains the same
    // budget, so its network must be the chunks' network.
    const std::vector<Request> probes = coreRequests({"hrea"}, {1}, 1, 1);
    ResultBook book(probes);
    LayerValues values;
    {
        clearAgentCache();
        Rig rig(2, subdir(config, "serve"), budget);
        std::vector<std::size_t> order(probes.size());
        std::iota(order.begin(), order.end(), 0);
        Rng(config.seed).shuffle(order);
        LoadOptions options;
        options.clients = 2;
        options.traced = config.trace;
        options.spans = &spans;
        RegistryDelta delta;
        delta.begin();
        const double cpuBefore = processCpuSeconds();
        const LoadResult served =
            driveClosedLoop(rig.port(), probes, order, options);
        const double cpu = processCpuSeconds() - cpuBefore;
        delta.end();
        book.check(served, out);
        ++out.attempted;
        const std::uint64_t servedFp = fabricFingerprint("hrea", budget);
        if (servedFp != chunks.front().fingerprint)
            out.fail("the daemon's cold-start network differs from the "
                     "trained chunks' network");
        if (config.trace) {
            foldPassTotals({served}, values);
            foldTracedPasses({served}, book, delta, cpu, served.wall,
                             values, out);
        }
    }
    book.revalidateAll(out, spans);
    out.notes.push_back("model fingerprint hrea " +
                        hex64(chunks.front().fingerprint) + " (" +
                        std::to_string(kChunkEpisodes) + " episodes, seed " +
                        std::to_string(budget.seed) + ")");
    out.notes.push_back(cat("results digest ", hex64(book.digest()), " (",
                            chunks.size(), " chunks, ", probes.size(),
                            " served requests)"));
    std::string line = "chunk seconds:";
    for (const Chunk &c : chunks)
        line += cat(" ", c.seconds);
    out.notes.push_back(line);

    if (!config.trace) {
        // A chunk is the unit: its episodes per second, and the latency
        // of its self-play waves.
        std::vector<UnitSample> units;
        for (const Chunk &c : chunks) {
            units.push_back(sampleOf(c.waves,
                                     static_cast<double>(c.episodes),
                                     c.seconds));
            units.back().peakRss = c.peakRss;
        }
        out.notes.push_back(unitsNote(units));
        reportEndToEnd(out, setups, medianOf(units), book);
        return;
    }

    const auto meanSeconds = [&](std::size_t from, std::size_t to) {
        double sum = 0.0;
        for (std::size_t i = from; i < to; ++i)
            sum += chunks[i].seconds;
        return sum / static_cast<double>(to - from);
    };
    std::vector<double> chunkSeconds, untracedRates;
    double tracedWall = 0.0;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        if (i < untracedChunks) {
            untracedRates.push_back(
                static_cast<double>(chunks[i].episodes) / chunks[i].seconds);
            continue;
        }
        chunkSeconds.push_back(chunks[i].seconds);
        tracedWall += chunks[i].seconds;
    }
    values["trainer.chunk_s.p50"] = median(chunkSeconds);
    values["trainer.inference_share"] =
        trainDelta.histogramSum("mcts.net_eval_seconds") / tracedWall;
    values["episodes_per_s"] = median(untracedRates);
    const double episodes = trainDelta.counter("trainer.episodes");
    values["train_success_fraction"] =
        episodes > 0.0 ? trainDelta.counter("trainer.successes") / episodes
                       : 0.0;
    values["trace.overhead"] = meanSeconds(untracedChunks, chunks.size()) /
                                   meanSeconds(0, untracedChunks) -
                               1.0;
    finishPerLayer(probes, book, budget, config, values, spans, out);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "suite_cold", "portfolio", "warm_zipf", "pretrain"};
    return names;
}

void
runWorkload(const RunConfig &config, TraceCollector &spans,
            Outcome &out)
{
    if (config.workload == "suite_cold")
        runSuiteCold(config, spans, out);
    else if (config.workload == "portfolio")
        runPortfolio(config, spans, out);
    else if (config.workload == "warm_zipf")
        runWarmZipf(config, spans, out);
    else
        runPretrain(config, spans, out);
}

} // namespace mapzero::suite
