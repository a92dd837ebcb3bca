/**
 * @file
 * Shared pieces of bench_suite, the repository benchmark (README.md in
 * this directory documents workloads, metrics and bounds).
 *
 * Everything here drives the product through its public API only: an
 * in-process svc::Daemon reached over loopback through svc::Client, the
 * pre-training entry points of core/agent_cache, and the layer classes
 * the per-layer replays call directly.
 */

#ifndef MAPZERO_BENCH_SUITE_SUITE_HPP
#define MAPZERO_BENCH_SUITE_SUITE_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/agent_cache.hpp"
#include "dfg/dfg.hpp"
#include "mapper/mapping.hpp"
#include "svc/daemon.hpp"

namespace mapzero::suite {

// ------------------------------------------------------------ results

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome {
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Operations attempted: jobs, training chunks, determinism checks. */
    std::int64_t attempted = 0;
    /** Attempted operations that failed a correctness check. */
    std::int64_t failed = 0;
    /** The first few failure descriptions. */
    std::vector<std::string> errors;
    /** Lines printed before the JSON result (fingerprints, digests). */
    std::vector<std::string> notes;

    void fail(const std::string &what);
};

/** Per-layer metric values by name (see perLayerMetrics()). */
using LayerValues = std::map<std::string, double>;

// ------------------------------------------------------------- spans

/**
 * Record a benchmark-side span [@p startUs, now) into @p spans (a
 * collector of the run's own, enabled only by --trace 1). @p lane is the
 * Chrome thread lane (client index + 1, or 0 for the main thread); a
 * non-zero @p job tags the span with its daemon job id.
 */
void addSpan(TraceCollector &spans, std::string name, std::int64_t startUs,
             int lane = 0, std::uint64_t job = 0);

/** RAII span around a benchmark-side call (no-op when disabled). */
class ScopedSpan
{
  public:
    ScopedSpan(TraceCollector &spans, std::string name)
        : spans_(spans), name_(std::move(name)), startUs_(spans.nowUs())
    {}
    ~ScopedSpan() { addSpan(spans_, std::move(name_), startUs_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    TraceCollector &spans_;
    std::string name_;
    std::int64_t startUs_;
};

// --------------------------------------------------------- statistics

/** Nearest-rank quantile @p q of @p values (0 when empty). */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double> &values);

/** Process peak resident set (VmHWM) in MB. */
double peakRssMb();
/** Restart the VmHWM high-water mark at the current RSS, so peakRssMb()
 *  covers only what follows; @p trimHeap first returns free heap pages
 *  to the system, so earlier phases' cached memory does not count. */
void resetPeakRss(bool trimHeap = true);
/** Process CPU seconds so far. */
double processCpuSeconds();

/** Counter and histogram readings of the metrics registry across a
 *  window of the run. */
class RegistryDelta
{
  public:
    void begin() { before_ = metrics().snapshot(); }
    void end() { after_ = metrics().snapshot(); }
    double counter(const std::string &name) const;
    double histogramSum(const std::string &name) const;
    double histogramCount(const std::string &name) const;

  private:
    MetricsSnapshot before_, after_;
};

// ----------------------------------------------------------- requests

/** One distinct MapZero compile request of a workload. */
struct Request {
    std::string kernel;
    std::string arch;
    std::uint64_t seed = 1;
    std::int32_t restarts = 1;
    std::int32_t jobs = 1;
    dfg::Dfg dfg;
    /** The DOT text the SUBMIT carries. */
    std::string dot;

    std::string label() const;
};

/** Build a request for a Table-2 kernel. */
Request makeRequest(const std::string &kernel, const std::string &arch,
                    std::uint64_t seed, std::int32_t restarts,
                    std::int32_t jobs);

/** The SUBMIT payload fields of @p request. */
svc::SubmitRequest submitOf(const Request &request);

/** Per-request wall-clock limit: far above any search the suite runs,
 *  so no II attempt is ever cut by the wall-clock budget slice. */
constexpr double kRequestLimitSeconds = 600.0;

/**
 * A job that is not terminal this long after its SUBMIT fails the run.
 * Set below a quarter of the request limit, this also enforces the
 * determinism pin: every job that passes ran for less than a quarter of
 * its limit, so each II attempt's budget slice (half the remaining
 * limit) stayed longer than the whole compile and never fired.
 */
constexpr double kJobGiveUpSeconds = 0.2 * kRequestLimitSeconds;
static_assert(kJobGiveUpSeconds < 0.25 * kRequestLimitSeconds);

/** Pre-training budget of every daemon the suite starts: the service
 *  defaults with the wall-clock cap lifted, so training is bounded by
 *  episodes only and the networks are the same on any machine. */
PretrainBudget servicePretrainBudget();

/** FNV-1a over every parameter tensor's bytes. */
std::uint64_t modelFingerprint(const rl::MapZeroNet &net);

std::string hex64(std::uint64_t value);

// ------------------------------------------------------ daemon + load

/** A started in-process daemon with its own result-tier directory,
 *  removed again on destruction. */
class Rig
{
  public:
    Rig(std::int32_t workers, std::string persistDir,
        const PretrainBudget &budget);
    ~Rig();
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    int port() const { return daemon_.port(); }

  private:
    std::string persistDir_;
    svc::Daemon daemon_;
};

/**
 * Pre-train (or fetch from the agent cache) the network of every fabric
 * in @p fabrics concurrently, one thread per fabric: what a daemon's
 * first request per fabric pays. Returns per-fabric wall seconds.
 */
std::map<std::string, double> pretrainFabrics(
    const std::vector<std::string> &fabrics, const PretrainBudget &budget);

/** Client-side record of one job. */
struct JobRecord {
    std::size_t request = 0;
    std::uint64_t id = 0;
    /** Empty when SUBMIT, every STATUS, FETCH (and TRACE) succeeded and
     *  the job ended DONE; otherwise what went wrong. */
    std::string error;
    /** Server-clocked latency: SUBMIT round trip + queued + run. */
    double latency = 0.0;
    double queued = 0.0;
    double run = 0.0;
    std::int32_t polls = 0;
    /** Seconds from the start of the drive to this job's FETCH. */
    double done = 0.0;
    double submitRtt = 0.0;
    double fetchRtt = 0.0;
    double traceRtt = 0.0;
    /** Every STATUS round trip of the job (traced pass only). */
    std::vector<double> statusRtts;
    /** FETCH blob (dropped once checked against an expected blob). */
    std::string blob;
    /** TRACE timeline JSON (traced pass only). */
    std::string timeline;
};

/** One closed-loop drive over a request sequence. */
struct LoadResult {
    std::vector<JobRecord> jobs;
    /** First SUBMIT to last FETCH. */
    double wall = 0.0;
};

struct LoadOptions {
    std::int32_t clients = 1;
    /** Record spans and fetch each job's TRACE timeline. */
    bool traced = false;
    TraceCollector *spans = nullptr;
    /** > 0: stop taking new requests after this many seconds. */
    double stopAfterSeconds = 0.0;
    /** When set, each blob must equal (*expected)[request] byte for byte
     *  (compared in the client thread, then dropped). */
    const std::vector<std::string> *expected = nullptr;
};

/**
 * Closed loop: each client thread takes the next index of @p sequence,
 * SUBMITs it, polls STATUS (first poll after 0.2 ms, x1.5 per poll,
 * capped at 10 ms), FETCHes the result, and when traced fetches its
 * TRACE timeline, then takes the next index.
 */
LoadResult driveClosedLoop(int port, const std::vector<Request> &requests,
                           const std::vector<std::size_t> &sequence,
                           const LoadOptions &options);

// ------------------------------------------------------- verification

/** The fields of a FETCH blob the suite checks. */
struct BlobResult {
    bool success = false;
    bool valid = false;
    bool timedOut = false;
    bool cancelled = false;
    std::int32_t ii = 0;
    std::int32_t mii = 0;
    double seconds = 0.0;
    std::int64_t searchOps = 0;
    std::int32_t totalHops = 0;
    std::string method;
    std::vector<mapper::Placement> placements;
};

/**
 * Results of a workload's distinct requests, filled from the passes it
 * runs. The first pass that sees a request parses and keeps its result;
 * every later occurrence (later passes, the traced pass) must repeat its
 * digest exactly.
 */
class ResultBook
{
  public:
    explicit ResultBook(const std::vector<Request> &requests);

    /**
     * Check every job of @p pass: transport errors and give-ups (see
     * kJobGiveUpSeconds), terminal state, timed_out, valid, and digest
     * agreement. Counts one attempt per job into @p out.
     */
    void check(const LoadResult &pass, Outcome &out);

    /** Re-validate every kept mapped result (once per request). */
    void revalidateAll(Outcome &out, TraceCollector &spans);

    const std::vector<BlobResult> &results() const { return results_; }
    /** Digest over every seen request (request order). */
    std::uint64_t digest() const;
    /** Geometric mean of II/MII over mapped requests, and the mapped
     *  share of requests, over the requests seen. */
    double iiOverMiiGeomean() const;
    double mappedFraction() const;

  private:
    const std::vector<Request> *requests_;
    std::vector<BlobResult> results_;
    std::vector<std::uint64_t> digests_;
    std::vector<bool> seen_;
};

// --------------------------------------------------------- workloads

/** Command-line knobs every workload receives. */
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured window: --seconds, else BENCHMARK.json's run_seconds. */
    double seconds = 0.0;
    bool trace = false;
    /** Scratch directory of this run (result tiers). */
    std::string workDir;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload, filling @p out; @p spans records the traced pass. */
void runWorkload(const RunConfig &config, TraceCollector &spans,
                 Outcome &out);

// ---------------------------------------------------------- per layer

/** Name and unit of every per-layer metric, in report order. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** Append every per-layer metric to @p out (0 for unset ones). */
void emitPerLayer(const LayerValues &values, Outcome &out);

/**
 * Fold the traced pass's jobs into @p values: client round trips, the
 * server timelines (stage self-times, attempt counters), search ops, and
 * the reconciliation of each job's depth-0 stages against its
 * server-side latency (queued + run): the share they cover and the
 * microseconds they leave unattributed. A timeline that does not parse
 * fails the run.
 */
void foldTracedJobs(const std::vector<JobRecord> &jobs,
                    const std::vector<BlobResult> &results,
                    LayerValues &values, Outcome &out);

/** Fold metrics-registry deltas of the traced pass, per job. */
void foldRegistry(const RegistryDelta &delta, double jobs,
                  LayerValues &values);

/** Inputs of the layer replays: the workload's own requests and the
 *  mappings it produced. */
struct ReplayInputs {
    const std::vector<Request> *requests = nullptr;
    const std::vector<BlobResult> *results = nullptr;
    /** Budget the workload's daemons pre-trained with: the replays run
     *  on those networks (agent-cache hits). */
    PretrainBudget budget;
    std::string scratchDir;
};

/** Run every layer replay on @p inputs, recording into @p values. */
void runLayerReplays(const ReplayInputs &inputs, LayerValues &values,
                     TraceCollector &spans, Outcome &out);

// ------------------------------------------------------------ compare

/**
 * `--compare BASE CAND`: per workload and end-to-end metric, compare the
 * medians of two BENCH files with BENCHMARK.json's direction and bound.
 * Returns the exit code: 0 pass, 3 regression, 2 unreadable input.
 */
int compareBenchFiles(const std::string &benchmarkJson,
                      const std::string &base, const std::string &cand);

} // namespace mapzero::suite

#endif // MAPZERO_BENCH_SUITE_SUITE_HPP
