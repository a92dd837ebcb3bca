/**
 * @file
 * Load generation: requests, in-process daemons, pre-training, and the
 * closed-loop clients, plus the small shared helpers (spans,
 * statistics, registry deltas).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

#include <malloc.h>

#include "common/log.hpp"
#include "common/procstat.hpp"
#include "dfg/dot.hpp"
#include "dfg/kernels.hpp"
#include "svc/client.hpp"
#include "suite.hpp"

namespace mapzero::suite {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

// ------------------------------------------------------------ results

void
Outcome::fail(const std::string &what)
{
    ++failed;
    if (errors.size() < 20)
        errors.push_back(what);
}

// ------------------------------------------------------------- spans

void
addSpan(TraceCollector &spans, std::string name, std::int64_t startUs,
        int lane, std::uint64_t job)
{
    if (!spans.enabled())
        return;
    TraceEvent event;
    event.name = std::move(name);
    event.category = "bench";
    if (job != 0)
        event.argsJson = cat("{\"job\": ", job, "}");
    event.startUs = startUs;
    event.durationUs = spans.nowUs() - startUs;
    event.tid = static_cast<std::uint64_t>(lane);
    spans.add(std::move(event));
}

// --------------------------------------------------------- statistics

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
peakRssMb()
{
    return static_cast<double>(sampleProcStat().peakRssBytes) /
           (1024.0 * 1024.0);
}

void
resetPeakRss(bool trimHeap)
{
    // Handing free heap pages back first restarts the mark from live
    // memory rather than from whatever earlier phases left cached.
    if (trimHeap)
        ::malloc_trim(0);
    // "5" resets the peak-RSS counter (proc(5), /proc/pid/clear_refs).
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
processCpuSeconds()
{
    return sampleProcStat().cpuSeconds();
}

namespace {

template <typename T>
const T *
findNamed(const std::vector<std::pair<std::string, T>> &items,
          const std::string &name)
{
    for (const auto &[key, value] : items) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

} // namespace

double
RegistryDelta::counter(const std::string &name) const
{
    const auto *a = findNamed(after_.counters, name);
    const auto *b = findNamed(before_.counters, name);
    return static_cast<double>((a ? *a : 0) - (b ? *b : 0));
}

double
RegistryDelta::histogramSum(const std::string &name) const
{
    const auto *a = findNamed(after_.histograms, name);
    const auto *b = findNamed(before_.histograms, name);
    return (a ? a->sum : 0.0) - (b ? b->sum : 0.0);
}

double
RegistryDelta::histogramCount(const std::string &name) const
{
    const auto *a = findNamed(after_.histograms, name);
    const auto *b = findNamed(before_.histograms, name);
    return static_cast<double>((a ? a->count : 0) - (b ? b->count : 0));
}

// ----------------------------------------------------------- requests

std::string
Request::label() const
{
    return cat(arch, "/", kernel, "#", seed, "x", restarts);
}

Request
makeRequest(const std::string &kernel, const std::string &arch,
            std::uint64_t seed, std::int32_t restarts, std::int32_t jobs)
{
    Request r;
    r.kernel = kernel;
    r.arch = arch;
    r.seed = seed;
    r.restarts = restarts;
    r.jobs = jobs;
    r.dfg = dfg::buildKernel(kernel);
    r.dot = dfg::toDot(r.dfg);
    return r;
}

svc::SubmitRequest
submitOf(const Request &request)
{
    svc::SubmitRequest s;
    s.dfgDot = request.dot;
    s.archName = request.arch;
    s.method = 0; // Method::MapZero
    s.timeLimitSeconds = kRequestLimitSeconds;
    s.seed = request.seed;
    s.restartsPerIi = static_cast<std::uint32_t>(request.restarts);
    s.jobs = static_cast<std::uint32_t>(request.jobs);
    s.evalCache = true;
    return s;
}

PretrainBudget
servicePretrainBudget()
{
    PretrainBudget budget;
    budget.seconds = kRequestLimitSeconds;
    return budget;
}

std::uint64_t
modelFingerprint(const rl::MapZeroNet &net)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const nn::Value &param : net.parameters()) {
        const std::vector<float> &data = param.tensor().data();
        const auto *p = reinterpret_cast<const unsigned char *>(data.data());
        for (std::size_t i = 0; i < data.size() * sizeof(float); ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

std::string
hex64(std::uint64_t value)
{
    char buffer[20];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

// ------------------------------------------------------ daemon + load

Rig::Rig(std::int32_t workers, std::string persistDir,
         const PretrainBudget &budget)
    : persistDir_(std::move(persistDir))
{
    std::filesystem::remove_all(persistDir_);
    svc::DaemonOptions options;
    options.workers = workers;
    options.service.pretrain = budget;
    options.service.persistDir = persistDir_;
    if (!daemon_.start(options))
        fatal("bench_suite: the daemon failed to start");
}

Rig::~Rig()
{
    daemon_.stop();
    std::error_code ec;
    std::filesystem::remove_all(persistDir_, ec);
}

std::map<std::string, double>
pretrainFabrics(const std::vector<std::string> &fabrics,
                const PretrainBudget &budget)
{
    std::vector<double> seconds(fabrics.size(), 0.0);
    std::vector<std::thread> threads;
    threads.reserve(fabrics.size());
    for (std::size_t i = 0; i < fabrics.size(); ++i) {
        threads.emplace_back([&, i] {
            const Clock::time_point start = Clock::now();
            pretrainedNetwork(*cgra::Architecture::byName(fabrics[i]),
                              budget);
            seconds[i] = secondsSince(start);
        });
    }
    for (std::thread &t : threads)
        t.join();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < fabrics.size(); ++i)
        out[fabrics[i]] = seconds[i];
    return out;
}

namespace {

/** One job from SUBMIT to FETCH (and TRACE), filling @p job. */
void
runJob(svc::Client &client, const svc::SubmitRequest &submit,
       const LoadOptions &options, int lane, JobRecord &job)
{
    TraceCollector *spans = options.traced ? options.spans : nullptr;
    const auto span = [&](const char *name, std::int64_t start) {
        if (spans)
            addSpan(*spans, name, start, lane, job.id);
    };
    const auto now_us = [&] { return spans ? spans->nowUs() : 0; };

    const std::int64_t job_start = now_us();
    Clock::time_point t = Clock::now();
    std::uint32_t depth = 0;
    std::int64_t s0 = now_us();
    svc::Status status = client.submit(submit, job.id, depth);
    job.submitRtt = secondsSince(t);
    span("submit", s0);
    if (status != svc::Status::Ok) {
        job.error = cat("SUBMIT ", svc::statusName(status), ": ",
                        client.lastError());
        return;
    }

    const Clock::time_point submitted = Clock::now();
    double interval = 0.2e-3;
    svc::JobStatus js;
    while (true) {
        std::this_thread::sleep_for(std::chrono::duration<double>(interval));
        interval = std::min(interval * 1.5, 10e-3);
        t = Clock::now();
        s0 = now_us();
        status = client.status(job.id, js);
        if (spans)
            job.statusRtts.push_back(secondsSince(t));
        span("status", s0);
        ++job.polls;
        if (status != svc::Status::Ok) {
            job.error = cat("STATUS ", svc::statusName(status), ": ",
                            client.lastError());
            return;
        }
        if (svc::jobStateTerminal(js.state))
            break;
        if (secondsSince(submitted) > kJobGiveUpSeconds) {
            job.error = cat("job ", job.id, " still ",
                            svc::jobStateName(js.state), " after ",
                            kJobGiveUpSeconds, " s");
            return;
        }
    }
    job.queued = js.queuedSeconds;
    job.run = js.runSeconds;
    job.latency = job.submitRtt + js.queuedSeconds + js.runSeconds;

    svc::JobResult result;
    t = Clock::now();
    s0 = now_us();
    status = client.fetch(job.id, result);
    job.fetchRtt = secondsSince(t);
    span("fetch", s0);
    if (status != svc::Status::Ok) {
        job.error = cat("FETCH ", svc::statusName(status), ": ",
                        client.lastError());
        return;
    }
    if (result.state != svc::JobState::Done) {
        job.error = cat("job ended ", svc::jobStateName(result.state), ": ",
                        result.blob);
        return;
    }
    job.blob = std::move(result.blob);

    if (options.traced) {
        svc::JobTrace trace;
        t = Clock::now();
        s0 = now_us();
        status = client.trace(job.id, trace);
        job.traceRtt = secondsSince(t);
        span("trace", s0);
        if (status != svc::Status::Ok) {
            job.error = cat("TRACE ", svc::statusName(status), ": ",
                            client.lastError());
            return;
        }
        job.timeline = std::move(trace.timelineJson);
    }
    span("job", job_start);
}

} // namespace

LoadResult
driveClosedLoop(int port, const std::vector<Request> &requests,
                const std::vector<std::size_t> &sequence,
                const LoadOptions &options)
{
    std::vector<svc::SubmitRequest> submits;
    submits.reserve(requests.size());
    for (const Request &r : requests)
        submits.push_back(submitOf(r));

    std::atomic<std::size_t> next{0};
    std::vector<std::vector<JobRecord>> perClient(
        static_cast<std::size_t>(options.clients));
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> clients;
    for (std::int32_t c = 0; c < options.clients; ++c) {
        clients.emplace_back([&, c] {
            svc::Client client(port, "127.0.0.1", kJobGiveUpSeconds);
            std::vector<JobRecord> &mine =
                perClient[static_cast<std::size_t>(c)];
            while (true) {
                if (options.stopAfterSeconds > 0.0 &&
                    secondsSince(start) >= options.stopAfterSeconds)
                    break;
                const std::size_t i = next.fetch_add(1);
                if (i >= sequence.size())
                    break;
                JobRecord job;
                job.request = sequence[i];
                runJob(client, submits[job.request], options, c + 1, job);
                job.done = secondsSince(start);
                if (options.expected && job.error.empty()) {
                    if (job.blob != (*options.expected)[job.request])
                        job.error = cat("warm blob of job ", job.id,
                                        " differs from its cold original");
                    std::string().swap(job.blob);
                }
                mine.push_back(std::move(job));
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    LoadResult out;
    out.wall = secondsSince(start);
    for (std::vector<JobRecord> &mine : perClient) {
        for (JobRecord &job : mine)
            out.jobs.push_back(std::move(job));
    }
    std::sort(out.jobs.begin(), out.jobs.end(),
              [](const JobRecord &a, const JobRecord &b) {
                  return a.id < b.id;
              });
    return out;
}

} // namespace mapzero::suite
