/**
 * @file
 * Per-layer metrics of the traced pass (README.md: "Per-layer metrics"
 * maps each one to the end-to-end metric it should move).
 *
 * Three sources: the traced jobs themselves (client round trips and the
 * server timeline each TRACE returns), metrics-registry deltas over the
 * traced pass, and replays that call one layer's public functions from
 * outside on the workload's own inputs and time them.
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>

#include "cgra/mrrg.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/persist.hpp"
#include "core/service.hpp"
#include "dfg/schedule.hpp"
#include "mapper/environment.hpp"
#include "mapper/router.hpp"
#include "nn/autograd.hpp"
#include "rl/evaluator.hpp"
#include "rl/mcts.hpp"
#include "rl/transposition.hpp"
#include "svc/protocol.hpp"
#include "suite.hpp"

namespace mapzero::suite {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Minimum measured time of each throughput replay. */
constexpr double kReplaySeconds = 0.1;

/** Observations the network and eval-cache replays run on. */
constexpr std::size_t kMaxObservations = 256;

/** MCTS expansions per move in the replay (the compiler's setting). */
constexpr std::int32_t kReplayExpansions = 24;

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

cgra::Architecture
archOf(const Request &request)
{
    return *cgra::Architecture::byName(request.arch);
}

} // namespace

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"svc.submit_rtt_us.p50", "us"},
        {"svc.status_rtt_us.p50", "us"},
        {"svc.fetch_rtt_us.p50", "us"},
        {"svc.trace_rtt_us.p50", "us"},
        {"svc.polls_per_job", "count"},
        {"svc.queue_wait_us.p50", "us"},
        {"svc.wire_encode_mb_s", "MB/s"},
        {"svc.wire_decode_mb_s", "MB/s"},
        {"service.disk_cache_us.p50", "us"},
        {"service.render_us.p50", "us"},
        {"service.share.queue_wait", "ratio"},
        {"service.share.disk_cache", "ratio"},
        {"service.share.compile", "ratio"},
        {"service.share.model", "ratio"},
        {"service.share.persist", "ratio"},
        {"service.share.render", "ratio"},
        {"service.stage_coverage.min", "ratio"},
        {"service.unattributed_us.p50", "us"},
        {"service.unattributed_us.p99", "us"},
        {"persist.load_us.p50", "us"},
        {"persist.store_us.p50", "us"},
        {"persist.hit_rate", "ratio"},
        {"compiler.ii_attempts", "count"},
        {"compiler.ii_escalations", "count"},
        {"compiler.restart_attempts", "count"},
        {"compiler.cpu_per_wall", "ratio"},
        {"agent.search_ops", "count"},
        {"agent.search_ops_per_s", "1/s"},
        {"router.route_calls", "count"},
        {"router.route_share", "ratio"},
        {"router.replay_edges_per_s", "1/s"},
        {"mcts.simulations", "count"},
        {"mcts.sims_per_s.lb1", "1/s"},
        {"mcts.sims_per_s.lb16", "1/s"},
        {"eval_cache.hit_rate", "ratio"},
        {"eval_cache.lookup_ns.p50", "ns"},
        {"eval_batcher.mean_batch", "count"},
        {"eval_batcher.partial_fraction", "ratio"},
        {"eval_batcher.queue_wait_ms", "ms"},
        {"tt.hits", "count"},
        {"tt.misses", "count"},
        {"tt.replay_hit_rate", "ratio"},
        {"nn.forward_us.b1", "us"},
        {"nn.forward_us_per_obs.b16", "us"},
        {"nn.forward_us_per_obs.b64", "us"},
        {"nn.forwards", "count"},
        {"trainer.chunk_s.p50", "s"},
        {"trainer.inference_share", "ratio"},
        {"train_success_fraction", "ratio"},
        {"jobs_per_s", "1/s"},
        {"compile_s_sum", "s"},
        {"episodes_per_s", "1/s"},
        {"error_rate", "ratio"},
        {"proc.cpu_s", "s"},
        {"trace.overhead", "ratio"},
    };
    return list;
}

void
emitPerLayer(const LayerValues &values, Outcome &out)
{
    for (const auto &[name, unit] : perLayerMetrics()) {
        const auto it = values.find(name);
        out.perLayer.push_back(
            Metric{name, it == values.end() ? 0.0 : it->second, unit});
    }
}

// ------------------------------------------------------- traced jobs

void
foldTracedJobs(const std::vector<JobRecord> &jobs,
               const std::vector<BlobResult> &results, LayerValues &values,
               Outcome &out)
{
    std::vector<double> submit, status, fetch, trace, queueWait, diskCache,
        render, unattributed;
    std::map<std::string, double> stageUs;
    double serverUs = 0.0, polls = 0.0, attemptUs = 0.0, routeUs = 0.0,
           routeCalls = 0.0, compileUs = 0.0, compiledOps = 0.0,
           coverageMin = 1.0;
    std::size_t folded = 0;

    for (const JobRecord &job : jobs) {
        if (!job.error.empty() || job.timeline.empty())
            continue;
        ++folded;
        submit.push_back(job.submitRtt * 1e6);
        for (const double s : job.statusRtts)
            status.push_back(s * 1e6);
        fetch.push_back(job.fetchRtt * 1e6);
        trace.push_back(job.traceRtt * 1e6);
        polls += job.polls;
        const BlobResult &result = results[job.request];

        JsonValue timeline;
        try {
            timeline = JsonValue::parse(job.timeline);
        } catch (const std::exception &error) {
            out.fail(cat("job ", job.id, ": malformed timeline: ",
                         error.what()));
            continue;
        }
        const JsonValue &stages = timeline.at("stages");
        double covered = 0.0;
        for (std::size_t i = 0; i < stages.size(); ++i) {
            const JsonValue &stage = stages.at(i);
            const std::string &name = stage.at("name").asString();
            const double dur = stage.at("dur_us").asNumber();
            const bool top = stage.at("depth").asInt() == 0;
            if (top) {
                covered += dur;
                stageUs[name] += dur;
                if (name == "queue_wait")
                    queueWait.push_back(dur);
                else if (name == "disk_cache")
                    diskCache.push_back(dur);
                else if (name == "render")
                    render.push_back(dur);
                else if (name == "compile") {
                    compileUs += dur;
                    compiledOps += static_cast<double>(result.searchOps);
                }
            } else if (name == "model") {
                stageUs[name] += dur;
            } else if (name == "attempt") {
                attemptUs += dur;
                if (stage.has("args")) {
                    const JsonValue &args = stage.at("args");
                    routeUs += args.numberOr("route_us", 0.0);
                    routeCalls += args.numberOr("route_calls", 0.0);
                }
            }
        }
        // Server side of the latency: the timeline starts at SUBMIT
        // admission and is frozen at the terminal transition.
        const double server = (job.queued + job.run) * 1e6;
        serverUs += server;
        coverageMin =
            std::min(coverageMin, std::min(1.0, ratio(covered, server)));
        unattributed.push_back(std::max(0.0, server - covered));
    }

    const double n = static_cast<double>(std::max<std::size_t>(folded, 1));
    values["svc.submit_rtt_us.p50"] = median(submit);
    values["svc.status_rtt_us.p50"] = median(status);
    values["svc.fetch_rtt_us.p50"] = median(fetch);
    values["svc.trace_rtt_us.p50"] = median(trace);
    values["svc.polls_per_job"] = polls / n;
    values["svc.queue_wait_us.p50"] = median(queueWait);
    values["service.disk_cache_us.p50"] = median(diskCache);
    values["service.render_us.p50"] = median(render);
    for (const char *stage : {"queue_wait", "disk_cache", "compile", "model",
                              "persist", "render"})
        values[std::string("service.share.") + stage] =
            ratio(stageUs[stage], serverUs);
    values["service.stage_coverage.min"] = coverageMin;
    values["service.unattributed_us.p50"] = median(unattributed);
    values["service.unattributed_us.p99"] = quantile(unattributed, 0.99);
    // Disk hits replay a stored result's search ops without searching,
    // so only jobs that ran a compile stage count.
    values["agent.search_ops"] = compiledOps / n;
    values["agent.search_ops_per_s"] = ratio(compiledOps, compileUs / 1e6);
    values["router.route_calls"] = routeCalls / n;
    values["router.route_share"] = ratio(routeUs, attemptUs);
}

void
foldRegistry(const RegistryDelta &delta, double jobs, LayerValues &values)
{
    const auto perJob = [&](const std::string &counter) {
        return ratio(delta.counter(counter), jobs);
    };
    values["compiler.ii_attempts"] = perJob("compiler.ii_attempts");
    values["compiler.ii_escalations"] = perJob("compiler.ii_escalations");
    values["compiler.restart_attempts"] = perJob("compiler.restart_attempts");
    values["mcts.simulations"] = perJob("mcts.simulations");
    values["tt.hits"] = perJob("cache.tt_hits");
    values["tt.misses"] = perJob("cache.tt_misses");
    values["nn.forwards"] = perJob("eval_cache.misses");

    const double hits = delta.counter("eval_cache.hits");
    values["eval_cache.hit_rate"] =
        ratio(hits, hits + delta.counter("eval_cache.misses"));
    values["eval_batcher.mean_batch"] =
        ratio(delta.histogramSum("eval_batcher.batch_size"),
              delta.histogramCount("eval_batcher.batch_size"));
    const double partial = delta.counter("eval_batcher.partial_batches");
    values["eval_batcher.partial_fraction"] = ratio(
        partial, partial + delta.counter("eval_batcher.full_batches"));
    values["eval_batcher.queue_wait_ms"] =
        ratio(delta.histogramSum("eval_batcher.queue_wait_seconds") * 1e3,
              jobs);
    const double diskHits = delta.counter("cache.disk_hits");
    values["persist.hit_rate"] =
        ratio(diskHits, diskHits + delta.counter("cache.disk_misses"));
}

// ----------------------------------------------------------- replays

namespace {

/** Run @p round until kReplaySeconds of it have been measured. */
template <typename Round>
void
repeatFor(Round &&round)
{
    const Clock::time_point start = Clock::now();
    do {
        round();
    } while (secondsSince(start) < kReplaySeconds);
}

/** svc/protocol: encodeSubmit / decodeSubmit over the requests. */
void
replayWire(const std::vector<Request> &requests, LayerValues &values,
           Outcome &out)
{
    std::vector<svc::SubmitRequest> submits;
    std::vector<std::string> payloads;
    for (const Request &r : requests) {
        submits.push_back(submitOf(r));
        payloads.push_back(svc::encodeSubmit(submits.back()));
    }
    double bytes = 0.0, seconds = 0.0;
    repeatFor([&] {
        const Clock::time_point start = Clock::now();
        for (const svc::SubmitRequest &s : submits)
            bytes += static_cast<double>(svc::encodeSubmit(s).size());
        seconds += secondsSince(start);
    });
    values["svc.wire_encode_mb_s"] = ratio(bytes / 1e6, seconds);

    bytes = seconds = 0.0;
    bool ok = true;
    repeatFor([&] {
        svc::SubmitRequest decoded;
        const Clock::time_point start = Clock::now();
        for (const std::string &payload : payloads) {
            ok = svc::decodeSubmit(payload, decoded) && ok;
            bytes += static_cast<double>(payload.size());
        }
        seconds += secondsSince(start);
    });
    ++out.attempted;
    if (!ok)
        out.fail("decodeSubmit rejected an encodeSubmit payload");
    values["svc.wire_decode_mb_s"] = ratio(bytes / 1e6, seconds);
}

CompileResult
compileResultOf(const BlobResult &r)
{
    CompileResult c;
    c.success = r.success;
    c.ii = r.ii;
    c.mii = r.mii;
    c.seconds = r.seconds;
    c.searchOps = r.searchOps;
    c.timedOut = r.timedOut;
    c.cancelled = r.cancelled;
    c.placements = r.placements;
    c.totalHops = r.totalHops;
    c.method = r.method;
    return c;
}

/** common/persist: DiskByteStore::store / load of the result tier's
 *  exact keys and payloads. */
void
replayPersist(const ReplayInputs &in, LayerValues &values, Outcome &out)
{
    ServiceOptions options;
    options.pretrain = in.budget;
    CompileService service(options);
    std::vector<std::pair<std::string, std::string>> entries;
    for (std::size_t i = 0; i < in.requests->size(); ++i) {
        const Request &r = (*in.requests)[i];
        const BlobResult &result = (*in.results)[i];
        if (!result.success)
            continue;
        CompileOptions compile;
        compile.timeLimitSeconds = kRequestLimitSeconds;
        compile.seed = r.seed;
        compile.restartsPerIi = r.restarts;
        compile.jobs = r.jobs;
        entries.emplace_back(
            service.requestKey(r.dfg, archOf(r), Method::MapZero, compile),
            encodeCompileResult(compileResultOf(result)));
    }
    const DiskByteStore store(in.scratchDir + "/persist");
    std::vector<double> loadUs, storeUs;
    bool intact = true;
    repeatFor([&] {
        for (const auto &[key, payload] : entries) {
            Clock::time_point start = Clock::now();
            store.store(key, payload);
            storeUs.push_back(secondsSince(start) * 1e6);
            start = Clock::now();
            const std::optional<std::string> loaded = store.load(key);
            loadUs.push_back(secondsSince(start) * 1e6);
            intact = intact && loaded && *loaded == payload;
        }
    });
    ++out.attempted;
    if (!intact)
        out.fail("DiskByteStore::load returned other bytes than stored");
    values["persist.store_us.p50"] = median(storeUs);
    values["persist.load_us.p50"] = median(loadUs);
}

/** mapper/router: Router::replayMapping over every mapped result. */
void
replayRouter(const ReplayInputs &in, LayerValues &values, Outcome &out)
{
    double edges = 0.0, seconds = 0.0;
    bool ok = true;
    repeatFor([&] {
        for (std::size_t i = 0; i < in.requests->size(); ++i) {
            const Request &r = (*in.requests)[i];
            const BlobResult &result = (*in.results)[i];
            if (!result.success)
                continue;
            const cgra::Architecture arch = archOf(r);
            const cgra::Mrrg mrrg(arch, result.ii);
            std::optional<dfg::Schedule> schedule = dfg::moduloSchedule(
                r.dfg, result.ii, arch.memoryIssueCapacity());
            if (!schedule) {
                ok = false;
                continue;
            }
            mapper::MappingState state(r.dfg, mrrg, std::move(*schedule));
            const Clock::time_point start = Clock::now();
            ok = mapper::Router::replayMapping(state, result.placements) &&
                 ok;
            seconds += secondsSince(start);
            edges += static_cast<double>(r.dfg.edgeCount());
        }
    });
    ++out.attempted;
    if (!ok)
        out.fail("Router::replayMapping failed on a fetched mapping");
    values["router.replay_edges_per_s"] = ratio(edges, seconds);
}

/** Observations along each mapped result's placement sequence, for
 *  requests on @p arch (one network covers them all). */
std::vector<rl::Observation>
collectObservations(const ReplayInputs &in, const std::string &arch)
{
    std::vector<rl::Observation> observations;
    for (std::size_t i = 0; i < in.requests->size() &&
                            observations.size() < kMaxObservations;
         ++i) {
        const Request &r = (*in.requests)[i];
        const BlobResult &result = (*in.results)[i];
        if (r.arch != arch || !result.success)
            continue;
        const cgra::Architecture fabric = archOf(r);
        mapper::MapEnv env(r.dfg, fabric, result.ii);
        while (!env.done() && observations.size() < kMaxObservations) {
            observations.push_back(rl::observe(env));
            env.step(result.placements[static_cast<std::size_t>(
                                           env.currentNode())]
                         .pe);
        }
    }
    return observations;
}

/** nn + rl/evaluator: forwardBatch at batch 1/16/64, EvalCache lookup. */
void
replayNetwork(const rl::MapZeroNet &net,
              const std::vector<rl::Observation> &observations,
              LayerValues &values, Outcome &out)
{
    nn::InferenceGuard inference;
    const auto forwardUs = [&](std::size_t batch) {
        double seconds = 0.0, forwarded = 0.0;
        std::size_t next = 0;
        repeatFor([&] {
            std::vector<const rl::Observation *> group;
            for (std::size_t k = 0; k < batch; ++k)
                group.push_back(&observations[next++ % observations.size()]);
            const Clock::time_point start = Clock::now();
            const std::vector<rl::MapZeroNet::Output> outputs =
                net.forwardBatch(group);
            seconds += secondsSince(start);
            forwarded += static_cast<double>(outputs.size());
        });
        return ratio(seconds * 1e6, forwarded);
    };
    values["nn.forward_us.b1"] = forwardUs(1);
    values["nn.forward_us_per_obs.b16"] = forwardUs(16);
    values["nn.forward_us_per_obs.b64"] = forwardUs(64);

    rl::EvalCache cache;
    std::vector<std::string> keys;
    for (const rl::Observation &obs : observations) {
        keys.push_back(rl::EvalCache::keyOf(obs));
        cache.insert(keys.back(), net.forward(obs));
    }
    constexpr std::size_t kLookupsPerSample = 64;
    std::vector<double> ns;
    bool hit = true;
    rl::MapZeroNet::Output output;
    repeatFor([&] {
        for (std::size_t base = 0; base < keys.size();
             base += kLookupsPerSample) {
            const std::size_t end =
                std::min(keys.size(), base + kLookupsPerSample);
            const Clock::time_point start = Clock::now();
            for (std::size_t k = base; k < end; ++k)
                hit = cache.lookup(keys[k], output) && hit;
            ns.push_back(secondsSince(start) * 1e9 /
                         static_cast<double>(end - base));
        }
    });
    ++out.attempted;
    if (!hit)
        out.fail("EvalCache::lookup missed a key it holds");
    values["eval_cache.lookup_ns.p50"] = median(ns);
}

/**
 * rl/mcts: Mcts::runFromCurrent on the workload's hardest mapped
 * requests (those that escalated past MII, else the largest DFGs), with
 * a bare DirectEvaluator so every leaf is a forward pass.
 */
void
replayMcts(const ReplayInputs &in, LayerValues &values)
{
    std::vector<std::size_t> picks;
    for (std::size_t i = 0; i < in.requests->size(); ++i) {
        const BlobResult &result = (*in.results)[i];
        if (result.success)
            picks.push_back(i);
    }
    std::stable_sort(picks.begin(), picks.end(), [&](std::size_t a,
                                                     std::size_t b) {
        const BlobResult &ra = (*in.results)[a], &rb = (*in.results)[b];
        const bool ea = ra.ii > ra.mii, eb = rb.ii > rb.mii;
        if (ea != eb)
            return ea;
        return (*in.requests)[a].dfg.nodeCount() >
               (*in.requests)[b].dfg.nodeCount();
    });
    if (picks.size() > 2)
        picks.erase(picks.begin() + 2, picks.end());

    for (const std::int32_t leafBatch : {1, 16}) {
        double sims = 0.0, seconds = 0.0;
        for (const std::size_t i : picks) {
            const Request &r = (*in.requests)[i];
            const cgra::Architecture arch = archOf(r);
            const auto net = pretrainedNetwork(arch, in.budget);
            rl::MctsConfig config;
            config.expansionsPerMove = kReplayExpansions;
            config.leafBatch = leafBatch;
            rl::Mcts mcts(*net, config);
            Rng rng(1);
            // Each episode gets a fresh environment: the search memoizes
            // per environment instance, and a replayed episode would
            // measure memo hits instead of search.
            std::optional<mapper::MapEnv> env;
            const Clock::time_point start = Clock::now();
            while (secondsSince(start) < kReplaySeconds) {
                if (!env || env->done() || env->legalActionCount() == 0)
                    env.emplace(r.dfg, arch, (*in.results)[i].ii);
                const rl::MctsMoveResult move =
                    mcts.runFromCurrent(*env, rng);
                sims += move.simulations;
                if (move.bestAction < 0)
                    env.reset();
                else
                    env->step(move.bestAction);
            }
            seconds += secondsSince(start);
        }
        values[cat("mcts.sims_per_s.lb", leafBatch)] = ratio(sims, seconds);
    }

    // Transposition table: two restarts of one search share a table, as
    // a portfolio's restarts do; the second replays what the first
    // expanded.
    if (picks.empty())
        return;
    const Request &r = (*in.requests)[picks.front()];
    const cgra::Architecture arch = archOf(r);
    const auto net = pretrainedNetwork(arch, in.budget);
    rl::MctsConfig config;
    config.expansionsPerMove = kReplayExpansions;
    config.transposition = std::make_shared<rl::TranspositionTable>();
    RegistryDelta delta;
    delta.begin();
    for (std::uint64_t restart = 0; restart < 2; ++restart) {
        rl::Mcts mcts(*net, config);
        Rng rng(Rng::deriveSeed(1, restart));
        mapper::MapEnv env(r.dfg, arch, (*in.results)[picks.front()].ii);
        const Clock::time_point start = Clock::now();
        while (!env.done() && env.legalActionCount() > 0 &&
               secondsSince(start) < kReplaySeconds) {
            const rl::MctsMoveResult move = mcts.runFromCurrent(env, rng);
            if (move.bestAction < 0)
                break;
            env.step(move.bestAction);
        }
    }
    delta.end();
    const double hits = delta.counter("cache.tt_hits");
    values["tt.replay_hit_rate"] =
        ratio(hits, hits + delta.counter("cache.tt_misses"));
}

} // namespace

void
runLayerReplays(const ReplayInputs &inputs, LayerValues &values,
                TraceCollector &spans, Outcome &out)
{
    std::filesystem::create_directories(inputs.scratchDir);
    {
        ScopedSpan span(spans, "replay.wire");
        replayWire(*inputs.requests, values, out);
    }
    {
        ScopedSpan span(spans, "replay.persist");
        replayPersist(inputs, values, out);
    }
    {
        ScopedSpan span(spans, "replay.router");
        replayRouter(inputs, values, out);
    }
    {
        ScopedSpan span(spans, "replay.nn");
        // The fabric most of the workload's requests target.
        std::map<std::string, int> perFabric;
        for (const Request &r : *inputs.requests)
            ++perFabric[r.arch];
        const std::string fabric =
            std::max_element(perFabric.begin(), perFabric.end(),
                             [](const auto &a, const auto &b) {
                                 return a.second < b.second;
                             })
                ->first;
        const std::vector<rl::Observation> observations =
            collectObservations(inputs, fabric);
        if (observations.empty()) {
            out.fail("no mapped result to replay the network on");
        } else {
            const auto net = pretrainedNetwork(
                *cgra::Architecture::byName(fabric), inputs.budget);
            replayNetwork(*net, observations, values, out);
        }
    }
    {
        ScopedSpan span(spans, "replay.mcts");
        replayMcts(inputs, values);
    }
    std::filesystem::remove_all(inputs.scratchDir);
}

} // namespace mapzero::suite
