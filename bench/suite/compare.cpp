/**
 * @file
 * `bench_suite --compare BASE.json CAND.json`: the regression gate
 * between two BENCH files written by run.sh.
 *
 * For each workload (one row block each) and each end-to-end metric of
 * BENCHMARK.json, the candidate's median is compared with the base's in
 * the metric's direction. A worsening beyond the metric's bound is a
 * regression. When either side's run-to-run spread (interquartile range
 * over median, as Python's statistics.quantiles computes it) exceeds
 * the bound, the runs cannot tell a change from noise and the metric is
 * unresolved - unless every candidate run lies beyond every base run. A
 * candidate run that reports correct=false or failed>0 is a regression
 * by itself.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "suite.hpp"

namespace mapzero::suite {

namespace {

struct Bound {
    std::string name;
    bool lowerIsBetter = true;
    double bound = 0.0;
};

/** Per workload: metric name -> values over the file's untraced runs. */
struct BenchFile {
    std::vector<std::string> workloads;
    std::map<std::string, std::map<std::string, std::vector<double>>> values;
    std::map<std::string, std::int64_t> failedRuns;
};

JsonValue
parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return JsonValue::parse(os.str());
}

BenchFile
loadBench(const std::string &path)
{
    BenchFile file;
    const JsonValue doc = parseFile(path);
    const JsonValue &runs = doc.at("runs");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const JsonValue &run = runs.at(i);
        if (run.at("trace").asInt() != 0)
            continue;
        const std::string &workload = run.at("workload").asString();
        if (!file.values.count(workload))
            file.workloads.push_back(workload);
        auto &metrics = file.values[workload];
        const JsonValue &result = run.at("result");
        if (!result.at("correct").asBool() ||
            result.at("failed").asInt() != 0)
            ++file.failedRuns[workload];
        for (const auto &[name, metric] : result.at("metrics").members())
            metrics[name].push_back(metric.at("value").asNumber());
    }
    return file;
}

/** statistics.quantiles(values, n=4) (method "exclusive") Q1 and Q3. */
std::pair<double, double>
quartiles(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const long ld = static_cast<long>(values.size());
    const long m = ld + 1;
    double q[2];
    for (int k = 0; k < 2; ++k) {
        const long i = k == 0 ? 1 : 3;
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const double delta = static_cast<double>(i * m - j * 4);
        q[k] = (values[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
                values[static_cast<std::size_t>(j)] * delta) /
               4.0;
    }
    return {q[0], q[1]};
}

/** Interquartile range over median (0 below two samples). */
double
spread(const std::vector<double> &values)
{
    if (values.size() < 2)
        return 0.0;
    const auto [q1, q3] = quartiles(values);
    const double mid = median(values);
    return mid != 0.0 ? (q3 - q1) / std::fabs(mid) : 0.0;
}

} // namespace

int
compareBenchFiles(const std::string &benchmarkJson, const std::string &base,
                  const std::string &cand)
{
    std::vector<Bound> bounds;
    BenchFile b, c;
    try {
        const JsonValue spec = parseFile(benchmarkJson);
        const JsonValue &list = spec.at("end_to_end");
        for (std::size_t i = 0; i < list.size(); ++i) {
            const JsonValue &m = list.at(i);
            bounds.push_back(Bound{m.at("name").asString(),
                                   m.at("better").asString() == "lower",
                                   m.at("bound").asNumber()});
        }
        b = loadBench(base);
        c = loadBench(cand);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "bench_suite --compare: %s\n", error.what());
        return 2;
    }

    int regressions = 0, unresolved = 0;
    std::printf("%-12s %-22s %14s %14s %9s %8s %8s %s\n", "workload",
                "metric", "base", "cand", "change", "spread", "bound",
                "verdict");
    for (const std::string &workload : b.workloads) {
        if (!c.values.count(workload)) {
            std::printf("%-12s missing from the candidate: REGRESSION\n",
                        workload.c_str());
            ++regressions;
            continue;
        }
        if (c.failedRuns[workload] > 0) {
            std::printf("%-12s %-22s %lld candidate run(s) failed their "
                        "correctness checks: REGRESSION\n",
                        workload.c_str(), "correctness",
                        static_cast<long long>(c.failedRuns[workload]));
            ++regressions;
        }
        for (const Bound &bound : bounds) {
            const std::vector<double> &bv = b.values[workload][bound.name];
            const std::vector<double> &cv = c.values[workload][bound.name];
            if (bv.empty() || cv.empty()) {
                std::printf("%-12s %-22s missing: REGRESSION\n",
                            workload.c_str(), bound.name.c_str());
                ++regressions;
                continue;
            }
            const double mb = median(bv), mc = median(cv);
            // Relative worsening in the metric's direction.
            const double worse =
                mb != 0.0 ? (bound.lowerIsBetter ? mc - mb : mb - mc) /
                                std::fabs(mb)
                          : 0.0;
            const double noise = std::max(spread(bv), spread(cv));
            // Every candidate run on one side of every base run settles
            // the direction even when the runs are noisy.
            const auto [bmin, bmax] =
                std::minmax_element(bv.begin(), bv.end());
            const auto [cmin, cmax] =
                std::minmax_element(cv.begin(), cv.end());
            const bool allWorse = bound.lowerIsBetter ? *cmin > *bmax
                                                      : *cmax < *bmin;
            const bool allBetter = bound.lowerIsBetter ? *cmax < *bmin
                                                       : *cmin > *bmax;
            const char *verdict = "ok";
            if (worse > bound.bound && (noise <= bound.bound || allWorse)) {
                verdict = "REGRESSION";
                ++regressions;
            } else if (worse < -bound.bound &&
                       (noise <= bound.bound || allBetter)) {
                verdict = "better";
            } else if (noise > bound.bound) {
                verdict = "UNRESOLVED (spread over bound)";
                ++unresolved;
            }
            std::printf("%-12s %-22s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%% "
                        "%s\n",
                        workload.c_str(), bound.name.c_str(), mb, mc,
                        100.0 * (mb != 0.0 ? (mc - mb) / std::fabs(mb)
                                           : 0.0),
                        100.0 * noise, 100.0 * bound.bound, verdict);
        }
    }
    std::printf("%d regression(s), %d unresolved\n", regressions,
                unresolved);
    return regressions > 0 ? 3 : 0;
}

} // namespace mapzero::suite
