/**
 * @file
 * bench_suite entry point.
 *
 *   bench_suite --benchmark BENCHMARK.json --workload W --seed S
 *               --trace 0|1 [--seconds T] [--work-dir DIR]
 *   bench_suite --benchmark BENCHMARK.json --compare BASE.json CAND.json
 *   bench_suite --list
 *
 * A workload run prints human-readable lines (metrics with units, model
 * fingerprints, results digest), then as its last stdout line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. The
 * reported names must be the ones BENCHMARK.json declares, and the
 * window is its run_seconds unless --seconds overrides it. The traced
 * run also writes a Chrome trace of its benchmark-side spans to
 * <work-dir>/trace-<workload>.json.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/json.hpp"
#include "common/log.hpp"
#include "suite.hpp"

namespace {

using namespace mapzero;
using namespace mapzero::suite;

/** A run must end within 180 s: one that has not finished by then is
 *  stuck, and is killed without a result. */
constexpr int kWatchdogSeconds = 170;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_suite: %s\n"
                 "usage: bench_suite --benchmark FILE --workload W --seed S "
                 "--trace 0|1 [--seconds T] [--work-dir DIR]\n"
                 "       bench_suite --benchmark FILE --compare BASE.json "
                 "CAND.json\n"
                 "       bench_suite --list\n",
                 why);
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** The metric names (and run_seconds) BENCHMARK.json declares. */
struct Declared {
    double runSeconds = 0.0;
    std::set<std::string> workloads, endToEnd, perLayer;
};

Declared
loadDeclared(const std::string &path)
{
    if (!std::filesystem::is_regular_file(path))
        usage(("cannot read the benchmark file '" + path + "'").c_str());
    Declared d;
    try {
        const JsonValue doc = JsonValue::parse(readFile(path));
        d.runSeconds = doc.at("run_seconds").asNumber();
        for (const char *key : {"workloads", "end_to_end", "per_layer"}) {
            const JsonValue &list = doc.at(key);
            for (std::size_t i = 0; i < list.size(); ++i) {
                const std::string name = list.at(i).at("name").asString();
                (std::strcmp(key, "workloads") == 0   ? d.workloads
                 : std::strcmp(key, "end_to_end") == 0 ? d.endToEnd
                                                       : d.perLayer)
                    .insert(name);
            }
        }
    } catch (const std::exception &error) {
        usage(("malformed benchmark file '" + path + "': " + error.what())
                  .c_str());
    }
    return d;
}

/** %.17g: every digit the double has. */
std::string
number(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    return buffer;
}

/** Kill the process if the run overstays its time (see above). */
class Watchdog
{
  public:
    Watchdog()
        : thread_([this] {
              std::unique_lock<std::mutex> lock(mutex_);
              if (!done_.wait_for(lock,
                                  std::chrono::seconds(kWatchdogSeconds),
                                  [this] { return finished_; })) {
                  std::fprintf(stderr,
                               "bench_suite: run exceeded %d s, aborting\n",
                               kWatchdogSeconds);
                  std::_Exit(4);
              }
          })
    {}

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            finished_ = true;
        }
        done_.notify_all();
        thread_.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

  private:
    std::mutex mutex_;
    std::condition_variable done_;
    bool finished_ = false;
    std::thread thread_;
};

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    std::string benchmark;
    std::string workRoot = ".bench_run";
    std::string compareBase, compareCand;
    bool list = false, haveSeed = false, haveTrace = false,
         haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value after " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            config.workload = value();
        } else if (arg == "--seed") {
            config.seed = std::strtoull(value().c_str(), nullptr, 10);
            haveSeed = true;
        } else if (arg == "--seconds") {
            config.seconds = std::strtod(value().c_str(), nullptr);
            haveSeconds = true;
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            config.trace = v == "1";
            haveTrace = true;
        } else if (arg == "--benchmark") {
            benchmark = value();
        } else if (arg == "--work-dir") {
            workRoot = value();
        } else if (arg == "--compare") {
            compareBase = value();
            compareCand = value();
        } else if (arg == "--list") {
            list = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }

    if (list) {
        for (const std::string &name : workloadNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }
    if (benchmark.empty())
        usage("--benchmark is required");
    if (!compareBase.empty())
        return compareBenchFiles(benchmark, compareBase, compareCand);

    bool known = false;
    for (const std::string &name : workloadNames())
        known = known || name == config.workload;
    if (!known)
        usage("--workload names none of the suite's workloads");
    if (!haveSeed || !haveTrace)
        usage("--seed and --trace are required");

    const Declared declared = loadDeclared(benchmark);
    if (!haveSeconds)
        config.seconds = declared.runSeconds;
    if (!(config.seconds > 0.0) || config.seconds > 60.0)
        usage("--seconds must be in (0, 60]");

    Watchdog watchdog;
    // Determinism pins: the pre-trained networks (self-play workers)
    // and therefore every mapping must not depend on the core count.
    ::setenv("MAPZERO_NUM_THREADS", "2", 1);
    setLogLevel(LogLevel::Warn);

    config.workDir = (std::filesystem::path(workRoot) /
                      ("run-" + std::to_string(::getpid())))
                         .string();
    std::filesystem::remove_all(config.workDir);
    std::filesystem::create_directories(config.workDir);

    // The run's own collector, not the process-wide one the product's
    // spans go to: only benchmark-side spans land in the exported trace.
    TraceCollector spans;
    spans.setEnabled(config.trace);
    Outcome out;
    runWorkload(config, spans, out);
    std::filesystem::remove_all(config.workDir);

    if (config.trace) {
        const std::string path =
            (std::filesystem::path(workRoot) /
             ("trace-" + config.workload + ".json"))
                .string();
        try {
            spans.writeTo(path);
            out.notes.push_back(cat("chrome trace: ", path, " (",
                                    spans.eventCount(), " spans)"));
        } catch (const std::exception &error) {
            out.fail(cat("could not write the chrome trace: ", error.what()));
        }
    }

    // The reported names must be exactly the ones BENCHMARK.json
    // declares, so the file and the binary cannot drift apart.
    std::vector<Metric> &metrics = config.trace ? out.perLayer : out.endToEnd;
    const std::set<std::string> &want =
        config.trace ? declared.perLayer : declared.endToEnd;
    std::set<std::string> have;
    for (const Metric &m : metrics)
        have.insert(m.name);
    if (have != want)
        out.fail("reported metric names differ from BENCHMARK.json");
    if (!declared.workloads.count(config.workload))
        out.fail("workload missing from BENCHMARK.json");
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value))
            out.fail("metric " + m.name + " is not finite");
    }
    // The traced run reports the failed share of the result line, once
    // every check above has counted.
    for (Metric &m : metrics) {
        if (m.name == "error_rate")
            m.value = static_cast<double>(out.failed) /
                      static_cast<double>(std::max<std::int64_t>(
                          1, out.attempted));
    }

    for (const std::string &note : out.notes)
        std::printf("# %s\n", note.c_str());
    for (const std::string &error : out.errors)
        std::printf("! %s\n", error.c_str());
    for (const Metric &m : metrics)
        std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    const bool correct = out.failed == 0;
    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << std::max<std::int64_t>(1, out.attempted)
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json << (i ? ", " : "") << "\"" << metrics[i].name
             << "\": {\"value\": " << number(metrics[i].value)
             << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
