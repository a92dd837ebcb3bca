/**
 * @file
 * The correctness gate: FETCH-blob parsing, result digests, and the
 * independent re-validation of every mapping (route replay, validator,
 * and the fabric simulator checked against the DFG interpreter).
 */

#include <cmath>

#include "cgra/mrrg.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "dfg/schedule.hpp"
#include "mapper/router.hpp"
#include "mapper/validator.hpp"
#include "sim/fabric_sim.hpp"
#include "suite.hpp"

namespace mapzero::suite {

namespace {

/** Iterations the fabric simulation runs per re-validated mapping. */
constexpr std::int64_t kSimIterations = 8;

void
mix(std::uint64_t &h, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
}

/** Parse a FETCH blob; "" on success, else why it is malformed. */
std::string
parseBlob(const std::string &blob, BlobResult &out)
{
    try {
        const JsonValue doc = JsonValue::parse(blob);
        BlobResult r;
        r.success = doc.at("success").asBool();
        r.timedOut = doc.at("timed_out").asBool();
        r.cancelled = doc.at("cancelled").asBool();
        r.ii = static_cast<std::int32_t>(doc.at("ii").asInt());
        r.mii = static_cast<std::int32_t>(doc.at("mii").asInt());
        r.seconds = doc.at("seconds").asNumber();
        r.searchOps = doc.at("search_ops").asInt();
        r.totalHops = static_cast<std::int32_t>(doc.at("total_hops").asInt());
        r.method = doc.at("method").asString();
        if (r.success) {
            r.valid = doc.at("valid").asBool();
            const JsonValue &list = doc.at("placements");
            r.placements.resize(list.size());
            for (std::size_t i = 0; i < list.size(); ++i) {
                const JsonValue &p = list.at(i);
                if (p.at("node").asInt() != static_cast<std::int64_t>(i))
                    return "placements out of node order";
                r.placements[i].pe =
                    static_cast<cgra::PeId>(p.at("pe").asInt());
                r.placements[i].time =
                    static_cast<std::int32_t>(p.at("time").asInt());
            }
        }
        out = std::move(r);
        return "";
    } catch (const std::exception &error) {
        return cat("malformed result blob: ", error.what());
    }
}

/** Digest of the fields that must repeat exactly: success, II, search
 *  ops, placements. */
std::uint64_t
resultDigest(const BlobResult &result)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    mix(h, result.success ? 1 : 0);
    mix(h, static_cast<std::uint64_t>(result.ii));
    mix(h, static_cast<std::uint64_t>(result.searchOps));
    mix(h, result.placements.size());
    for (const mapper::Placement &p : result.placements) {
        mix(h, static_cast<std::uint64_t>(p.pe));
        mix(h, static_cast<std::uint64_t>(p.time));
    }
    return h;
}

/** Order-sensitive combination of per-request digests. */
std::uint64_t
combineDigests(const std::vector<std::uint64_t> &digests)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t d : digests)
        mix(h, d);
    return h;
}

/**
 * Independent re-validation of a mapped result: rebuild the mapping
 * state from the placements, replay its routes, validate it, and run
 * the fabric simulator against the DFG interpreter for 8 iterations.
 * Returns "" when the mapping checks out, else why not.
 */
std::string
revalidate(const Request &request, const BlobResult &result)
{
    const cgra::Architecture arch = *cgra::Architecture::byName(request.arch);
    if (static_cast<std::int32_t>(result.placements.size()) !=
        request.dfg.nodeCount())
        return "placement count differs from the DFG's node count";
    const cgra::Mrrg mrrg(arch, result.ii);
    std::optional<dfg::Schedule> schedule = dfg::moduloSchedule(
        request.dfg, result.ii, arch.memoryIssueCapacity());
    if (!schedule)
        return cat("no modulo schedule at II=", result.ii);
    mapper::MappingState state(request.dfg, mrrg, std::move(*schedule));
    if (!mapper::Router::replayMapping(state, result.placements))
        return "route replay failed";
    const mapper::ValidationResult validation =
        mapper::validateMapping(state);
    if (!validation.valid)
        return "validator: " + (validation.errors.empty()
                                    ? std::string("invalid")
                                    : validation.errors.front());
    const std::string divergence = sim::compareWithReference(
        state, kSimIterations, sim::defaultProvider());
    if (!divergence.empty())
        return "fabric simulation diverged from the interpreter: " +
               divergence;
    return "";
}

} // namespace

ResultBook::ResultBook(const std::vector<Request> &requests)
    : requests_(&requests), results_(requests.size()),
      digests_(requests.size(), 0), seen_(requests.size(), false)
{}

void
ResultBook::check(const LoadResult &pass, Outcome &out)
{
    for (const JobRecord &job : pass.jobs) {
        ++out.attempted;
        const Request &request = (*requests_)[job.request];
        const std::string where = cat(request.label(), " (job ", job.id, ")");
        if (!job.error.empty()) {
            out.fail(where + ": " + job.error);
            continue;
        }
        if (job.blob.empty())
            continue; // compared byte for byte in the client already
        BlobResult result;
        const std::string error = parseBlob(job.blob, result);
        if (!error.empty()) {
            out.fail(where + ": " + error);
            continue;
        }
        if (result.timedOut || result.cancelled) {
            out.fail(where + ": result timed out or was cancelled");
            continue;
        }
        if (result.success && !result.valid) {
            out.fail(where + ": the server's own validation failed");
            continue;
        }
        const std::uint64_t digest = resultDigest(result);
        if (!seen_[job.request]) {
            seen_[job.request] = true;
            digests_[job.request] = digest;
            results_[job.request] = std::move(result);
        } else if (digests_[job.request] != digest) {
            out.fail(where + ": result differs from an earlier run of the "
                             "same request");
        }
    }
}

void
ResultBook::revalidateAll(Outcome &out, TraceCollector &spans)
{
    for (std::size_t i = 0; i < results_.size(); ++i) {
        if (!seen_[i] || !results_[i].success)
            continue;
        ScopedSpan span(spans, "verify");
        ++out.attempted;
        const std::string error = revalidate((*requests_)[i], results_[i]);
        if (!error.empty())
            out.fail((*requests_)[i].label() + ": " + error);
    }
}

std::uint64_t
ResultBook::digest() const
{
    std::vector<std::uint64_t> seen;
    for (std::size_t i = 0; i < digests_.size(); ++i) {
        if (seen_[i])
            seen.push_back(digests_[i]);
    }
    return combineDigests(seen);
}

double
ResultBook::iiOverMiiGeomean() const
{
    double log_sum = 0.0;
    std::size_t mapped = 0;
    for (std::size_t i = 0; i < results_.size(); ++i) {
        if (seen_[i] && results_[i].success && results_[i].mii > 0) {
            log_sum += std::log(static_cast<double>(results_[i].ii) /
                                results_[i].mii);
            ++mapped;
        }
    }
    return mapped ? std::exp(log_sum / static_cast<double>(mapped)) : 0.0;
}

double
ResultBook::mappedFraction() const
{
    std::size_t seen = 0, mapped = 0;
    for (std::size_t i = 0; i < results_.size(); ++i) {
        seen += seen_[i] ? 1 : 0;
        mapped += seen_[i] && results_[i].success ? 1 : 0;
    }
    return seen ? static_cast<double>(mapped) / static_cast<double>(seen)
                : 0.0;
}

} // namespace mapzero::suite
