#include "src/sim/shard.h"

#include <bit>
#include <cerrno>
#include <cstdlib>
#include <functional>
#include <string>

#include <sys/wait.h>

#include "src/common/child.h"
#include "src/common/logging.h"
#include "src/hard/error.h"
#include "src/obs/json.h"

namespace camo::sim {

namespace {

using obs::json::Value;

/** A full GA generation of fitness values is tiny; a sweep shard's
 *  RunMetrics payload grows with cores x jobs. 64 MB is orders of
 *  magnitude above any real shard while still bounding a corrupt
 *  length prefix. */
constexpr std::uint32_t kShardFrameCap = 64u << 20;

std::string
u64Str(std::uint64_t v)
{
    return std::to_string(v);
}

/** Doubles cross the pipe as their IEEE-754 bit patterns so the
 *  round-trip is exact; obs::json numbers would re-format. */
Value
bitsOfDouble(double d)
{
    return Value(u64Str(std::bit_cast<std::uint64_t>(d)));
}

[[noreturn]] void
failShardFrame(unsigned shard, const std::string &what)
{
    throw hard::TransientFault("shard " + std::to_string(shard) +
                               ": " + what);
}

std::uint64_t
parseU64Field(const Value *v, unsigned shard, const char *what)
{
    if (v == nullptr || !v->isString())
        failShardFrame(shard, std::string("frame missing ") + what);
    const std::string &s = v->asString();
    errno = 0;
    char *end = nullptr;
    const unsigned long long r = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE)
        failShardFrame(shard, std::string("malformed ") + what +
                                  " '" + s + "'");
    return static_cast<std::uint64_t>(r);
}

double
parseDoubleBits(const Value &v, unsigned shard, const char *what)
{
    return std::bit_cast<double>(parseU64Field(&v, shard, what));
}

Value
u64VecToJson(const std::vector<std::uint64_t> &xs)
{
    Value a = Value::makeArray();
    for (std::uint64_t x : xs)
        a.push(Value(u64Str(x)));
    return a;
}

Value
doubleVecToJson(const std::vector<double> &xs)
{
    Value a = Value::makeArray();
    for (double x : xs)
        a.push(bitsOfDouble(x));
    return a;
}

std::vector<std::uint64_t>
u64VecFromJson(const Value *v, unsigned shard, const char *what)
{
    if (v == nullptr || !v->isArray())
        failShardFrame(shard, std::string("frame missing ") + what);
    std::vector<std::uint64_t> out;
    out.reserve(v->asArray().size());
    for (const Value &e : v->asArray())
        out.push_back(parseU64Field(&e, shard, what));
    return out;
}

std::vector<double>
doubleVecFromJson(const Value *v, unsigned shard, const char *what)
{
    if (v == nullptr || !v->isArray())
        failShardFrame(shard, std::string("frame missing ") + what);
    std::vector<double> out;
    out.reserve(v->asArray().size());
    for (const Value &e : v->asArray())
        out.push_back(parseDoubleBits(e, shard, what));
    return out;
}

Value
metricsToJson(const RunMetrics &m)
{
    Value v = Value::makeObject();
    v["cycles"] = Value(u64Str(m.cycles));
    v["ipc"] = doubleVecToJson(m.ipc);
    v["retired"] = u64VecToJson(m.retired);
    v["served_reads"] = u64VecToJson(m.servedReads);
    v["avg_read_latency"] = doubleVecToJson(m.avgReadLatency);
    v["alpha"] = doubleVecToJson(m.alpha);
    return v;
}

RunMetrics
metricsFromJson(const Value &v, unsigned shard)
{
    RunMetrics m;
    m.cycles = parseU64Field(v.find("cycles"), shard, "cycles");
    m.ipc = doubleVecFromJson(v.find("ipc"), shard, "ipc");
    m.retired = u64VecFromJson(v.find("retired"), shard, "retired");
    m.servedReads =
        u64VecFromJson(v.find("served_reads"), shard, "served_reads");
    m.avgReadLatency = doubleVecFromJson(v.find("avg_read_latency"),
                                         shard, "avg_read_latency");
    m.alpha = doubleVecFromJson(v.find("alpha"), shard, "alpha");
    return m;
}

/** Re-throw a child-reported error as the class its kind names, so a
 *  sharded sweep fails with the same exception type an in-process one
 *  would. Unknown kinds degrade to TransientFault (retryable). */
[[noreturn]] void
rethrowChildError(const Value &err)
{
    const Value *k = err.find("kind");
    const Value *m = err.find("message");
    const std::string kind = k && k->isString() ? k->asString() : "";
    const std::string msg = m && m->isString()
                                ? m->asString()
                                : "shard child reported an error";
    using hard::ErrorKind;
    if (kind == hard::errorKindName(ErrorKind::Config))
        throw hard::ConfigError(msg);
    if (kind == hard::errorKindName(ErrorKind::Invariant))
        throw hard::InvariantViolation(msg);
    if (kind == hard::errorKindName(ErrorKind::Watchdog))
        throw hard::WatchdogTimeout(msg);
    if (kind == hard::errorKindName(ErrorKind::Leakage))
        throw hard::LeakageAlert(msg);
    throw hard::TransientFault(msg);
}

/** The child side of one shard: run `body(shard)` and stamp its
 *  result object, or the error it threw (kind + message), with the
 *  shard's token. */
std::string
shardPayload(const std::function<Value(unsigned)> &body, unsigned shard,
             const std::string &token)
{
    Value v = Value::makeObject();
    try {
        v = body(shard);
    } catch (const std::exception &e) {
        const auto *ce = dynamic_cast<const hard::CamoError *>(&e);
        v["error"] = Value::makeObject();
        v["error"]["kind"] =
            Value(ce ? hard::errorKindName(ce->kind()) : "transient");
        v["error"]["message"] = Value(std::string(e.what()));
    }
    v["token"] = Value(token);
    return v.dump();
}

/**
 * Fork one child per shard (camo::child), run `body(shard)` in it, and
 * return each shard's authenticated payload in shard order. The
 * child's payload is stamped with deriveSeed(auth_base,
 * kShardSeedStream, shard). Every child is spawned before any is
 * collected, and every child is collected and reaped before the first
 * failure is thrown, so an early bad shard never leaks processes.
 */
std::vector<Value>
collectShardFrames(unsigned shards, std::uint64_t auth_base,
                   const std::function<Value(unsigned)> &body)
{
    std::vector<child::Child> kids;
    kids.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
        const std::string token =
            u64Str(deriveSeed(auth_base, kShardSeedStream, s));
        kids.emplace_back(
            [&, s, token] {
                return child::Reply{shardPayload(body, s, token)};
            },
            kShardFrameCap);
        // A failed spawn throws; the Child destructors kill and reap
        // the shards already started.
        if (!kids.back().spawnError().empty())
            throw hard::TransientFault("shard spawn failed: " +
                                       kids.back().spawnError());
    }

    // Collect every shard before judging any of them: children are
    // independent, and each must be reaped even if an earlier one
    // failed.
    std::vector<child::Result> ends;
    ends.reserve(shards);
    for (child::Child &k : kids)
        ends.push_back(k.collect());

    std::vector<Value> out;
    out.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
        if (ends[s].ending != child::Ending::Frame) {
            if (WIFSIGNALED(ends[s].status))
                failShardFrame(
                    s, std::string("child killed by signal ") +
                           std::to_string(WTERMSIG(ends[s].status)));
            failShardFrame(s, "no result frame (child crashed or "
                              "truncated its output)");
        }
        std::optional<Value> v = obs::json::tryParse(ends[s].payload);
        if (!v || !v->isObject())
            failShardFrame(s, "malformed result frame");
        const std::uint64_t want =
            deriveSeed(auth_base, kShardSeedStream, s);
        if (parseU64Field(v->find("token"), s, "token") != want)
            failShardFrame(s, "frame authentication failed");
        if (const Value *err = v->find("error"))
            rethrowChildError(*err);
        out.push_back(std::move(*v));
    }
    return out;
}

} // namespace

std::vector<RunMetrics>
runConfigsSharded(const std::vector<SimJob> &batch, unsigned jobs,
                  unsigned procs)
{
    const std::size_t n = batch.size();
    if (procs <= 1 || n <= 1)
        return runConfigsParallel(batch, jobs);
    const unsigned shards =
        static_cast<unsigned>(std::min<std::size_t>(procs, n));

    // Shard s owns batch indices s, s + shards, ... Each child runs
    // its subset with the ordinary in-process engine; a job's seeds
    // travel inside the job, so the split never perturbs results.
    const std::uint64_t auth = batch.front().cfg.seed;
    const std::vector<Value> frames =
        collectShardFrames(shards, auth, [&](unsigned s) {
            std::vector<SimJob> mine;
            mine.reserve((n - s + shards - 1) / shards);
            for (std::size_t i = s; i < n; i += shards)
                mine.push_back(batch[i]);
            const std::vector<RunMetrics> res =
                runConfigsParallel(mine, jobs);
            Value v = Value::makeObject();
            Value results = Value::makeArray();
            for (const RunMetrics &m : res)
                results.push(metricsToJson(m));
            v["results"] = std::move(results);
            return v;
        });

    std::vector<RunMetrics> out(n);
    for (unsigned s = 0; s < shards; ++s) {
        const Value *rs = frames[s].find("results");
        if (rs == nullptr || !rs->isArray())
            failShardFrame(s, "frame missing results");
        std::size_t k = 0;
        for (std::size_t i = s; i < n; i += shards) {
            if (k >= rs->asArray().size())
                failShardFrame(s, "short results array");
            out[i] = metricsFromJson(rs->asArray()[k++], s);
        }
        if (k != rs->asArray().size())
            failShardFrame(s, "oversized results array");
    }
    return out;
}

std::vector<double>
evaluateGenerationSharded(const SystemPlan &plan,
                          const std::vector<ga::Genome> &children,
                          std::uint64_t generation,
                          const std::vector<double> &alone_rate,
                          Cycle epoch_cycles, unsigned jobs,
                          unsigned procs)
{
    const std::size_t n = children.size();
    if (procs <= 1 || n <= 1)
        return evaluateGenerationParallel(plan, children, generation,
                                          alone_rate, epoch_cycles,
                                          jobs);
    camo_assert(alone_rate.size() == plan.config().numCores,
                "need one alone rate per core");
    camo_assert(epoch_cycles > 0, "epoch must be positive");
    const unsigned shards =
        static_cast<unsigned>(std::min<std::size_t>(procs, n));

    // Child fitness seeds are deriveSeed(seed, generation + 1, child)
    // with the child's *global* index, so the shard layout is
    // invisible to the values.
    const std::uint64_t auth = plan.config().seed;
    const std::vector<Value> frames =
        collectShardFrames(shards, auth, [&](unsigned s) {
            std::vector<std::size_t> mine;
            mine.reserve((n - s + shards - 1) / shards);
            for (std::size_t i = s; i < n; i += shards)
                mine.push_back(i);
            const std::vector<double> fit = parallelMap(
                mine.size(), jobs, [&](std::size_t k) {
                    return evaluateGaChild(plan, children[mine[k]],
                                           generation, mine[k],
                                           alone_rate, epoch_cycles);
                });
            Value v = Value::makeObject();
            v["fitness"] = doubleVecToJson(fit);
            return v;
        });

    std::vector<double> out(n);
    for (unsigned s = 0; s < shards; ++s) {
        const std::vector<double> fit = doubleVecFromJson(
            frames[s].find("fitness"), s, "fitness");
        std::size_t k = 0;
        for (std::size_t i = s; i < n; i += shards) {
            if (k >= fit.size())
                failShardFrame(s, "short fitness array");
            out[i] = fit[k++];
        }
        if (k != fit.size())
            failShardFrame(s, "oversized fitness array");
    }
    return out;
}

} // namespace camo::sim
