/**
 * @file
 * leakage-verdict: the scenario verdict pipeline, closed loop on one
 * thread. Each verdict draws a random 32-bit key (and topology seed)
 * from the benchmark seed, rewrites the rowhammer-trr, pim-covert and
 * trace-replay topologies with it, and runs evaluateScenario open vs
 * shaped. Every verdict must keep the channel_open / shaping_effective
 * direction that bench/scenarios.cc gates; one that breaks it is a
 * failed operation.
 */

#include <cmath>
#include <map>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/scenario/scenario.h"
#include "src/security/covert_receiver.h"
#include "src/security/mutual_information.h"
#include "src/sim/topology.h"
#include "src/trace/covert.h"

namespace camobench {

namespace {

using camo::scenario::ScenarioResult;
using camo::scenario::ScenarioSpec;

/** Direction thresholds, as gated by bench/scenarios.cc. */
constexpr double kOpenBerCeiling = 0.25;
constexpr double kMiNoiseFloorBits = 0.05;
/** Stream of deriveSeed() the verdict keys come from. */
constexpr std::uint64_t kKeyStream = 0x6b6579;
/** Verdict sets whose simulated results feed the digest and the sim
 *  metrics (one key pair); the timed loop always runs them, and each
 *  of their verdicts is replayed by hand after it. */
constexpr std::size_t kFixedVerdicts = 2;

bool
covert(const ScenarioSpec &s)
{
    return s.senderCore != ScenarioSpec::kNoCore;
}

void
replaceAll(std::string &s, const std::string &from, const std::string &to)
{
    for (std::size_t pos = s.find(from); pos != std::string::npos;
         pos = s.find(from, pos + to.size()))
        s.replace(pos, from.size(), to);
}

/**
 * The registry's scenarios carrying verdict set k's key (the covert
 * senders' workload names and the decoder's reference). Sets come in
 * pairs: a random key, then its complement. A sender's work follows
 * its key's 1-bits, so each pair costs the same whatever the draw,
 * and run times vary with the host rather than with --seed.
 */
std::vector<ScenarioSpec>
keyedScenarios(const Options &opt, std::size_t k)
{
    const auto drawn = static_cast<std::uint32_t>(
        camo::sim::deriveSeed(opt.seed, kKeyStream, k / 2));
    const std::uint32_t key = k % 2 == 0 ? drawn : ~drawn;
    char key_hex[16];
    std::snprintf(key_hex, sizeof key_hex, ":%08X", key);

    std::vector<ScenarioSpec> out;
    for (ScenarioSpec s : camo::scenario::scenarios()) {
        if (covert(s)) {
            replaceAll(s.openTopologyJson, ":2AAAAAAA", key_hex);
            replaceAll(s.shapedTopologyJson, ":2AAAAAAA", key_hex);
            s.key = key;
        }
        if (opt.tiny)
            s.runCycles /= 8;
        out.push_back(std::move(s));
    }
    return out;
}

/** The direction bench/scenarios.cc gates, or "" when it holds. */
std::string
directionError(const ScenarioSpec &s, const ScenarioResult &res)
{
    if (covert(s)) {
        if (res.open.ber > kOpenBerCeiling ||
            res.open.windowMiBits < kMiNoiseFloorBits)
            return "channel not open";
        if (!(res.shaped.channelCapacityBits <
              0.5 * res.open.channelCapacityBits))
            return "shaping not effective";
        return "";
    }
    if (res.open.windowMiBits < kMiNoiseFloorBits)
        return "channel not open";
    if (!(res.shaped.windowMiBits < 0.5 * res.open.windowMiBits))
        return "shaping not effective";
    return "";
}

std::string
resultBytes(const ScenarioResult &res)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "%a %a %a %a|%a %a %a %a|%a;",
                  res.open.ber, res.open.windowMiBits,
                  res.open.throughput,
                  static_cast<double>(res.open.rfmStalls), res.shaped.ber,
                  res.shaped.windowMiBits, res.shaped.throughput,
                  static_cast<double>(res.shaped.rfmStalls), res.slowdown);
    return buf;
}

/** One topology of one scenario run by hand through the public
 *  layers, so each gets its own span; mirrors evaluateScenario. */
struct ManualRun
{
    std::vector<camo::security::LatencySample> probe;
    std::vector<camo::shaper::TrafficEvent> victim;
    double ber = 0.5;
};

/** The SimJob evaluateScenario runs for one topology. */
camo::sim::SimJob
scenarioJob(const std::string &json, camo::Cycle cycles)
{
    camo::sim::TopologyConfig topo = camo::sim::parseTopology(json);
    camo::sim::SimJob job;
    job.cfg = topo.system;
    job.cfg.recordLatencies = true; // the probe's observations
    job.cfg.recordTraffic = true;   // the victim's intrinsic events
    job.workloads = topo.workloads;
    job.cycles = cycles;
    return job;
}

/** Runs one topology; adds its summary to `counts` when given. */
ManualRun
runManual(const ScenarioSpec &s, const std::string &json, SpanLog &spans,
          std::uint64_t parent, std::uint64_t trace_id, LayerTimes *layers,
          SimCounts *counts)
{
    const SimRun run = runSim(scenarioJob(json, s.runCycles), spans, parent,
                              trace_id, layers);
    if (counts)
        counts->add(run.summary);
    ManualRun out;
    out.probe = run.system->latencyLog(s.probeCore);
    out.victim = run.system->intrinsicMonitor(s.victimCore).events();
    if (covert(s)) {
        SpanLog::Scope sc(spans, "security.decode", parent, trace_id);
        camo::security::CovertDecoderConfig dcfg;
        dcfg.windowCycles = s.pulseCycles;
        const auto decoded = camo::security::decodeCovert(
            out.probe, dcfg, s.runCycles / s.pulseCycles);
        out.ber = camo::security::bitErrorRate(
            decoded.bits, camo::trace::keyBits(s.key, s.keyLength));
    }
    return out;
}

/** A replica of one verdict through the public layers, each call
 *  under its span; returns "" when it reproduces evaluateScenario's
 *  numbers exactly. */
std::string
replicaVerdict(const ScenarioSpec &s, const ScenarioResult &res,
               SpanLog &spans, std::uint64_t trace_id, LayerTimes *layers,
               SimCounts *counts)
{
    SpanLog::Scope root(spans, "scenario.replica", 0, trace_id);
    const ManualRun open = runManual(s, s.openTopologyJson, spans,
                                     root.id(), trace_id, layers, counts);
    const ManualRun shaped = runManual(s, s.shapedTopologyJson, spans,
                                       root.id(), trace_id, layers, counts);
    double mi_open = 0;
    double mi_shaped = 0;
    {
        SpanLog::Scope sc(spans, "security.mi", root.id(), trace_id);
        mi_open = camo::security::computeWindowedCrossMi(
                      open.victim, open.probe, s.pulseCycles, 4)
                      .miBits;
    }
    {
        SpanLog::Scope sc(spans, "security.mi", root.id(), trace_id);
        mi_shaped = camo::security::computeWindowedCrossMi(
                        open.victim, shaped.probe, s.pulseCycles, 4)
                        .miBits;
    }
    if (mi_open != res.open.windowMiBits ||
        mi_shaped != res.shaped.windowMiBits || open.ber != res.open.ber ||
        shaped.ber != res.shaped.ber)
        return "plan-built replica differs from evaluateScenario";
    return "";
}

} // namespace

void
runLeakageVerdict(const Options &opt, Report &r, SpanLog &spans)
{
    // Set-up: key every topology, parse it, compile its plan
    // (trace-replay loads its traces here) and build it once. Timed
    // before every verdict (outside its timing), a few times each.
    HostSpeed host;
    std::vector<double> setups;
    const auto setUp = [&](std::size_t k) {
        for (int rep = 0; rep < 4; ++rep) {
            const double c0 = cpuS();
            for (const ScenarioSpec &s : keyedScenarios(opt, k)) {
                buildSystem(scenarioJob(s.openTopologyJson, 0), spans, 0, 0);
                buildSystem(scenarioJob(s.shapedTopologyJson, 0), spans, 0,
                            0);
            }
            setups.push_back(cpuS() - c0);
        }
    };

    struct Fixed
    {
        ScenarioSpec spec;
        ScenarioResult res;
        std::uint64_t traceId;
    };
    std::vector<Fixed> fixed;
    std::map<std::string, std::vector<double>> verdict_walls;
    std::map<std::string, std::vector<double>> verdict_cpus;
    std::vector<double> rates;
    double mi_shaped = 0, mi_open = 0, cap_shaped = 0, cap_open = 0;
    double slowdown = 0, covert_n = 0, all_n = 0;
    const double start = nowS();
    // Whole key pairs only, and another pair only when it should end
    // within --seconds: a pair takes about as long as the last one.
    const auto anotherSet = [&](std::size_t k) {
        if (k < kFixedVerdicts || k % 2 == 1)
            return true;
        const double elapsed = nowS() - start;
        return elapsed + 2.0 * elapsed / static_cast<double>(k) <=
               opt.seconds;
    };
    for (std::size_t k = 0; anotherSet(k); ++k) {
        const std::vector<ScenarioSpec> specs = keyedScenarios(opt, k);
        double set_wall = 0;
        double set_cycles = 0;
        for (const ScenarioSpec &s : specs) {
            const std::uint64_t trace_id = k * specs.size() + 1 +
                                           static_cast<std::uint64_t>(
                                               &s - specs.data());
            setUp(k);
            for (int rep = 0; rep < 3; ++rep)
                host.sample();
            r.attempt();
            const double t0 = nowS();
            const double c0 = cpuS();
            ScenarioResult res;
            {
                SpanLog::Scope sc(spans, "scenario.evaluate", 0, trace_id);
                res = camo::scenario::evaluateScenario(s);
            }
            const double wall = nowS() - t0;
            verdict_cpus[s.name].push_back(cpuS() - c0);
            verdict_walls[s.name].push_back(wall);
            set_wall += wall;
            set_cycles += 2.0 * static_cast<double>(s.runCycles);

            const std::string err = directionError(s, res);
            if (!err.empty()) {
                char key[16];
                std::snprintf(key, sizeof key, "%08X", s.key);
                r.failOp("leakage-verdict " + s.name + " verdict " +
                       std::to_string(k) + " (key " + key + "): " + err);
            }
            if (k < kFixedVerdicts) {
                fixed.push_back({s, res, trace_id});
                mi_open += res.open.windowMiBits;
                mi_shaped += res.shaped.windowMiBits;
                slowdown += res.slowdown;
                all_n += 1;
                if (covert(s)) {
                    cap_open += res.open.channelCapacityBits;
                    cap_shaped += res.shaped.channelCapacityBits;
                    covert_n += 1;
                }
            }
        }
        rates.push_back(set_cycles / set_wall);
    }

    // ----- replicas of the fixed verdicts (untimed) --------------------
    // Each must reproduce its verdict exactly; their summaries and the
    // verdicts' numbers make the digest. A traced run replays each one
    // twice, untraced and then with spans and profilers, and reports
    // the difference as the tracing overhead.
    SimCounts counts;
    LayerTimes layers;
    SpanLog quiet(false);
    double untraced = 0, traced = 0;
    for (const Fixed &f : fixed) {
        counts.addBytes(f.spec.name + resultBytes(f.res));
        double t0 = nowS();
        r.attempt();
        std::string err =
            replicaVerdict(f.spec, f.res, quiet, f.traceId, nullptr, &counts);
        untraced += nowS() - t0;
        if (opt.trace && err.empty()) {
            t0 = nowS();
            r.attempt();
            err = replicaVerdict(f.spec, f.res, spans, f.traceId, &layers,
                                 nullptr);
            traced += nowS() - t0;
        }
        if (!err.empty())
            r.fail("leakage-verdict " + f.spec.name + ": " + err);
    }

    // Scenarios differ several-fold in length, so the typical verdict
    // is the geometric mean of the per-scenario medians.
    const auto typical = [](const auto &per_scenario) {
        double log_sum = 0;
        for (const auto &[name, times] : per_scenario)
            log_sum += std::log(median(times));
        return std::exp(log_sum / static_cast<double>(per_scenario.size()));
    };
    std::size_t verdicts = 0;
    for (const auto &[name, walls] : verdict_walls)
        verdicts += walls.size();
    const double verdict_p50 = typical(verdict_walls);
    reportTimes(r, host, median(setups), typical(verdict_cpus));
    r.e2e("shaping_slowdown", slowdown / all_n, "x");
    r.info("sim_cycles_per_s", median(rates), "1/s");
    r.info("verdict_p50_s", verdict_p50, "s");
    r.info("verdicts", static_cast<double>(verdicts), "count");
    r.info("shaping_slowdown", slowdown / all_n, "x");
    r.info("leak_mi_bits", mi_shaped / all_n, "bits");
    r.info("leak_mi_bits.open", mi_open / all_n, "bits");
    r.info("covert_capacity_bits", cap_shaped / covert_n, "bits");
    r.info("covert_capacity_bits.open", cap_open / covert_n, "bits");
    r.info("sim.digest_sims", static_cast<double>(counts.sims), "count");
    r.note("sim.stats_digest", hex64(counts.digest));

    if (opt.trace) {
        layers.report(r);
        counts.report(r);
        r.layer("scenario.evaluate_ms", spans.medianMs("scenario.evaluate"),
                "ms");
        r.layer("security.mi_ms", spans.medianMs("security.mi"), "ms");
        r.layer("security.decode_ms", spans.medianMs("security.decode"),
                "ms");
        r.layer("trace.overhead_s", traced - untraced, "s");
    }
}

void
traceVerdictLayers(const Options &opt, Report &r, SpanLog &spans)
{
    const std::vector<ScenarioSpec> specs = keyedScenarios(opt, 0);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ScenarioSpec &s = specs[i];
        const std::uint64_t trace_id = 3000000 + i;
        ScenarioResult res;
        {
            SpanLog::Scope sc(spans, "scenario.evaluate", 0, trace_id);
            res = camo::scenario::evaluateScenario(s);
        }
        r.attempt();
        const std::string err =
            replicaVerdict(s, res, spans, trace_id, nullptr, nullptr);
        if (!err.empty())
            r.fail("verdict layers " + s.name + ": " + err);
    }
    r.layer("scenario.evaluate_ms", spans.medianMs("scenario.evaluate"),
            "ms");
    r.layer("security.mi_ms", spans.medianMs("security.mi"), "ms");
    r.layer("security.decode_ms", spans.medianMs("security.decode"), "ms");
}

} // namespace camobench
