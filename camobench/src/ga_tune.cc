/**
 * @file
 * ga-tune: the offline GA (runOfflineGa) tuning BDC bins on two paper
 * mixes with 20k-cycle epochs, each generation fanned over two forked
 * shards of one thread. Hundreds of short fresh Systems per tuning
 * run, so plan instantiation, warm-up, MISE scoring and the shard
 * fork/frame path carry a large share of the time.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/ga/genetic.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"
#include "src/sim/shard.h"

namespace camobench {

namespace {

using camo::Cycle;

constexpr unsigned kShardProcs = 2;
constexpr unsigned kThreadsPerShard = 1;
const char *const kAdversaries[] = {"mcf", "libqt"};

struct GaSetup
{
    Cycle epoch = 20000;
    camo::ga::GaConfig ga;
    std::vector<camo::sim::SimJob> mixes; ///< cfg + workloads per mix
};

GaSetup
makeSetup(const Options &opt)
{
    GaSetup s;
    s.epoch = opt.tiny ? 4000 : 20000;
    s.ga.populationSize = opt.tiny ? 4 : 12;
    s.ga.generations = opt.tiny ? 2 : 4;
    for (std::size_t m = 0; m < std::size(kAdversaries); ++m) {
        camo::sim::SimJob job;
        job.cfg = camo::sim::paperConfig();
        job.cfg.mitigation = camo::sim::Mitigation::BDC;
        job.cfg.seed = camo::sim::deriveSeed(opt.seed, 0, m);
        job.workloads = camo::sim::adversaryMix(kAdversaries[m], "astar");
        s.mixes.push_back(std::move(job));
    }
    return s;
}

std::string
doublesBytes(const std::vector<double> &v)
{
    std::string out;
    char buf[40];
    for (const double d : v) {
        std::snprintf(buf, sizeof buf, "%a,", d);
        out += buf;
    }
    return out;
}

std::string
gaBytes(const camo::sim::OnlineGaResult &g)
{
    return doublesBytes({g.bestFitness}) + "|" +
           doublesBytes(g.generationBest);
}

/**
 * Candidates 0 and 1 as runOfflineGa seeds them (src/sim/runner.cc
 * keeps its seeding private): a half-budget uniform spread and a
 * front-loaded full-budget ramp per bin segment.
 */
void
seedBaselines(camo::ga::GeneticOptimizer &opt, std::size_t genome_len,
              std::size_t bins)
{
    const camo::ga::GaConfig &gc = opt.config();
    const auto per_bin = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, gc.maxTotalCredits / (2 * bins)));
    opt.seedCandidate(0, camo::ga::Genome(genome_len, per_bin));
    camo::ga::Genome ramp(genome_len, 0);
    for (std::size_t seg = 0; seg < genome_len / bins; ++seg) {
        std::uint32_t remaining = gc.maxTotalCredits;
        for (std::size_t i = 0; i < bins && remaining > 0; ++i) {
            const auto c = std::min(
                gc.maxGeneValue, std::max<std::uint32_t>(1, remaining / 2));
            ramp[seg * bins + i] = c;
            remaining -= c;
        }
    }
    if (gc.populationSize > 1)
        opt.seedCandidate(1, std::move(ramp));
}

/** One generation's inputs: the first population runOfflineGa
 *  evaluates (same optimizer seed, genome layout and baseline
 *  candidates) and fixed stand-in alone rates (the identity and
 *  overhead checks need equal inputs, not measured ones). */
struct Generation
{
    std::vector<camo::ga::Genome> children;
    std::vector<double> aloneRate;
};

Generation
firstGeneration(const GaSetup &s, const camo::sim::SimJob &mix)
{
    camo::ga::GaConfig seg = s.ga;
    const std::size_t bins = mix.cfg.reqBins.numBins();
    seg.budgetSegmentLen = bins;
    const std::size_t genome_len = mix.cfg.numCores * 2 * bins;
    camo::ga::GeneticOptimizer opt(seg, genome_len, mix.cfg.seed + 17);
    seedBaselines(opt, genome_len, bins);
    Generation g;
    g.children = opt.population();
    for (std::uint32_t c = 0; c < mix.cfg.numCores; ++c)
        g.aloneRate.push_back(0.002 * (c + 1));
    return g;
}

} // namespace

void
runGaTune(const Options &opt, Report &r, SpanLog &spans)
{
    // Set-up: compile and instantiate both mixes' plans; timed up
    // front and again before every tuning run (outside its timing).
    HostSpeed host;
    std::vector<double> setups;
    const auto setUp = [&] {
        const double c0 = cpuS();
        GaSetup s = makeSetup(opt);
        for (const camo::sim::SimJob &mix : s.mixes)
            buildSystem(mix, spans, 0, 0);
        setups.push_back(cpuS() - c0);
        return s;
    };
    const GaSetup setup = setUp();

    // ----- correctness gate: sharded fitness == in-process jobs=1 ----
    SimCounts digest;
    for (const camo::sim::SimJob &mix : setup.mixes) {
        const camo::sim::SystemPlan plan(mix.cfg, mix.workloads);
        const Generation g = firstGeneration(setup, mix);
        const auto serial = camo::sim::evaluateGenerationParallel(
            plan, g.children, 0, g.aloneRate, setup.epoch, 1);
        const auto sharded = camo::sim::evaluateGenerationSharded(
            plan, g.children, 0, g.aloneRate, setup.epoch,
            kThreadsPerShard, kShardProcs);
        r.attempt(2 * g.children.size());
        digest.addBytes(doublesBytes(serial));
        if (doublesBytes(serial) != doublesBytes(sharded))
            r.fail("ga-tune: sharded fitness differs from in-process "
                   "jobs=1 on " + mix.workloads[0]);
    }

    // ----- timed closed loop: one op = a tuning run per mix ---------
    const double evals_per_op = static_cast<double>(
        setup.mixes.size() * setup.ga.populationSize *
        setup.ga.generations);
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<std::string> first;
    std::vector<camo::sim::OnlineGaResult> tuned;
    double slowdown = 0;
    const double start = nowS();
    for (std::size_t op = 0; op == 0 || nowS() - start < opt.seconds;
         ++op) {
        setUp();
        host.sample();
        const double t0 = nowS();
        const double c0 = cpuS();
        for (std::size_t m = 0; m < setup.mixes.size(); ++m) {
            const camo::sim::SimJob &mix = setup.mixes[m];
            r.attempt(setup.ga.populationSize * setup.ga.generations);
            camo::sim::OnlineGaResult res;
            {
                SpanLog::Scope sc(spans, "ga.offline", 0, op * 2 + m + 1);
                res = camo::sim::runOfflineGa(mix.cfg, mix.workloads,
                                              setup.ga, setup.epoch,
                                              kThreadsPerShard,
                                              kShardProcs);
            }
            if (op == 0) {
                first.push_back(gaBytes(res));
                digest.addBytes(first.back());
                tuned.push_back(res);
                slowdown += -res.bestFitness /
                            static_cast<double>(setup.mixes.size());
            } else if (gaBytes(res) != first[m]) {
                r.fail("ga-tune: tuning run " + std::to_string(op) +
                       " differs from the first on " + mix.workloads[0]);
            }
        }
        walls.push_back(nowS() - t0);
        cpus.push_back(cpuS() - c0);
    }

    // Untimed: one epoch of each mix under its tuned bins, whose
    // stats feed the digest and the simulated counts.
    SpanLog quiet(false);
    for (std::size_t m = 0; m < setup.mixes.size(); ++m) {
        camo::sim::SimJob job = setup.mixes[m];
        job.cfg.reqBinsPerCore = tuned[m].reqBinsPerCore;
        job.cfg.respBinsPerCore = tuned[m].respBinsPerCore;
        job.cycles = setup.epoch;
        job.warmup = 0;
        digest.add(runSim(job, quiet, 0, 0, nullptr).summary);
    }

    reportTimes(r, host, median(setups), median(cpus));
    std::vector<double> rates;
    for (const double w : walls)
        rates.push_back(evals_per_op / w);
    r.info("op_wall_ms", median(walls) * 1e3, "ms");
    r.e2e("shaping_slowdown", slowdown, "x");
    r.info("ga_evals_per_s", median(rates), "1/s");
    r.info("sim_cycles_per_s",
           median(rates) * static_cast<double>(setup.epoch), "1/s");
    r.info("shaping_slowdown", slowdown, "x");
    r.info("tuning_runs", static_cast<double>(walls.size()), "count");
    r.info("sim.digest_sims", static_cast<double>(digest.sims), "count");
    r.note("sim.stats_digest", hex64(digest.digest));

    if (opt.trace) {
        digest.report(r);
        r.layer("ga.ms_per_eval", median(walls) * 1e3 / evals_per_op, "ms");
        // Shard overhead: the same generation sharded (2 procs x 1
        // thread) against in-process on 2 threads.
        const camo::sim::SimJob &mix = setup.mixes[0];
        const camo::sim::SystemPlan plan(mix.cfg, mix.workloads);
        const Generation g = firstGeneration(setup, mix);
        std::vector<double> overhead;
        for (int rep = 0; rep < 5; ++rep) {
            double t0 = nowS();
            {
                SpanLog::Scope sc(spans, "sim.shard.generation", 0, 0);
                camo::sim::evaluateGenerationSharded(
                    plan, g.children, 0, g.aloneRate, setup.epoch,
                    kThreadsPerShard, kShardProcs);
            }
            const double sharded = nowS() - t0;
            t0 = nowS();
            {
                SpanLog::Scope sc(spans, "sim.parallel.generation", 0, 0);
                camo::sim::evaluateGenerationParallel(
                    plan, g.children, 0, g.aloneRate, setup.epoch,
                    kShardProcs * kThreadsPerShard);
            }
            overhead.push_back((sharded - (nowS() - t0)) * 1e3);
            r.attempt(2 * g.children.size());
        }
        r.layer("sim.shard.overhead_ms", median(overhead), "ms");
        // Tracing adds one span per tuning run: tuning runs of the
        // first mix, untraced and traced in turn, median difference.
        std::vector<double> plain, with_spans;
        const auto tune = [&] {
            r.attempt(setup.ga.populationSize * setup.ga.generations);
            if (gaBytes(camo::sim::runOfflineGa(
                    mix.cfg, mix.workloads, setup.ga, setup.epoch,
                    kThreadsPerShard, kShardProcs)) != first[0])
                r.fail("ga-tune: overhead tuning run differs from the "
                       "first on " + mix.workloads[0]);
        };
        for (int rep = 0; rep < 3; ++rep) {
            double t0 = nowS();
            tune();
            plain.push_back(nowS() - t0);
            t0 = nowS();
            {
                SpanLog::Scope sc(spans, "ga.offline", 0, 0);
                tune();
            }
            with_spans.push_back(nowS() - t0);
        }
        r.layer("trace.overhead_s", median(with_spans) - median(plain), "s");
    }
}

} // namespace camobench
