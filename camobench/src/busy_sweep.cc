/**
 * @file
 * busy-sweep: the paper's Table II mixes under every main mitigation,
 * closed loop through runConfigsParallel at two worker threads. DRAM
 * is saturated, so the per-cycle component paths do nearly all the
 * work.
 */

#include <iterator>
#include <string>
#include <vector>

#include "bench.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"
#include "src/sim/presets.h"
#include "src/sim/runner.h"
#include "src/sim/shard.h"

namespace camobench {

namespace {

using camo::sim::Mitigation;

constexpr unsigned kWorkers = 2;
const char *const kAdversaries[] = {"mcf", "libqt", "bzip", "apache"};
constexpr Mitigation kMitigations[] = {Mitigation::None, Mitigation::CS,
                                       Mitigation::ReqC, Mitigation::BDC,
                                       Mitigation::TP};
constexpr std::size_t kNumMitigations = std::size(kMitigations);
constexpr std::size_t kBdc = 3;
static_assert(kMitigations[0] == Mitigation::None &&
              kMitigations[kBdc] == Mitigation::BDC);

/** Job i runs mix i / kNumMitigations under mitigation
 *  i % kNumMitigations; every mitigation of one mix shares its seed
 *  so slowdowns compare like with like. */
std::vector<camo::sim::SimJob>
makeBatch(const Options &opt)
{
    std::vector<camo::sim::SimJob> batch;
    for (std::size_t m = 0; m < std::size(kAdversaries); ++m) {
        for (const Mitigation mit : kMitigations) {
            camo::sim::SimJob job;
            job.cfg = camo::sim::paperConfig();
            job.cfg.mitigation = mit;
            job.cfg.seed = camo::sim::deriveSeed(opt.seed, 0, m);
            job.workloads = camo::sim::adversaryMix(kAdversaries[m], "astar");
            job.warmup = opt.tiny ? 2000 : 10000;
            job.cycles = opt.tiny ? 8000 : 150000;
            batch.push_back(std::move(job));
        }
    }
    return batch;
}

/** Mean over mixes of the system slowdown, BDC vs None: the inverse
 *  of the harmonic mean of per-core speedups. */
double
bdcSlowdown(const std::vector<camo::sim::RunMetrics> &res)
{
    double sum = 0;
    const std::size_t mixes = res.size() / kNumMitigations;
    for (std::size_t m = 0; m < mixes; ++m)
        sum += 1.0 / camo::sim::harmonicSpeedupVs(
                         res[m * kNumMitigations],
                         res[m * kNumMitigations + kBdc]);
    return sum / static_cast<double>(mixes);
}

} // namespace

void
runBusySweep(const Options &opt, Report &r, SpanLog &spans)
{
    // Set-up: build the batch, then compile and instantiate one plan
    // per sim. Timed up front and again before every batch (outside
    // its timing), so the set-up samples see the same host as the
    // batches do.
    HostSpeed host;
    std::vector<double> setups;
    const auto setUp = [&] {
        const double c0 = cpuS();
        std::vector<camo::sim::SimJob> b = makeBatch(opt);
        for (const camo::sim::SimJob &job : b)
            buildSystem(job, spans, 0, 0);
        setups.push_back(cpuS() - c0);
        return b;
    };
    const std::vector<camo::sim::SimJob> batch = setUp();

    // ----- correctness gate (untimed) --------------------------------
    const auto serial = camo::sim::runConfigsParallel(batch, 1);
    const auto threaded = camo::sim::runConfigsParallel(batch, kWorkers);
    const auto sharded = camo::sim::runConfigsSharded(batch, 1, kWorkers);
    r.attempt(3 * batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (metricsBytes(serial[i]) != metricsBytes(threaded[i]) ||
            metricsBytes(sharded[i]) != metricsBytes(threaded[i]))
            r.fail("busy-sweep job " + std::to_string(i) +
                   ": jobs=1, jobs=2 and procs=2 RunMetrics differ");
    }
    SimCounts counts;
    const BatchRun own = runOwnBatch(batch, kWorkers, spans, false);
    r.attempt(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        counts.add(own.summaries[i]);
        if (metricsBytes(own.metrics[i]) != metricsBytes(threaded[i]))
            r.fail("busy-sweep job " + std::to_string(i) +
                   ": plan-built run differs from runConfigsParallel");
    }
    // One sim per mitigation against the per-cycle reference loop.
    for (std::size_t k = 0; k < kNumMitigations; ++k) {
        camo::sim::SimJob job = batch[k];
        job.cfg.fastForward = false;
        r.attempt();
        if (runSim(job, spans, 0, 0, nullptr).summary != own.summaries[k])
            r.fail(std::string("busy-sweep ") +
                   camo::sim::mitigationName(job.cfg.mitigation) +
                   ": event kernel differs from the fastForward=false "
                   "oracle");
    }
    if (opt.trace)
        counts.report(r);
    r.info("sim.digest_sims", static_cast<double>(counts.sims), "count");
    r.note("sim.stats_digest", hex64(counts.digest));
    const double slowdown = bdcSlowdown(threaded);
    r.e2e("shaping_slowdown", slowdown, "x");
    r.info("shaping_slowdown", slowdown, "x");

    // ----- timed closed loop -----------------------------------------
    double batch_cycles = 0;
    for (const camo::sim::SimJob &job : batch)
        batch_cycles += static_cast<double>(job.cycles + job.warmup);
    // A traced run times the batch job by job through runSim with
    // spans and profilers, each traced batch followed by the same
    // runSim batch untraced: only the tracing differs between the two.
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> untraced_walls;
    LayerTimes layers;
    std::vector<double> utilization;
    SpanLog quiet(false);
    const auto check = [&](const std::vector<camo::sim::RunMetrics> &res) {
        r.attempt(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (metricsBytes(res[i]) != metricsBytes(threaded[i]))
                r.fail("busy-sweep job " + std::to_string(i) +
                       ": timed batch differs from the first");
        }
    };
    const double start = nowS();
    do {
        setUp();
        host.sample();
        double t0 = nowS();
        const double c0 = cpuS();
        if (opt.trace) {
            const BatchRun run = runOwnBatch(batch, kWorkers, spans, true);
            walls.push_back(nowS() - t0);
            layers.add(run.layers);
            utilization.push_back(run.jobSeconds /
                                  (walls.back() * kWorkers));
            check(run.metrics);
            t0 = nowS();
            const BatchRun plain = runOwnBatch(batch, kWorkers, quiet, false);
            untraced_walls.push_back(nowS() - t0);
            check(plain.metrics);
        } else {
            const auto res = camo::sim::runConfigsParallel(batch, kWorkers);
            walls.push_back(nowS() - t0);
            cpus.push_back(cpuS() - c0);
            check(res);
        }
    } while (nowS() - start < opt.seconds);

    reportTimes(r, host, median(setups), median(cpus));
    std::vector<double> rates;
    for (const double w : walls)
        rates.push_back(batch_cycles / w);
    r.info("op_wall_ms", median(walls) * 1e3, "ms");
    r.info("sim_cycles_per_s", median(rates), "1/s");
    r.info("batches", static_cast<double>(walls.size()), "count");

    if (opt.trace) {
        layers.report(r);
        r.layer("sim.parallel.utilization", median(utilization), "ratio");
        r.layer("trace.overhead_s", median(walls) - median(untraced_walls),
                "s");
        // leakage-verdict is not in BENCHMARK.json (its verdict times
        // drift past the bound between runs on a shared host), so the
        // layers only it exercises are traced here.
        traceVerdictLayers(opt, r, spans);
    }
}

} // namespace camobench
