/**
 * @file
 * Shared pieces of the camobench runner: options, the run report,
 * order statistics, in-memory spans, profiler grouping, and the
 * simulated-statistics digest.
 *
 * Every workload follows one shape: set up (timed several times, the
 * median is setup_s), check correctness outside the timed region,
 * then repeat its unit of work until --seconds elapse. With --trace 1
 * the same work runs with spans and obs::Profiler attached and the
 * per-layer metrics are derived from them.
 */

#ifndef CAMOBENCH_BENCH_H
#define CAMOBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/prof.h"
#include "src/sim/parallel.h"
#include "src/sim/runner.h"

namespace camobench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Smoke-test size: every workload shrunk to a fraction of a
     *  second of work. */
    bool tiny = false;
    std::string daemonBin; ///< camosimd built beside camobench
    std::string workDir;   ///< sockets and span files (inside the checkout)
    std::string benchmarkJson; ///< metric names and units
};

/** Monotonic seconds. */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile (q in [0,1]); 0 for an empty set. */
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** The highest percentile with at least ten samples beyond it. */
struct Tail
{
    double value = 0;
    double percentile = 0; ///< 0 when fewer than 11 samples
    std::size_t samples = 0;
};
Tail tailOf(std::vector<double> v);

/** Peak resident set (VmHWM) of process `pid`, MiB. */
double peakRssMb(const std::string &pid = "self");

/**
 * CPU seconds (user + system) used so far by this process, every
 * thread, and by its children once reaped. An op's CPU time is what
 * the end-to-end op metric gates: unlike wall time, it does not grow
 * while a shared host deschedules the benchmark.
 */
double cpuS();
/** The same for process `pid` from /proc/<pid>/stat (clock ticks). */
double procCpuS(const std::string &pid);
/** CPU seconds the live threads of process `pid` have run, to the
 *  nanosecond (/proc/<pid>/task/<tid>/schedstat): for a process too
 *  young for procCpuS's clock ticks. */
double procThreadsCpuS(const std::string &pid);

/**
 * The shared host's speed, which drifts by tens of percent over
 * minutes as other tenants load it: one ten-run set of busy-sweep read
 * a batch's CPU time anywhere from 1.17 to 1.49 s. A run samples a
 * fixed reference kernel (a pointer chase over 4 MiB with integer
 * mixing, timed in CPU time of the calling thread) between its timed
 * ops, and scales its gated times by kNominalRefS over the median
 * sample, so they read as on a host where the kernel takes
 * kNominalRefS. The kernel shares no code with the simulator: a change
 * to the simulator moves a scaled time by the same share as the raw
 * one.
 */
class HostSpeed
{
  public:
    /** The kernel's median on a 4-vCPU Xeon host with little load. */
    static constexpr double kNominalRefS = 0.005;

    HostSpeed() { sample(); }
    /** Run the kernel once, on the calling thread. */
    void sample();
    /** Multiply a time measured in this run by this. */
    double scale() const { return kNominalRefS / median(samples_); }
    double refS() const { return median(samples_); }

  private:
    std::vector<double> samples_;
};

/**
 * What one run reports. End-to-end metrics go to the final JSON line
 * of an untraced run, per-layer metrics to that of a traced run; the
 * workload-specific figures (the names camobench/workloads.json
 * lists) are printed on an informational line in both.
 */
class Report
{
  public:
    struct Metric
    {
        double value = 0;
        std::string unit;
    };

    void e2e(const std::string &name, double v, const std::string &unit)
    {
        e2e_[name] = {v, unit};
    }
    void layer(const std::string &name, double v,
               const std::string &unit)
    {
        layer_[name] = {v, unit};
    }
    void info(const std::string &name, double v, const std::string &unit)
    {
        info_[name] = {v, unit};
    }
    void note(const std::string &name, const std::string &text)
    {
        notes_[name] = text;
    }

    /** Count `n` attempted operations. */
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    /** An output that differs from its oracle: a failed operation,
     *  and the run's outputs are not correct. Reason to stderr. */
    void fail(const std::string &why);
    /** An operation that failed or was refused while every output
     *  stayed correct (a verdict whose direction broke, a shed job).
     *  Reason to stderr. */
    void failOp(const std::string &why);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return !incorrect_; }

    const std::map<std::string, Metric> &e2eMetrics() const
    {
        return e2e_;
    }
    const std::map<std::string, Metric> &layerMetrics() const
    {
        return layer_;
    }
    const std::map<std::string, Metric> &infoMetrics() const
    {
        return info_;
    }
    const std::map<std::string, std::string> &notes() const
    {
        return notes_;
    }

  private:
    std::map<std::string, Metric> e2e_;
    std::map<std::string, Metric> layer_;
    std::map<std::string, Metric> info_;
    std::map<std::string, std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool incorrect_ = false;
};

/** The gated times: set-up and an op's CPU time, both scaled by
 *  `host`, as setup_s and op_cpu_ms; the raw figures and the host's
 *  speed go on the info line. */
void reportTimes(Report &r, const HostSpeed &host, double setup_s,
                 double op_cpu_s);

/**
 * In-memory span log: one record per call into a layer's public
 * function, with its parent span and the id of the simulation or job
 * it belongs to. Disabled logs record nothing. Thread-safe.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 = root
        std::uint64_t traceId = 0;
        double startS = 0;
        double endS = 0;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}
    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when disabled). */
    std::uint64_t begin(const std::string &name, std::uint64_t parent,
                        std::uint64_t trace_id);
    void end(std::uint64_t id);

    /** Median duration (ms) of the spans named `name`. */
    double medianMs(const std::string &name) const;

    /** Chrome trace-event JSON (one "X" event per span). */
    void write(const std::string &path) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const std::string &name,
              std::uint64_t parent = 0, std::uint64_t trace_id = 0)
            : log_(log), id_(log.begin(name, parent, trace_id))
        {
        }
        ~Scope() { log_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        std::uint64_t id() const { return id_; }

      private:
        SpanLog &log_;
        std::uint64_t id_;
    };

  private:
    std::vector<double> durationsMs(const std::string &name) const;

    bool enabled_;
    mutable std::mutex m_;
    std::vector<Span> spans_;
};

/**
 * obs::Profiler time grouped into the simulator's layers, summed over
 * any number of profiled simulations. Leaves are matched by name
 * under both kernel phases (tick and skip).
 */
struct LayerTimes
{
    double cycles = 0;     ///< simulated cycles profiled
    double runNs = 0;      ///< root "run" time
    double dispatches = 0; ///< component calls under "tick"
    double coreNs = 0;     ///< core{i} + core{i}.cache
    double nocNs = 0;      ///< noc.* + station.reqlink/resplink
    double shaperNs = 0;   ///< shaper.* + station.reqpipe/resppipe
    double memNs = 0;      ///< mem + station.memroute
    double namedNs = 0;    ///< every component leaf

    void add(const camo::obs::Profiler &prof, double cycles);
    void add(const LayerTimes &other);
    /** Writes the sim.kernel.* and <layer>.self_ns_per_cycle
     *  per-layer metrics (0 when nothing was profiled). */
    void report(Report &r) const;
};

/**
 * Simulated statistics summed over summary documents (sim::summaryJson
 * output) and folded into a digest of their exact bytes.
 */
struct SimCounts
{
    double stallMemoryCycles = 0;
    double llcMisses = 0;
    double mshrBlocked = 0;
    double nocReqGranted = 0;
    double releasedReal = 0;
    double releasedFake = 0;
    double shaperStalledCycles = 0;
    double readsServed = 0;
    double queueLatencySum = 0;
    double queueLatencyCount = 0;
    double dramCmds = 0;
    double dramColumnCmds = 0;
    double dramActs = 0;
    std::uint64_t sims = 0;
    std::uint64_t digest = 1469598103934665603ull; ///< FNV-1a basis

    /** Fold in one simulation's summary text (as serialized). */
    void add(const std::string &summary_text);
    /** Fold arbitrary result bytes into the digest only. */
    void addBytes(const std::string &bytes);
    void report(Report &r) const;
};

/** Exact bytes of a RunMetrics (doubles as hex floats): equal bytes
 *  mean bit-identical results. */
std::string metricsBytes(const camo::sim::RunMetrics &m);

/** Compile `job`'s SystemPlan and instantiate it, each step under its
 *  sim.plan.* span. */
std::unique_ptr<camo::sim::System>
buildSystem(const camo::sim::SimJob &job, SpanLog &spans,
            std::uint64_t parent, std::uint64_t trace_id);

/** One simulation run in-process through SystemPlan. */
struct SimRun
{
    std::unique_ptr<camo::sim::System> system;
    camo::sim::RunMetrics metrics;
    /** What camosim --stats-json (and camosimd) writes for it. */
    std::string summary;
};

/**
 * Build `job`, run its warm-up and measured cycles, and serialize its
 * summary, each step under its span (sim.plan.*, sim.run,
 * obs.summary). With `layers` set, an obs::Profiler is attached for
 * the run and its time is added there.
 */
SimRun runSim(const camo::sim::SimJob &job, SpanLog &spans,
              std::uint64_t parent, std::uint64_t trace_id,
              LayerTimes *layers);

/** A batch run job by job through runSim. */
struct BatchRun
{
    std::vector<camo::sim::RunMetrics> metrics;
    std::vector<std::string> summaries;
    LayerTimes layers;      ///< filled when profiled
    double jobSeconds = 0;  ///< summed per-job wall time
};

/** runSim over `batch` on `workers` threads, each job under a
 *  sim.job span of its own trace id. */
BatchRun runOwnBatch(const std::vector<camo::sim::SimJob> &batch,
                     unsigned workers, SpanLog &spans, bool profile);

/** The per-layer metric names a workload writes from spans. */
void reportSpanLayers(const SpanLog &spans, Report &r);

/** Hex rendering of a 64-bit digest. */
std::string hex64(std::uint64_t v);

// Workload entry points (one file each).
void runBusySweep(const Options &opt, Report &r, SpanLog &spans);
void runLeakageVerdict(const Options &opt, Report &r, SpanLog &spans);
/** One verdict of each scenario (the first key set), replayed through
 *  the public layers under spans: the scenario.evaluate_ms and
 *  security.* layer metrics, for a traced run of a workload that does
 *  not evaluate verdicts itself. */
void traceVerdictLayers(const Options &opt, Report &r, SpanLog &spans);
void runGaTune(const Options &opt, Report &r, SpanLog &spans);
void runDaemonOpenLoop(const Options &opt, Report &r, SpanLog &spans);

} // namespace camobench

#endif // CAMOBENCH_BENCH_H
