#include "bench.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "src/sim/plan.h"

namespace camobench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.size() < 11)
        return t;
    std::sort(v.begin(), v.end());
    // The value at sorted index n-11 has exactly ten samples above it.
    const std::size_t idx = v.size() - 11;
    t.value = v[idx];
    t.percentile = 100.0 * static_cast<double>(idx + 1) /
                   static_cast<double>(v.size());
    return t;
}

double
peakRssMb(const std::string &pid)
{
    // VmHWM, not getrusage: ru_maxrss survives execve, so it would
    // report the launching interpreter's peak.
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

double
cpuS()
{
    timespec self{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &self);
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    const timeval &u = children.ru_utime;
    const timeval &s = children.ru_stime;
    return static_cast<double>(self.tv_sec + u.tv_sec + s.tv_sec) +
           1e-9 * static_cast<double>(self.tv_nsec) +
           1e-6 * static_cast<double>(u.tv_usec + s.tv_usec);
}

double
procCpuS(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name, from field 3
    // (state): utime, stime, cutime and cstime are fields 14 to 17.
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos)
        return 0;
    std::istringstream fields(stat.substr(paren + 1));
    std::string f;
    double ticks = 0;
    for (int field = 3; field <= 17 && fields >> f; ++field) {
        if (field >= 14)
            ticks += std::strtod(f.c_str(), nullptr);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
procThreadsCpuS(const std::string &pid)
{
    double ns = 0;
    std::error_code ec;
    for (const auto &task : std::filesystem::directory_iterator(
             "/proc/" + pid + "/task", ec)) {
        std::ifstream in(task.path() / "schedstat");
        double run_ns = 0;
        if (in >> run_ns)
            ns += run_ns;
    }
    return ns * 1e-9;
}

void
HostSpeed::sample()
{
    // A random cycle through 256 KiB, which the second-level cache and
    // TLB hold whatever pages back it, and integer mixing: the sample
    // follows the core's clock and cache latency.
    constexpr std::uint32_t kSlots = 1u << 16;
    constexpr int kSteps = 300000;
    static const std::vector<std::uint32_t> next = [] {
        std::vector<std::uint32_t> order(kSlots);
        std::iota(order.begin(), order.end(), 0u);
        std::shuffle(order.begin(), order.end(), std::mt19937(12345));
        std::vector<std::uint32_t> n(kSlots);
        for (std::uint32_t i = 0; i < kSlots; ++i)
            n[order[i]] = order[(i + 1) % kSlots];
        return n;
    }();
    static std::atomic<std::uint64_t> sink{0};
    const auto threadCpuS = [] {
        timespec t{};
        ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
        return static_cast<double>(t.tv_sec) +
               1e-9 * static_cast<double>(t.tv_nsec);
    };
    // Bring the table back into cache first: the sample should time
    // the host, not what ran on it since the last one.
    std::uint64_t mix =
        std::accumulate(next.begin(), next.end(), std::uint64_t{1});
    const double t0 = threadCpuS();
    std::uint32_t at = 0;
    for (int i = 0; i < kSteps; ++i) {
        at = next[at];
        mix = mix * 6364136223846793005ULL + at;
        for (int k = 0; k < 8; ++k) {
            mix ^= mix >> 29;
            mix *= 0xbf58476d1ce4e5b9ULL;
        }
    }
    samples_.push_back(threadCpuS() - t0);
    sink.fetch_add(mix, std::memory_order_relaxed);
}

void
reportTimes(Report &r, const HostSpeed &host, double setup_s,
            double op_cpu_s)
{
    r.e2e("setup_s", setup_s * host.scale(), "s");
    r.e2e("op_cpu_ms", op_cpu_s * 1e3 * host.scale(), "ms");
    r.info("setup_s.raw", setup_s, "s");
    r.info("op_cpu_ms.raw", op_cpu_s * 1e3, "ms");
    r.info("host.ref_ms", host.refS() * 1e3, "ms");
}

void
Report::fail(const std::string &why)
{
    ++failed_;
    incorrect_ = true;
    std::fprintf(stderr, "camobench: MISMATCH: %s\n", why.c_str());
}

void
Report::failOp(const std::string &why)
{
    ++failed_;
    std::fprintf(stderr, "camobench: FAILED: %s\n", why.c_str());
}

// ----- spans ----------------------------------------------------------

std::uint64_t
SpanLog::begin(const std::string &name, std::uint64_t parent,
               std::uint64_t trace_id)
{
    if (!enabled_)
        return 0;
    const double t = nowS();
    std::lock_guard<std::mutex> lock(m_);
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.traceId = trace_id;
    s.startS = t;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanLog::end(std::uint64_t id)
{
    if (!enabled_ || id == 0)
        return;
    const double t = nowS();
    std::lock_guard<std::mutex> lock(m_);
    spans_[id - 1].endS = t;
}

std::vector<double>
SpanLog::durationsMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(m_);
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name && s.endS > 0)
            out.push_back((s.endS - s.startS) * 1e3);
    }
    return out;
}

double
SpanLog::medianMs(const std::string &name) const
{
    return median(durationsMs(name));
}

void
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    if (spans_.empty())
        return;
    const double t0 = spans_.front().startS;
    std::ofstream os(path);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[512];
        std::snprintf(
            buf, sizeof buf,
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%" PRIu64
            ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
            ",\"parent\":%" PRIu64 ",\"trace_id\":%" PRIu64 "}}%s\n",
            s.name.c_str(), s.traceId, (s.startS - t0) * 1e6,
            (std::max(s.endS, s.startS) - s.startS) * 1e6, s.id,
            s.parent, s.traceId, i + 1 < spans_.size() ? "," : "");
        os << buf;
    }
    os << "]\n";
}

// ----- profiler grouping ---------------------------------------------

namespace {

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

} // namespace

void
LayerTimes::add(const camo::obs::Profiler &prof, double sim_cycles)
{
    using camo::obs::Profiler;
    cycles += sim_cycles;
    runNs += static_cast<double>(prof.totalNs());
    for (const Profiler::NodeId phase : prof.node(prof.root()).children) {
        const Profiler::Node &ph = prof.node(phase);
        for (const Profiler::NodeId leaf : ph.children) {
            const Profiler::Node &n = prof.node(leaf);
            const auto ns = static_cast<double>(n.ns);
            if (ph.name == "tick")
                dispatches += static_cast<double>(n.calls);
            namedNs += ns;
            if (startsWith(n.name, "core"))
                coreNs += ns;
            else if (startsWith(n.name, "noc.") ||
                     n.name == "station.reqlink" ||
                     n.name == "station.resplink")
                nocNs += ns;
            else if (startsWith(n.name, "shaper.") ||
                     startsWith(n.name, "station.reqpipe") ||
                     startsWith(n.name, "station.resppipe"))
                shaperNs += ns;
            else if (n.name == "mem" || n.name == "station.memroute")
                memNs += ns;
        }
    }
}

void
LayerTimes::add(const LayerTimes &o)
{
    cycles += o.cycles;
    runNs += o.runNs;
    dispatches += o.dispatches;
    coreNs += o.coreNs;
    nocNs += o.nocNs;
    shaperNs += o.shaperNs;
    memNs += o.memNs;
    namedNs += o.namedNs;
}

void
LayerTimes::report(Report &r) const
{
    const auto perCycle = [this](double ns) {
        return cycles > 0 ? ns / cycles : 0.0;
    };
    r.layer("sim.kernel.run_ns_per_cycle", perCycle(runNs), "ns");
    r.layer("sim.kernel.dispatch_per_cycle", perCycle(dispatches),
            "count");
    r.layer("sim.kernel.self_share",
            runNs > 0 ? std::max(0.0, runNs - namedNs) / runNs : 0.0,
            "ratio");
    r.layer("core.self_ns_per_cycle", perCycle(coreNs), "ns");
    r.layer("noc.self_ns_per_cycle", perCycle(nocNs), "ns");
    r.layer("camouflage.self_ns_per_cycle", perCycle(shaperNs), "ns");
    r.layer("mem.self_ns_per_cycle", perCycle(memNs), "ns");
}

// ----- simulated statistics ------------------------------------------

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** Sum every numeric leaf of `v` whose dotted path ends with `suffix`
 *  (paths are relative to the summary's "stats" object). */
void
sumSuffix(const camo::obs::json::Value &v, const std::string &path,
          const std::string &suffix, double &out)
{
    if (v.isObject()) {
        for (const auto &[k, child] : v.asObject())
            sumSuffix(child, path.empty() ? k : path + "." + k, suffix,
                      out);
    } else if (v.isNumber() && path.size() >= suffix.size() &&
               path.compare(path.size() - suffix.size(), suffix.size(),
                            suffix) == 0) {
        out += v.asNumber();
    }
}

} // namespace

void
SimCounts::addBytes(const std::string &bytes)
{
    for (const unsigned char c : bytes) {
        digest ^= c;
        digest *= kFnvPrime;
    }
}

void
SimCounts::add(const std::string &summary_text)
{
    ++sims;
    addBytes(summary_text);
    const auto doc = camo::obs::json::tryParse(summary_text);
    const camo::obs::json::Value *stats = doc ? doc->find("stats") : nullptr;
    if (!stats)
        return;
    const auto sum = [&](const char *suffix, double &out) {
        sumSuffix(*stats, "", suffix, out);
    };
    sum("counters.stall.memory", stallMemoryCycles);
    sum("cache.counters.llc.misses", llcMisses);
    sum("cache.counters.mshr.blocked", mshrBlocked);
    if (const auto *noc = stats->find("noc"))
        if (const auto *req = noc->find("req"))
            sumSuffix(*req, "", "counters.granted", nocReqGranted);
    sum("counters.released.real", releasedReal);
    sum("counters.released.fake", releasedFake);
    sum("counters.stalled.cycles", shaperStalledCycles);
    sum("counters.reads.served", readsServed);
    sum("scalars.queue.latency.dram.sum", queueLatencySum);
    sum("scalars.queue.latency.dram.count", queueLatencyCount);
    for (const char *cmd : {"ACT", "PRE", "RD", "WR", "REF", "RDA", "WRA"})
        sum((std::string("dram.counters.cmd.") + cmd).c_str(), dramCmds);
    sum("dram.counters.cmd.RD", dramColumnCmds);
    sum("dram.counters.cmd.WR", dramColumnCmds);
    sum("dram.counters.cmd.ACT", dramActs);
}

void
SimCounts::report(Report &r) const
{
    r.layer("core.stall_memory_cycles", stallMemoryCycles, "cycles");
    r.layer("cache.llc_misses", llcMisses, "count");
    r.layer("cache.mshr_blocked", mshrBlocked, "cycles");
    r.layer("noc.req_granted", nocReqGranted, "count");
    const double released = releasedReal + releasedFake;
    r.layer("camouflage.real_ratio",
            released > 0 ? releasedReal / released : 0.0, "ratio");
    r.layer("camouflage.stalled_cycles", shaperStalledCycles, "cycles");
    r.layer("mem.reads_served", readsServed, "count");
    r.layer("mem.queue_latency_mean_cycles",
            queueLatencyCount > 0 ? queueLatencySum / queueLatencyCount
                                  : 0.0,
            "cycles");
    r.layer("dram.cmds", dramCmds, "count");
    r.layer("dram.row_hit_ratio",
            dramColumnCmds > 0
                ? std::max(0.0, dramColumnCmds - dramActs) / dramColumnCmds
                : 0.0,
            "ratio");
}

// ----- simulation helpers --------------------------------------------

namespace {

void
appendHexDoubles(std::string &out, const std::vector<double> &v)
{
    char buf[40];
    for (const double d : v) {
        std::snprintf(buf, sizeof buf, "%a,", d);
        out += buf;
    }
    out += ';';
}

template <typename T>
void
appendInts(std::string &out, const std::vector<T> &v)
{
    for (const T x : v)
        out += std::to_string(x) + ",";
    out += ';';
}

} // namespace

std::string
metricsBytes(const camo::sim::RunMetrics &m)
{
    std::string out = std::to_string(m.cycles) + ";";
    appendHexDoubles(out, m.ipc);
    appendInts(out, m.retired);
    appendInts(out, m.servedReads);
    appendHexDoubles(out, m.avgReadLatency);
    appendHexDoubles(out, m.alpha);
    return out;
}

std::unique_ptr<camo::sim::System>
buildSystem(const camo::sim::SimJob &job, SpanLog &spans,
            std::uint64_t parent, std::uint64_t trace_id)
{
    std::unique_ptr<camo::sim::SystemPlan> plan;
    {
        SpanLog::Scope s(spans, "sim.plan.compile", parent, trace_id);
        plan = std::make_unique<camo::sim::SystemPlan>(job.cfg,
                                                       job.workloads);
    }
    SpanLog::Scope s(spans, "sim.plan.instantiate", parent, trace_id);
    return plan->instantiate();
}

SimRun
runSim(const camo::sim::SimJob &job, SpanLog &spans, std::uint64_t parent,
       std::uint64_t trace_id, LayerTimes *layers)
{
    SimRun out;
    out.system = buildSystem(job, spans, parent, trace_id);
    camo::obs::Profiler prof;
    if (layers)
        out.system->setProfiler(&prof);
    {
        SpanLog::Scope s(spans, "sim.run", parent, trace_id);
        out.metrics =
            camo::sim::runAndMeasure(*out.system, job.cycles, job.warmup);
    }
    out.system->setProfiler(nullptr);
    if (layers)
        layers->add(prof, static_cast<double>(job.cycles + job.warmup));
    SpanLog::Scope s(spans, "obs.summary", parent, trace_id);
    // Byte for byte what camosim --stats-json and camosimd write.
    out.summary =
        camo::sim::summaryJson(*out.system, job.workloads, false).dump(2) +
        "\n";
    return out;
}

BatchRun
runOwnBatch(const std::vector<camo::sim::SimJob> &batch,
            unsigned workers, SpanLog &spans, bool profile)
{
    BatchRun out;
    out.metrics.resize(batch.size());
    out.summaries.resize(batch.size());
    std::vector<LayerTimes> layers(batch.size());
    std::vector<double> seconds(batch.size());
    static std::atomic<std::uint64_t> next_trace{1};
    camo::sim::WorkerPool pool(workers);
    pool.forEachIndex(batch.size(), [&](std::size_t i) {
        const std::uint64_t trace_id = next_trace++;
        const double t0 = nowS();
        SpanLog::Scope root(spans, "sim.job", 0, trace_id);
        SimRun run = runSim(batch[i], spans, root.id(), trace_id,
                            profile ? &layers[i] : nullptr);
        out.metrics[i] = std::move(run.metrics);
        out.summaries[i] = std::move(run.summary);
        seconds[i] = nowS() - t0;
    });
    for (std::size_t i = 0; i < batch.size(); ++i) {
        out.layers.add(layers[i]);
        out.jobSeconds += seconds[i];
    }
    return out;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

void
reportSpanLayers(const SpanLog &spans, Report &r)
{
    r.layer("sim.plan.compile_ms", spans.medianMs("sim.plan.compile"),
            "ms");
    r.layer("sim.plan.instantiate_ms",
            spans.medianMs("sim.plan.instantiate"), "ms");
    r.layer("obs.summary_ms", spans.medianMs("obs.summary"), "ms");
}

} // namespace camobench
