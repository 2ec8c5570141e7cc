/**
 * @file
 * daemon-openloop: camosimd --workers=2 under an open loop. One client
 * process holds two connections: one submits jobs at seeded Poisson
 * arrival times, the other pipelines `result` waits and timestamps
 * each terminal answer. Jobs are short DRAM-sparse topologies (probe
 * receivers, low-intensity tenants open and under sparse shaped
 * bins); a fixed share repeats a small hot set to exercise the LRU
 * cache and single-flight. Each job is timed from its scheduled send
 * time, so a stalled generator or daemon shows as latency.
 *
 * Rates: `lo` and `hi`, then a fixed ladder searched for the highest
 * rate that holds the tail limit with no growing backlog. The run is
 * cut into rounds, each a short slice at every rate in turn, so every
 * rate samples the whole run rather than one stretch of a noisy host.
 * Each slice ends by waiting out its backlog, so slices don't bleed
 * into each other; the backlog at the slice's last send is reported.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "src/obs/json.h"
#include "src/server/client.h"
#include "src/server/job.h"
#include "src/server/protocol.h"
#include "src/sim/topology.h"

namespace camobench {

namespace {

namespace json = camo::obs::json;
using camo::server::Client;
using camo::server::JobSpec;

constexpr unsigned kWorkers = 2;
/**
 * Measured capacity of camosimd --workers=2 on this job mix: 400
 * distinct (uncached) jobs submitted at once finish at 430-450 jobs/s
 * on a 4-core x86-64 host, and one job alone takes 4.7 ms median from
 * submit to result (3.2-6.3 ms interquartile). The offered rates are
 * fixed fractions of it: lo is light load (0.2 jobs in flight on average),
 * hi is half capacity, where queueing shows but the daemon keeps up.
 */
constexpr double kCapacityJobsPerS = 430;
constexpr double kLoRate = 0.1 * kCapacityJobsPerS;
constexpr double kHiRate = 0.5 * kCapacityJobsPerS;
/** The ladder searched for the highest rate that holds the tail limit
 *  with no growing backlog: 0.23 to 1.4 x capacity (repeats served
 *  from the cache let it pass 1). */
const double kLadder[] = {100, 150, 200, 250, 300, 350, 400, 450, 500, 600};
/** Rounds of slices the run is cut into. */
constexpr std::size_t kRounds = 5;
/** Tail-latency limit of the ladder (ms). */
constexpr double kTailLimitMs = 50;
/** Share of jobs drawn from the hot set instead of fresh. */
constexpr double kRepeatShare = 0.25;
constexpr std::size_t kHotSpecs = 8;
/** A slice whose backlog cannot drain within this is abandoned. */
constexpr double kDrainTimeoutS = 30;

// ----- the daemon process ------------------------------------------

/** A camosimd child: spawned on construction, drained and reaped on
 *  destruction (SIGKILL if it does not exit in time). */
class Daemon
{
  public:
    Daemon(const Options &opt, const std::string &socket_path)
        : socket_(socket_path)
    {
        ::unlink(socket_.c_str());
        const std::string log = opt.workDir + "/camosimd.log";
        std::vector<std::string> args = {
            opt.daemonBin, "--socket=" + socket_,
            "--workers=" + std::to_string(kWorkers), "--queue=4096",
            "--cache=128"};
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            const int fd = ::open(log.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Connect, retrying until the daemon listens (or `timeout_s`). */
    Client connect(double timeout_s = 10)
    {
        const double deadline = nowS() + timeout_s;
        for (;;) {
            Client c;
            std::string err;
            if (c.connect(socket_, &err))
                return c;
            if (nowS() > deadline || exited())
                throw std::runtime_error("camosimd not reachable: " + err);
            ::usleep(100);
        }
    }

    pid_t pid() const { return pid_; }

    /** SIGTERM (drain, exit 0), then reap; SIGKILL after 10 s. */
    void stop()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            const double deadline = nowS() + 10;
            int status = 0;
            while (::waitpid(pid_, &status, WNOHANG) == 0) {
                if (nowS() > deadline) {
                    ::kill(pid_, SIGKILL);
                    ::waitpid(pid_, &status, 0);
                    break;
                }
                ::usleep(1000);
            }
            pid_ = -1;
        }
        ::unlink(socket_.c_str());
    }

  private:
    /** Reaps the daemon if it has exited. */
    bool exited()
    {
        int status = 0;
        if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_)
            pid_ = -1;
        return pid_ <= 0;
    }

    std::string socket_;
    pid_t pid_ = -1;
};

// ----- the job mix -------------------------------------------------

json::Value
sparseBins()
{
    json::Value b = json::Value::makeObject();
    json::Value edges = json::Value::makeArray();
    json::Value credits = json::Value::makeArray();
    for (const int e : {0, 500, 1000, 2000, 4000})
        edges.push(json::Value(e));
    for (const int c : {0, 4, 8, 4, 1})
        credits.push(json::Value(c));
    b["edges"] = edges;
    b["credits"] = credits;
    b["replenish_period"] = json::Value(30000);
    return b;
}

/** Template 0: four probe receivers. 1: low-intensity tenants, open.
 *  2: the same tenants under sparse shaped BDC bins. */
JobSpec
makeSpec(int kind, std::uint64_t seed, camo::Cycle cycles)
{
    json::Value cfg = json::Value::makeObject();
    cfg["seed"] = json::Value(seed);
    json::Value wl = json::Value::makeArray();
    if (kind == 0) {
        for (int i = 0; i < 4; ++i)
            wl.push(json::Value("probe:2000"));
        cfg["mitigation"] = json::Value("none");
    } else {
        for (const char *w :
             {"probe:400", "probe:2000", "probe:2000", "probe:800"})
            wl.push(json::Value(w));
        cfg["mitigation"] = json::Value(kind == 1 ? "none" : "bdc");
        if (kind == 2) {
            cfg["req_bins"] = sparseBins();
            cfg["resp_bins"] = sparseBins();
        }
    }
    cfg["workloads"] = wl;
    JobSpec spec;
    spec.config = cfg;
    spec.cycles = cycles;
    spec.warmup = cycles / 20;
    return spec;
}

/** One scheduled job. */
struct Job
{
    std::size_t slice = 0;
    double dueS = 0;        ///< scheduled send (offset from slice start)
    std::size_t spec = 0;   ///< index into the distinct specs
    // Filled while running:
    double schedS = 0;      ///< absolute scheduled send time
    std::uint64_t id = 0;
    bool accepted = false;
    bool done = false;
    double doneS = 0;
    std::string state;
    std::string result;
    double serverMs = 0;
    bool fromCache = false;
    int terminalCount = 0;
};

/** A stretch of the run at one offered rate. */
struct Slice
{
    std::string name; ///< the rate's name: lo, hi, ladderN
    double rate = 0;
    double seconds = 0;
    std::size_t firstJob = 0;
    std::size_t endJob = 0;
    double backlogAtEnd = 0;
    std::vector<double> lagsMs; ///< how late each send ran
};

struct Plan
{
    std::vector<JobSpec> specs; ///< distinct specs (hot set first)
    std::vector<Job> jobs;
    std::vector<Slice> slices;
};

Plan
makePlan(const Options &opt)
{
    std::mt19937_64 rng(camo::sim::deriveSeed(opt.seed, 0xDAE, 0));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const camo::Cycle cycles = opt.tiny ? 40000 : 200000;
    Plan p;
    // Hot set: tenant pairs (open, shaped) share a seed, so their
    // slowdown compares like with like; the rest are receivers.
    for (std::size_t h = 0; h < kHotSpecs; ++h) {
        const std::uint64_t seed =
            1 + camo::sim::deriveSeed(opt.seed, 0x407, h / 2) % 1000000;
        const int kind = h < kHotSpecs / 2 ? static_cast<int>(1 + h % 2) : 0;
        p.specs.push_back(makeSpec(kind, seed, cycles));
    }

    std::size_t fresh = 0;
    const double scale = opt.tiny ? 0.1 : 1.0;
    std::vector<std::pair<std::string, double>> rates = {
        {"lo", kLoRate * scale}, {"hi", kHiRate * scale}};
    for (const double r : kLadder)
        rates.push_back({"ladder" + std::to_string(static_cast<int>(r)),
                         r * scale});
    // lo and hi get a fifth of the run each, the ladder the rest.
    const std::size_t rounds = opt.tiny ? 1 : kRounds;
    const double lohi_s = 0.2 * opt.seconds / static_cast<double>(rounds);
    const double rung_s = 0.6 * opt.seconds /
                          static_cast<double>(rounds * std::size(kLadder));
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t k = 0; k < rates.size(); ++k) {
            Slice slice;
            slice.name = rates[k].first;
            slice.rate = rates[k].second;
            slice.seconds = k < 2 ? lohi_s : rung_s;
            slice.firstJob = p.jobs.size();
            std::exponential_distribution<double> gap(slice.rate);
            for (double t = gap(rng); t < slice.seconds; t += gap(rng)) {
                Job j;
                j.slice = p.slices.size();
                j.dueS = t;
                if (unit(rng) < kRepeatShare) {
                    j.spec = static_cast<std::size_t>(unit(rng) * kHotSpecs);
                } else {
                    // Kinds in turn, so every seed offers the same mix.
                    const int kind = static_cast<int>(fresh++ % 3);
                    const std::uint64_t seed =
                        1000001 + camo::sim::deriveSeed(opt.seed, 0xF4E5,
                                                        p.jobs.size()) %
                                      1000000000;
                    j.spec = p.specs.size();
                    p.specs.push_back(makeSpec(kind, seed, cycles));
                }
                p.jobs.push_back(j);
            }
            slice.endJob = p.jobs.size();
            p.slices.push_back(std::move(slice));
        }
    }
    return p;
}

// ----- the open-loop client ----------------------------------------

/**
 * Collects pipelined `result` answers on its own connection. The
 * sender registers each accepted job before writing its wait.
 */
class Collector
{
  public:
    Collector(Client conn, std::vector<Job> &jobs)
        : conn_(std::move(conn)), jobs_(jobs),
          thread_([this] { loop(); })
    {
    }
    ~Collector()
    {
        // Closing the socket unblocks the reader.
        ::shutdown(conn_.rawFd(), SHUT_RDWR);
        thread_.join();
    }
    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    /** Ask for job `j`'s terminal answer (from the one sending
     *  thread). */
    bool wait(std::size_t j)
    {
        json::Value req = json::Value::makeObject();
        req["op"] = "result";
        req["id"] = jobs_[j].id;
        req["wait_ms"] = json::Value(std::uint64_t{120000});
        {
            std::lock_guard<std::mutex> lock(m_);
            byId_[jobs_[j].id] = j;
            ++outstanding_;
        }
        return camo::server::writeJson(conn_.rawFd(), req);
    }

    std::size_t outstanding()
    {
        std::lock_guard<std::mutex> lock(m_);
        return outstanding_;
    }

    /** Block until nothing is outstanding or `timeout_s` passes. */
    bool drain(double timeout_s)
    {
        std::unique_lock<std::mutex> lock(m_);
        return cv_.wait_for(lock,
                            std::chrono::duration<double>(timeout_s),
                            [this] { return outstanding_ == 0; });
    }

  private:
    void loop()
    {
        for (;;) {
            const auto resp = camo::server::readJson(conn_.rawFd());
            if (!resp)
                return;
            const double t = nowS();
            const json::Value *id = resp->find("id");
            if (!id || !id->isNumber())
                continue;
            std::lock_guard<std::mutex> lock(m_);
            const auto it =
                byId_.find(static_cast<std::uint64_t>(id->asNumber()));
            if (it == byId_.end())
                continue;
            Job &j = jobs_[it->second];
            const json::Value *done = resp->find("done");
            if (!done || !done->isBool() || !done->asBool())
                continue; // a timed-out wait: the job stays outstanding
            ++j.terminalCount;
            if (!j.done) {
                j.done = true;
                j.doneS = t;
                if (const json::Value *s = resp->find("state"))
                    j.state = s->isString() ? s->asString() : "";
                if (const json::Value *r = resp->find("result"))
                    j.result = r->isString() ? r->asString() : "";
                if (const json::Value *l = resp->find("latency_ms"))
                    j.serverMs = l->isNumber() ? l->asNumber() : 0;
                if (const json::Value *c = resp->find("from_cache"))
                    j.fromCache = c->isBool() && c->asBool();
                --outstanding_;
                cv_.notify_all();
            }
        }
    }

    Client conn_;
    std::vector<Job> &jobs_;
    std::mutex m_;
    std::condition_variable cv_;
    std::map<std::uint64_t, std::size_t> byId_;
    std::size_t outstanding_ = 0;
    std::thread thread_; // last: starts after the members it uses
};

void
sleepUntil(double t)
{
    const double d = t - nowS();
    if (d > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

/** Submit one job; returns the ack round trip (ms) or nullopt. */
std::optional<std::uint64_t>
submit(Client &c, const JobSpec &spec, double *ack_ms, std::string *err)
{
    const double t0 = nowS();
    const auto id = c.submit(spec, err);
    *ack_ms = (nowS() - t0) * 1e3;
    return id;
}

/** In-process oracle: the run whose summary a clean daemon answer for
 *  `spec` must equal byte for byte (the worker's construction). */
SimRun
oracleRun(const JobSpec &spec, SpanLog &spans, std::uint64_t trace_id,
          LayerTimes *layers)
{
    const camo::sim::TopologyConfig topo =
        camo::sim::topologyFromJson(spec.config);
    camo::sim::SimJob job;
    job.cfg = topo.system;
    job.cfg.numCores = static_cast<std::uint32_t>(topo.workloads.size());
    if (spec.seed)
        job.cfg.seed = spec.seed;
    job.workloads = topo.workloads;
    job.cycles = spec.cycles;
    job.warmup = spec.warmup;
    return runSim(job, spans, 0, trace_id, layers);
}

double
statNumber(const json::Value &stats, const char *key)
{
    const json::Value *v = stats.find(key);
    return v && v->isNumber() ? v->asNumber() : 0;
}

} // namespace

void
runDaemonOpenLoop(const Options &opt, Report &r, SpanLog &spans)
{
    if (opt.daemonBin.empty())
        throw std::runtime_error("--daemon-bin is required");
    ::signal(SIGPIPE, SIG_IGN);
    const std::string socket = opt.workDir + "/camosimd.sock";
    Plan plan = makePlan(opt);

    // ----- set-up: daemon spawn -> first accepted job ----------------
    // The first job is the first hot spec, so the run sees it cached
    // like any repeat. More spawns (on a second socket, after each
    // drained lo and hi slice, while the main daemon idles) sample
    // set-up across the run.
    HostSpeed host;
    std::vector<double> setups;
    // Set-up is the CPU time it takes: this process's (fork, connect,
    // submit) and the daemon's threads' up to the acknowledgement.
    const auto spawn = [&](const std::string &path) {
        const double c0 = cpuS();
        auto d = std::make_unique<Daemon>(opt, path);
        Client c = d->connect();
        double ack = 0;
        std::string err;
        r.attempt();
        if (!submit(c, plan.specs[0], &ack, &err))
            r.failOp("daemon-openloop: set-up job refused: " + err);
        setups.push_back(cpuS() - c0 +
                         procThreadsCpuS(std::to_string(d->pid())));
        return d;
    };
    std::unique_ptr<Daemon> daemon = spawn(socket);

    // ----- the open loop ----------------------------------------------
    Client sender = daemon->connect();
    std::vector<Job> &jobs = plan.jobs;
    std::vector<double> acks;
    std::vector<double> fetches;
    const std::string daemon_pid = std::to_string(daemon->pid());
    const double cpu0 = procCpuS(daemon_pid);
    {
        Collector collector(daemon->connect(), jobs);
        for (Slice &sl : plan.slices) {
            SpanLog::Scope slice_span(spans, "daemon.slice." + sl.name, 0, 0);
            const double start = nowS();
            for (std::size_t j = sl.firstJob; j < sl.endJob; ++j) {
                Job &job = jobs[j];
                job.schedS = start + job.dueS;
                sleepUntil(job.schedS);
                sl.lagsMs.push_back((nowS() - job.schedS) * 1e3);
                r.attempt();
                std::string err;
                std::optional<std::uint64_t> id;
                double ack_ms = 0;
                {
                    SpanLog::Scope s(spans, "server.submit",
                                     slice_span.id(), j + 1);
                    id = submit(sender, plan.specs[job.spec], &ack_ms, &err);
                }
                acks.push_back(ack_ms);
                if (!id) {
                    r.failOp("daemon-openloop: job " + std::to_string(j) +
                             " refused: " + err);
                    continue;
                }
                job.id = *id;
                job.accepted = true;
                if (!collector.wait(j))
                    throw std::runtime_error("result connection lost");
            }
            sleepUntil(start + sl.seconds);
            sl.backlogAtEnd = static_cast<double>(collector.outstanding());
            if (!collector.drain(kDrainTimeoutS))
                throw std::runtime_error("slice " + sl.name +
                                         " did not drain");
            host.sample(); // the daemon idles
            if (sl.name == "lo" || sl.name == "hi")
                spawn(opt.workDir + "/camosimd-setup.sock");
            // Fetch cost: re-read a few finished results.
            for (std::size_t j = sl.firstJob;
                 j < sl.endJob && j < sl.firstJob + 3; ++j) {
                if (!jobs[j].accepted)
                    continue;
                json::Value req = json::Value::makeObject();
                req["op"] = "result";
                req["id"] = jobs[j].id;
                const double t0 = nowS();
                SpanLog::Scope s(spans, "server.fetch", slice_span.id(),
                                 j + 1);
                if (sender.request(req))
                    fetches.push_back((nowS() - t0) * 1e3);
            }
        }
    }
    // Every slice drained, so every job's worker has been reaped into
    // the daemon's child CPU time.
    const double daemon_cpu = procCpuS(daemon_pid) - cpu0;
    const auto stats_doc = sender.stats();
    const double daemon_rss = peakRssMb(daemon_pid);
    sender.close();
    daemon.reset(); // drain + reap before the untimed checks

    // ----- correctness gate (untimed) ---------------------------------
    std::vector<std::string> expected(plan.specs.size());
    std::vector<camo::sim::RunMetrics> metrics(plan.specs.size());
    std::vector<char> used(plan.specs.size(), 0);
    for (const Job &j : jobs)
        used[j.spec] = 1;
    used[0] = 1;
    for (std::size_t h = 0; h < kHotSpecs; ++h)
        used[h] = 1;
    std::vector<std::size_t> todo;
    for (std::size_t s = 0; s < plan.specs.size(); ++s)
        if (used[s])
            todo.push_back(s);
    LayerTimes layers;
    std::mutex layers_m;
    camo::sim::WorkerPool pool(kWorkers);
    pool.forEachIndex(todo.size(), [&](std::size_t i) {
        const std::size_t s = todo[i];
        LayerTimes mine;
        SimRun run = oracleRun(plan.specs[s], spans, 1000000 + s,
                               opt.trace ? &mine : nullptr);
        expected[s] = std::move(run.summary);
        metrics[s] = std::move(run.metrics);
        std::lock_guard<std::mutex> lock(layers_m);
        layers.add(mine);
    });
    SimCounts counts;
    for (const std::size_t s : todo)
        counts.add(expected[s]);


    // Latency from the scheduled send; a failed or refused job counts
    // as missing every limit.
    constexpr double kMissed = 1e12;
    std::map<std::string, std::vector<double>> latency;
    std::map<std::string, std::size_t> failures;
    std::vector<double> server_ms;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Job &j = jobs[i];
        const std::string &rate = plan.slices[j.slice].name;
        std::string err;
        bool mismatch = false;
        if (!j.accepted) {
            err = "refused"; // counted at submit
        } else if (j.terminalCount != 1) {
            err = "saw " + std::to_string(j.terminalCount) +
                  " terminal answers";
            mismatch = true;
        } else if (j.state != "succeeded" && j.state != "cached") {
            err = "ended " + j.state;
        } else if (j.result != expected[j.spec]) {
            err = "result differs from in-process summaryJson";
            mismatch = true;
        }
        if (!err.empty()) {
            const std::string why =
                "daemon-openloop: job " + std::to_string(i) + " " + err;
            if (mismatch)
                r.fail(why);
            else if (j.accepted)
                r.failOp(why);
            latency[rate].push_back(kMissed);
            ++failures[rate];
            continue;
        }
        latency[rate].push_back((j.doneS - j.schedS) * 1e3);
        if (!j.fromCache)
            server_ms.push_back(j.serverMs);
    }

    // Per rate, over its slices: generator lag at the latency tail
    // rank, and the largest backlog left at a slice's last send.
    std::map<std::string, std::vector<double>> lags;
    std::map<std::string, double> backlog;
    for (const Slice &sl : plan.slices) {
        lags[sl.name].insert(lags[sl.name].end(), sl.lagsMs.begin(),
                             sl.lagsMs.end());
        backlog[sl.name] = std::max(backlog[sl.name], sl.backlogAtEnd);
    }
    double max_rate = 0;
    for (std::size_t k = 0; k < plan.slices.size() && k < 2 + std::size(kLadder);
         ++k) {
        const std::string &name = plan.slices[k].name;
        const double rate = plan.slices[k].rate;
        const std::vector<double> &lat = latency[name];
        const Tail tail = tailOf(lat);
        const double lag = tailOf(lags[name]).value;
        const bool lag_ok = lag <= kTailLimitMs;
        if (!lag_ok)
            r.failOp("daemon-openloop: generator lag " +
                     std::to_string(lag) + " ms at " + name +
                     " exceeds the tail limit; the run is invalid");
        // Growing backlog: more jobs still queued at a slice's last
        // send than the rate can clear within the tail limit.
        const bool backlog_ok = backlog[name] <= rate * kTailLimitMs / 1e3;
        const bool holds = tail.samples >= 11 &&
                           tail.value <= kTailLimitMs &&
                           failures[name] == 0 && backlog_ok && lag_ok;
        if (name.rfind("ladder", 0) == 0 && holds)
            max_rate = std::max(max_rate, rate);
        r.info("job_latency_p50_ms." + name, median(lat), "ms");
        r.info("job_latency_tail_ms." + name, tail.value, "ms");
        r.note("job_latency_tail_ms." + name,
               "p" + std::to_string(tail.percentile) + " of " +
                   std::to_string(tail.samples) + " jobs");
        r.info("generator_lag_tail_ms." + name, lag, "ms");
        r.info("backlog." + name, backlog[name], "count");
    }
    r.info("max_rate_jobs_per_s", max_rate, "1/s");
    std::size_t accepted = 0;
    for (const Job &j : jobs)
        accepted += j.accepted ? 1 : 0;
    reportTimes(r, host, median(setups),
                daemon_cpu / static_cast<double>(
                                 std::max<std::size_t>(accepted, 1)));
    r.e2e("peak_rss_mb", daemon_rss, "MB");

    // Price of the sparse shaped bins: the hot tenant pairs.
    double slowdown = 0;
    for (std::size_t h = 0; h + 1 < kHotSpecs / 2; h += 2)
        slowdown += camo::sim::maxSlowdownVs(metrics[h], metrics[h + 1]);
    slowdown /= static_cast<double>(kHotSpecs / 4);
    r.e2e("shaping_slowdown", slowdown, "x");
    r.info("shaping_slowdown", slowdown, "x");
    r.info("sim.digest_sims", static_cast<double>(counts.sims), "count");
    r.note("sim.stats_digest", hex64(counts.digest));

    if (opt.trace) {
        layers.report(r);
        counts.report(r);
        r.layer("server.ack_ms", median(acks), "ms");
        r.layer("server.run_ms", median(server_ms), "ms");
        r.layer("server.fetch_ms", median(fetches), "ms");
        if (stats_doc) {
            const json::Value *st = stats_doc->find("stats");
            if (st) {
                const double submitted = statNumber(*st, "submitted");
                r.layer("server.cache_hit_ratio",
                        submitted > 0 ? (statNumber(*st, "cache_hits") +
                                         statNumber(*st, "joined")) /
                                            submitted
                                      : 0.0,
                        "ratio");
                r.layer("server.retries", statNumber(*st, "retries"),
                        "count");
                r.layer("server.shed", statNumber(*st, "shed"), "count");
            }
        }
        // Tracing overhead: the hot set's oracle runs untraced vs
        // with spans and the profiler.
        SpanLog quiet(false);
        double t0 = nowS();
        for (std::size_t h = 0; h < kHotSpecs; ++h)
            oracleRun(plan.specs[h], quiet, 0, nullptr);
        const double untraced = nowS() - t0;
        LayerTimes scratch;
        t0 = nowS();
        for (std::size_t h = 0; h < kHotSpecs; ++h)
            oracleRun(plan.specs[h], spans, 2000000 + h, &scratch);
        r.layer("trace.overhead_s", (nowS() - t0) - untraced, "s");
    }
}

} // namespace camobench
