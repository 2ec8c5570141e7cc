#include "src/server/service.h"

#include <algorithm>
#include <chrono>

namespace camo::server {

namespace {

/** Recent-latency ring size: bounds both stats memory and the
 *  per-stats-call sort for p99. */
constexpr std::size_t kLatencyWindow = 2048;

std::uint64_t
nowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

Service::Service(const ServiceConfig &cfg) : cfg_(cfg)
{
    if (cfg_.workers == 0)
        cfg_.workers = 1;
    supervisors_.reserve(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; ++i)
        supervisors_.emplace_back([this] { supervisorLoop(); });
}

Service::~Service()
{
    stop();
}

void
Service::stop()
{
    if (stopped_)
        return;
    stopped_ = true;
    {
        std::unique_lock<std::mutex> lk(m_);
        stopping_ = true;
        // Cancel everything still pending: queued jobs go terminal
        // here, running jobs get their children killed and are
        // classified by their supervisors.
        while (!queue_.empty()) {
            const std::uint64_t id = queue_.front();
            queue_.pop_front();
            auto it = jobs_.find(id);
            if (it != jobs_.end() && !jobStateTerminal(it->second.state))
                finishLocked(lk, it->second, JobState::Canceled);
            if (!lk.owns_lock())
                lk.lock();
        }
        for (auto &[id, job] : jobs_) {
            if (job.state == JobState::Running)
                job.cancelFlag.store(true, std::memory_order_relaxed);
        }
    }
    work_.notify_all();
    for (auto &t : supervisors_)
        t.join();
}

SubmitResult
Service::submit(const JobSpec &spec)
{
    const std::string key = spec.cacheKey();
    std::unique_lock<std::mutex> lk(m_);
    SubmitResult res;
    if (stopping_ || draining_) {
        ++rejectedDraining_;
        res.error = "draining";
        return res;
    }

    // Cache hit: terminal immediately, no queue slot consumed.
    auto cit = cache_.find(key);
    if (cit != cache_.end()) {
        ++submitted_;
        ++cacheHits_;
        cacheLru_.splice(cacheLru_.begin(), cacheLru_,
                         cit->second.second);
        Job &job = jobs_[nextId_];
        job.id = nextId_++;
        job.spec = spec;
        job.cacheKey = key;
        job.submitMs = nowMs();
        job.resultText = cit->second.first;
        job.fromCache = true;
        res.accepted = true;
        res.id = job.id;
        finishLocked(lk, job, JobState::Cached);
        return res;
    }

    // Single-flight: an identical job already queued or running
    // becomes this submission's leader.
    auto fit = inflight_.find(key);
    if (fit != inflight_.end()) {
        ++submitted_;
        ++joined_;
        Job &job = jobs_[nextId_];
        job.id = nextId_++;
        job.spec = spec;
        job.cacheKey = key;
        job.submitMs = nowMs();
        jobs_[fit->second].joiners.push_back(job.id);
        res.accepted = true;
        res.id = job.id;
        return res;
    }

    // Admission control: a full queue sheds explicitly instead of
    // growing without bound.
    if (queue_.size() >= cfg_.maxQueue) {
        ++shed_;
        res.shed = true;
        res.error = "queue full (" + std::to_string(cfg_.maxQueue) +
                    " jobs); shed";
        return res;
    }

    ++submitted_;
    Job &job = jobs_[nextId_];
    job.id = nextId_++;
    job.spec = spec;
    job.cacheKey = key;
    job.submitMs = nowMs();
    queue_.push_back(job.id);
    inflight_[key] = job.id;
    res.accepted = true;
    res.id = job.id;
    lk.unlock();
    work_.notify_one();
    return res;
}

void
Service::supervisorLoop()
{
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lk(m_);
            work_.wait(lk,
                       [&] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping
            const std::uint64_t id = queue_.front();
            queue_.pop_front();
            auto it = jobs_.find(id);
            if (it == jobs_.end() ||
                jobStateTerminal(it->second.state))
                continue; // canceled while queued
            it->second.state = JobState::Running;
            // Captured under the lock: std::map references stay
            // valid across concurrent inserts, and only terminal
            // jobs are ever erased, so a Running job's address is
            // stable for the whole unlocked execution.
            job = &it->second;
        }
        runJob(*job);
    }
}

void
Service::runJob(Job &job)
{
    // `job` lives in jobs_, which only erases terminal entries, so
    // holding the reference to this Running job across unlocked
    // sections is safe; only this supervisor mutates a Running job.
    for (unsigned attempt = 0;; ++attempt) {
        std::uint64_t timeout_ms = 0;
        hard::RetryPolicy retry;
        std::string diag_dir;
        {
            std::lock_guard<std::mutex> lk(m_);
            job.attempts = attempt + 1;
            if (attempt > 0)
                ++retries_;
            timeout_ms = job.spec.timeoutMs ? job.spec.timeoutMs
                                            : cfg_.defaultTimeoutMs;
            retry = cfg_.retry;
            diag_dir = cfg_.diagDir;
        }
        if (attempt > 0)
            hard::backoffSleep(retry.delayUsFor(job.id, attempt));

        const WorkerResult r = runJobForked(
            job.spec, job.id, attempt, timeout_ms, diag_dir,
            &job.cancelFlag);

        std::unique_lock<std::mutex> lk(m_);
        job.code = r.code;
        job.kind = r.kind;
        job.error = r.error;
        job.dumpPath = r.dumpPath;
        job.crashDetail = r.crashDetail;
        switch (r.outcome) {
          case WorkerOutcome::Success: {
            job.resultText = r.result;
            if (cfg_.maxCacheEntries > 0) {
                cacheLru_.push_front(job.cacheKey);
                cache_[job.cacheKey] = {r.result, cacheLru_.begin()};
                while (cache_.size() > cfg_.maxCacheEntries) {
                    cache_.erase(cacheLru_.back());
                    cacheLru_.pop_back();
                }
            }
            finishLocked(lk, job, JobState::Succeeded);
            return;
          }
          case WorkerOutcome::Transient:
          case WorkerOutcome::Crashed: {
            const unsigned tries =
                retry.attempts == 0 ? 1 : retry.attempts;
            if (attempt + 1 < tries &&
                !job.cancelFlag.load(std::memory_order_relaxed) &&
                !stopping_) {
                lk.unlock();
                break; // next attempt, seed re-derived in the worker
            }
            finishLocked(lk, job,
                         r.outcome == WorkerOutcome::Crashed
                             ? JobState::Crashed
                             : JobState::Failed);
            return;
          }
          case WorkerOutcome::Failure:
            finishLocked(lk, job, JobState::Failed);
            return;
          case WorkerOutcome::Deadline:
            finishLocked(lk, job, JobState::Deadline);
            return;
          case WorkerOutcome::Canceled:
            finishLocked(lk, job, JobState::Canceled);
            return;
        }
    }
}

void
Service::finishLocked(std::unique_lock<std::mutex> &lk, Job &job,
                      JobState state)
{
    job.state = state;
    job.endMs = nowMs();
    noteTerminalLocked(job);

    // The leader settles its single-flight joiners: success serves
    // them from its result; any other terminal state is mirrored.
    std::vector<std::uint64_t> to_notify;
    to_notify.push_back(job.id);
    auto fit = inflight_.find(job.cacheKey);
    if (fit != inflight_.end() && fit->second == job.id)
        inflight_.erase(fit);
    for (const std::uint64_t jid : job.joiners) {
        auto it = jobs_.find(jid);
        if (it == jobs_.end() || jobStateTerminal(it->second.state))
            continue;
        Job &joiner = it->second;
        joiner.code = job.code;
        joiner.kind = job.kind;
        joiner.error = job.error;
        joiner.dumpPath = job.dumpPath;
        joiner.crashDetail = job.crashDetail;
        if (state == JobState::Succeeded || state == JobState::Cached) {
            joiner.resultText = job.resultText;
            joiner.fromCache = true;
            joiner.state = JobState::Cached;
        } else {
            joiner.state = state;
        }
        joiner.endMs = job.endMs;
        noteTerminalLocked(joiner);
        to_notify.push_back(jid);
    }
    job.joiners.clear();
    // Retention: past this point nothing dereferences `job` or the
    // joiners, so evicting — even one of the jobs just finished,
    // under a tiny cap — is safe.
    evictTerminalLocked();

    cv_.notify_all();
    const auto hook = completionHook_;
    lk.unlock();
    if (hook) {
        for (const std::uint64_t id : to_notify)
            hook(id);
    }
}

void
Service::noteTerminalLocked(Job &job)
{
    ++terminal_[jobStateName(job.state)];
    const double ms =
        static_cast<double>(job.endMs - job.submitMs);
    latencySumMs_ += ms;
    ++latencyCount_;
    if (latencyWindow_.size() < kLatencyWindow) {
        latencyWindow_.push_back(ms);
    } else {
        latencyWindow_[latencyWindowNext_] = ms;
        latencyWindowNext_ =
            (latencyWindowNext_ + 1) % kLatencyWindow;
    }
    terminalFifo_.push_back(job.id);
}

void
Service::evictTerminalLocked()
{
    if (cfg_.maxTerminalJobs == 0)
        return;
    while (terminalFifo_.size() > cfg_.maxTerminalJobs) {
        jobs_.erase(terminalFifo_.front());
        terminalFifo_.pop_front();
    }
}

JobStatus
Service::snapshotLocked(const Job &job) const
{
    JobStatus s;
    s.id = job.id;
    s.state = job.state;
    s.attempts = job.attempts;
    s.code = job.code;
    s.kind = job.kind;
    s.error = job.error;
    s.dumpPath = job.dumpPath;
    s.crashDetail = job.crashDetail;
    s.fromCache = job.fromCache ||
                  (job.state == JobState::Cached);
    if (jobStateTerminal(job.state))
        s.latencyMs = static_cast<double>(job.endMs - job.submitMs);
    return s;
}

bool
Service::status(std::uint64_t id, JobStatus *out) const
{
    std::lock_guard<std::mutex> lk(m_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    *out = snapshotLocked(it->second);
    return true;
}

bool
Service::result(std::uint64_t id, std::string *out) const
{
    std::lock_guard<std::mutex> lk(m_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    const Job &job = it->second;
    if (job.state != JobState::Succeeded &&
        job.state != JobState::Cached)
        return false;
    *out = job.resultText;
    return true;
}

bool
Service::waitTerminal(std::uint64_t id, std::uint64_t timeout_ms,
                      JobStatus *out) const
{
    std::unique_lock<std::mutex> lk(m_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    if (timeout_ms > 0) {
        // Re-find on every wakeup: retention may evict the record
        // (necessarily already terminal) while we wait, which would
        // invalidate a held iterator.
        cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms), [&] {
            auto jit = jobs_.find(id);
            return jit == jobs_.end() ||
                   jobStateTerminal(jit->second.state);
        });
        it = jobs_.find(id);
        if (it == jobs_.end())
            return false; // went terminal, then evicted
    }
    *out = snapshotLocked(it->second);
    return true;
}

bool
Service::cancel(std::uint64_t id)
{
    std::unique_lock<std::mutex> lk(m_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    Job &job = it->second;
    if (jobStateTerminal(job.state))
        return false;
    if (job.state == JobState::Running) {
        // The supervisor kills the child and classifies Canceled.
        job.cancelFlag.store(true, std::memory_order_relaxed);
        return true;
    }
    // Queued: either a queue occupant (possibly a single-flight
    // leader) or a joiner waiting on one.
    auto qit = std::find(queue_.begin(), queue_.end(), id);
    if (qit != queue_.end()) {
        if (!job.joiners.empty()) {
            // Promote the first live joiner to leader so the others
            // still get their shared execution.
            std::uint64_t heir = 0;
            std::vector<std::uint64_t> rest;
            for (const std::uint64_t jid : job.joiners) {
                auto jit = jobs_.find(jid);
                if (jit == jobs_.end() ||
                    jobStateTerminal(jit->second.state))
                    continue;
                if (heir == 0)
                    heir = jid;
                else
                    rest.push_back(jid);
            }
            if (heir != 0) {
                *qit = heir;
                jobs_[heir].joiners = std::move(rest);
                inflight_[job.cacheKey] = heir;
                job.joiners.clear();
                finishLocked(lk, job, JobState::Canceled);
                return true;
            }
        }
        queue_.erase(qit);
        finishLocked(lk, job, JobState::Canceled);
        return true;
    }
    // A joiner: detach from its leader and cancel alone.
    auto fit = inflight_.find(job.cacheKey);
    if (fit != inflight_.end()) {
        auto lit = jobs_.find(fit->second);
        if (lit != jobs_.end()) {
            auto &js = lit->second.joiners;
            js.erase(std::remove(js.begin(), js.end(), id), js.end());
        }
    }
    finishLocked(lk, job, JobState::Canceled);
    return true;
}

void
Service::beginDrain()
{
    std::lock_guard<std::mutex> lk(m_);
    draining_ = true;
}

bool
Service::drained() const
{
    std::lock_guard<std::mutex> lk(m_);
    if (!draining_)
        return false;
    for (const auto &[id, job] : jobs_) {
        if (!jobStateTerminal(job.state))
            return false;
    }
    return queue_.empty();
}

void
Service::drain()
{
    beginDrain();
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] {
        if (!queue_.empty())
            return false;
        for (const auto &[id, job] : jobs_) {
            if (!jobStateTerminal(job.state))
                return false;
        }
        return true;
    });
}

void
Service::reload(const ServiceConfig &cfg)
{
    std::lock_guard<std::mutex> lk(m_);
    // Worker count is fixed at start; everything else swaps in place
    // without touching queued or running jobs.
    cfg_.maxQueue = cfg.maxQueue;
    cfg_.defaultTimeoutMs = cfg.defaultTimeoutMs;
    cfg_.retry = cfg.retry;
    cfg_.maxCacheEntries = cfg.maxCacheEntries;
    cfg_.diagDir = cfg.diagDir;
    cfg_.maxTerminalJobs = cfg.maxTerminalJobs;
    while (cache_.size() > cfg_.maxCacheEntries) {
        cache_.erase(cacheLru_.back());
        cacheLru_.pop_back();
    }
    evictTerminalLocked();
    ++reloads_;
}

obs::json::Value
Service::statsJson() const
{
    std::lock_guard<std::mutex> lk(m_);
    obs::json::Value v = obs::json::Value::makeObject();
    v["submitted"] = submitted_;
    v["shed"] = shed_;
    v["rejected_draining"] = rejectedDraining_;
    v["cache_hits"] = cacheHits_;
    v["joined"] = joined_;
    v["retries"] = retries_;
    v["reloads"] = reloads_;
    v["queue_depth"] = static_cast<std::uint64_t>(queue_.size());
    std::uint64_t running = 0;
    for (const auto &[id, job] : jobs_) {
        if (job.state == JobState::Running)
            ++running;
    }
    v["running"] = running;
    v["workers"] = static_cast<std::uint64_t>(cfg_.workers);
    v["draining"] = draining_;
    obs::json::Value t = obs::json::Value::makeObject();
    for (const auto &[name, n] : terminal_)
        t[name] = n;
    v["terminal"] = t;
    obs::json::Value lat = obs::json::Value::makeObject();
    if (latencyCount_ > 0) {
        // Mean is over every terminal job; p99 is over the bounded
        // recent window, so stats cost stays O(window) forever.
        lat["mean"] = latencySumMs_ /
                      static_cast<double>(latencyCount_);
        std::vector<double> sorted = latencyWindow_;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t p99 = std::min(
            sorted.size() - 1,
            static_cast<std::size_t>(
                static_cast<double>(sorted.size()) * 0.99));
        lat["p99"] = sorted[p99];
    } else {
        lat["mean"] = 0.0;
        lat["p99"] = 0.0;
    }
    v["latency_ms"] = lat;
    v["retained_jobs"] = static_cast<std::uint64_t>(jobs_.size());
    return v;
}

void
Service::setCompletionHook(std::function<void(std::uint64_t)> hook)
{
    std::lock_guard<std::mutex> lk(m_);
    completionHook_ = std::move(hook);
}

} // namespace camo::server
