/**
 * @file
 * The camosimd job service: a supervised worker pool with admission
 * control, bounded retry, result caching, and graceful lifecycle —
 * everything the daemon does except the socket.
 *
 * Socket-free by design so the whole supervision/retry/cache state
 * machine is unit-testable in-process; src/server/server.h puts the
 * Unix-domain protocol front end on top.
 *
 * Invariants the chaos soak pins:
 *  - Every accepted job reaches exactly one terminal state
 *    (succeeded, cached, failed, crashed, deadline, canceled);
 *    nothing is lost, nothing is double-counted.
 *  - A crashing or stalling worker never takes the service down:
 *    jobs run in forked children (src/server/worker.h), supervisors
 *    only classify what came back.
 *  - Results are byte-identical to one-shot `camosim --stats-json`
 *    runs of the same spec, including after seed-re-derived retries.
 *  - drain() completes: it stops admission and returns once every
 *    in-flight job is terminal.
 */

#ifndef CAMO_SERVER_SERVICE_H
#define CAMO_SERVER_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/hard/retry.h"
#include "src/server/job.h"
#include "src/server/worker.h"

namespace camo::server {

/** Tunables; the reload()-able subset is documented per field. */
struct ServiceConfig
{
    /** Supervisor threads = concurrently forked workers. Fixed at
     *  start (not reloadable). */
    unsigned workers = 2;
    /** Max queued (not yet running) jobs before submissions are
     *  shed. Reloadable. */
    std::size_t maxQueue = 256;
    /** Default wall-clock deadline per attempt, ms (0 = none).
     *  Reloadable. */
    std::uint64_t defaultTimeoutMs = 120000;
    /** Backoff schedule for transient faults and crashes.
     *  Reloadable. */
    hard::RetryPolicy retry;
    /** Result-cache capacity in entries (0 disables). Reloadable. */
    std::size_t maxCacheEntries = 128;
    /** Diagnostic-dump directory handed to workers ("" = stderr). */
    std::string diagDir;
    /**
     * Terminal job records retained for status/result queries
     * (0 = unbounded). Oldest-terminal-first eviction keeps a
     * long-lived daemon's memory bounded; querying an evicted id
     * reports it unknown. Cumulative counters are unaffected.
     * Reloadable.
     */
    std::size_t maxTerminalJobs = 4096;
};

/** Observable snapshot of one job. */
struct JobStatus
{
    std::uint64_t id = 0;
    JobState state = JobState::Queued;
    unsigned attempts = 0;   ///< attempts started
    int code = 0;            ///< camosim-compatible code when terminal
    std::string kind;        ///< error kind ("" unless failed)
    std::string error;
    std::string dumpPath;
    std::string crashDetail;
    bool fromCache = false;  ///< served by cache or single-flight
    double latencyMs = 0.0;  ///< submit -> terminal (terminal only)
};

/** What submit() decided. */
struct SubmitResult
{
    bool accepted = false;
    bool shed = false; ///< rejected by admission control
    std::uint64_t id = 0;
    std::string error; ///< reason when !accepted
};

class Service
{
  public:
    explicit Service(const ServiceConfig &cfg);
    /** Calls stop(). */
    ~Service();

    /**
     * Cancel pending jobs and join the supervisors. Idempotent.
     * After it returns no supervisor thread is alive, so the
     * completion hook can never fire again — callers that hand the
     * hook resources they are about to tear down (the server's
     * completion pipe) stop() the service first.
     */
    void stop();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Admission control: rejects (shed) when the queue is at
     * maxQueue, or (not shed) when draining. A cache hit or an
     * identical in-flight job never occupies a queue slot: hits go
     * terminal Cached immediately, duplicates join the in-flight
     * leader single-flight and go terminal when it does.
     */
    SubmitResult submit(const JobSpec &spec);

    /** Snapshot a job; false if the id is unknown. */
    bool status(std::uint64_t id, JobStatus *out) const;

    /** Result document text; false unless state is
     *  Succeeded/Cached. */
    bool result(std::uint64_t id, std::string *out) const;

    /**
     * Block until the job is terminal or `timeout_ms` passed
     * (0 = no wait, just snapshot). False if the id is unknown.
     */
    bool waitTerminal(std::uint64_t id, std::uint64_t timeout_ms,
                      JobStatus *out) const;

    /**
     * Cancel: a queued job goes terminal Canceled here; a running
     * job's child is killed and classified Canceled by its
     * supervisor. False if unknown or already terminal.
     */
    bool cancel(std::uint64_t id);

    /** Stop admission. New submits fail (not shed) with
     *  "draining". */
    void beginDrain();

    /** True once draining and every job is terminal. */
    bool drained() const;

    /** beginDrain() + block until drained. */
    void drain();

    /**
     * Reload the reloadable limits (queue depth, timeout, retry,
     * cache size, diag dir) without touching queued or running jobs.
     * Worker count changes are ignored (documented fixed).
     */
    void reload(const ServiceConfig &cfg);

    /** Counters + gauges as a JSON object (see keys in service.cc). */
    obs::json::Value statsJson() const;

    /** Invoked (outside the lock) each time a job goes terminal;
     *  the socket server uses it to wake result waiters. */
    void setCompletionHook(std::function<void(std::uint64_t)> hook);

    const ServiceConfig &config() const { return cfg_; }

  private:
    struct Job
    {
        std::uint64_t id = 0;
        JobSpec spec;
        std::string cacheKey;
        JobState state = JobState::Queued;
        unsigned attempts = 0;
        int code = 0;
        std::string kind;
        std::string error;
        std::string dumpPath;
        std::string crashDetail;
        std::string resultText;
        bool fromCache = false;
        std::uint64_t submitMs = 0;
        std::uint64_t endMs = 0;
        std::atomic<bool> cancelFlag{false};
        /** Jobs joined to this leader single-flight. */
        std::vector<std::uint64_t> joiners;
    };

    void supervisorLoop();
    /** Run one job to a terminal state (called by a supervisor). */
    void runJob(Job &job);
    /** Mark terminal, settle joiners, fire the hook. Lock held on
     *  entry; released and re-taken around the hook. */
    void finishLocked(std::unique_lock<std::mutex> &lk, Job &job,
                      JobState state);
    void noteTerminalLocked(Job &job);
    /** Erase oldest terminal job records past maxTerminalJobs.
     *  Only call when no Job reference is held across it: evicted
     *  records are destroyed. */
    void evictTerminalLocked();
    JobStatus snapshotLocked(const Job &job) const;

    ServiceConfig cfg_;
    mutable std::mutex m_;
    mutable std::condition_variable cv_;      ///< terminal-state waits
    std::condition_variable work_;            ///< supervisor wakeups
    std::map<std::uint64_t, Job> jobs_;
    std::deque<std::uint64_t> queue_;
    /** cacheKey -> in-flight leader id (queued or running). */
    std::map<std::string, std::uint64_t> inflight_;
    /** cacheKey -> result text, LRU by recency list. */
    std::map<std::string, std::pair<std::string,
                                    std::list<std::string>::iterator>>
        cache_;
    std::list<std::string> cacheLru_; ///< front = most recent
    std::vector<std::thread> supervisors_;
    std::function<void(std::uint64_t)> completionHook_;
    /** Terminal job ids, oldest first — the eviction order. */
    std::deque<std::uint64_t> terminalFifo_;
    std::uint64_t nextId_ = 1;
    bool draining_ = false;
    bool stopping_ = false;
    bool stopped_ = false; ///< stop() ran; supervisors joined

    // Accounting (under m_).
    std::uint64_t submitted_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t rejectedDraining_ = 0;
    std::uint64_t rejectedBad_ = 0;
    std::uint64_t cacheHits_ = 0;
    std::uint64_t joined_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t reloads_ = 0;
    std::map<std::string, std::uint64_t> terminal_;
    double latencySumMs_ = 0.0;       ///< cumulative, for the mean
    std::uint64_t latencyCount_ = 0;  ///< cumulative, for the mean
    /** Ring of the most recent kLatencyWindow terminal latencies;
     *  statsJson's p99 is over this window so a long-lived daemon
     *  neither grows nor re-sorts its whole history per stats
     *  call. */
    std::vector<double> latencyWindow_;
    std::size_t latencyWindowNext_ = 0;
};

} // namespace camo::server

#endif // CAMO_SERVER_SERVICE_H
