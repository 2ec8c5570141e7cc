#include "src/server/worker.h"

#include <memory>

#include <sys/wait.h>

#include "src/common/child.h"
#include "src/hard/error.h"
#include "src/hard/fault_injection.h"
#include "src/server/protocol.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"
#include "src/sim/runner.h"
#include "src/sim/topology.h"

namespace camo::server {

const char *
workerOutcomeName(WorkerOutcome o)
{
    switch (o) {
      case WorkerOutcome::Success: return "success";
      case WorkerOutcome::Failure: return "failure";
      case WorkerOutcome::Transient: return "transient";
      case WorkerOutcome::Crashed: return "crashed";
      case WorkerOutcome::Deadline: return "deadline";
      case WorkerOutcome::Canceled: return "canceled";
    }
    return "unknown";
}

namespace {

/** camosim exit codes, mirrored (keep in sync with tools/camosim.cc
 *  and the README table). */
constexpr int kCodeOk = 0;
constexpr int kCodeRuntime = 1;
constexpr int kCodeConfig = 3;
constexpr int kCodeInvariant = 4;
constexpr int kCodeWatchdog = 5;
constexpr int kCodeLeakage = 6;

obs::json::Value
errorPayload(int code, const char *kind, const std::string &msg,
             const std::string &dump_path = {})
{
    obs::json::Value v = obs::json::Value::makeObject();
    v["code"] = code;
    v["kind"] = kind;
    v["error"] = msg;
    if (!dump_path.empty())
        v["dump_path"] = dump_path;
    return v;
}

} // namespace

obs::json::Value
runJobPayload(const JobSpec &spec, std::uint64_t job_id,
              unsigned attempt, const std::string &diag_dir)
{
    try {
        const sim::TopologyConfig topo =
            sim::topologyFromJson(spec.config);
        sim::SystemConfig cfg = topo.system;
        cfg.numCores =
            static_cast<std::uint32_t>(topo.workloads.size());
        const std::uint64_t base = spec.seed ? spec.seed : cfg.seed;
        // Same re-derivation as runConfigsParallel: a retried attempt
        // must not replay the RNG sequence that just faulted, and the
        // result must equal a one-shot run at the re-derived seed.
        cfg.seed = attempt == 0
                       ? base
                       : sim::deriveSeed(base, sim::kRetrySeedStream,
                                         attempt);

        std::unique_ptr<hard::FaultInjector> injector;
        if (!spec.inject.empty()) {
            const hard::FaultPlan plan = hard::FaultPlan::parse(
                spec.inject,
                spec.injectSeed ? spec.injectSeed : cfg.seed);
            injector = std::make_unique<hard::FaultInjector>(plan);
            // Worker faults select by job id, like the in-process
            // engine selects by batch index.
            injector->maybeWorkerFault(job_id, attempt);
        }
        if (attempt < spec.crashAttempts) {
            // Chaos-soak hook: a genuine wild store, so the crash
            // path is exercised by a real SIGSEGV rather than a
            // simulated one.
            volatile int *wild = nullptr;
            *wild = 0xDEAD;
        }

        // Compiled-plan path: same construction the sweep engine
        // uses, so daemon results stay byte-identical to the CLI's
        // while skipping the eager tracer-ring allocation.
        const sim::SystemPlan plan(cfg, topo.workloads);
        const std::unique_ptr<sim::System> system_owner =
            plan.instantiate();
        sim::System &system = *system_owner;
        if (!diag_dir.empty())
            system.setDiagnosticDir(diag_dir);
        if (spec.checkers) {
            hard::CheckerConfig hc;
            system.enableCheckers(hc);
        }
        if (spec.watchdog > 0) {
            hard::WatchdogConfig wc;
            wc.window = spec.watchdog;
            system.enableWatchdog(wc);
        }
        if (injector)
            system.setFaultInjector(injector.get());

        sim::runAndMeasure(system, spec.cycles, spec.warmup);
        if (spec.checkers)
            system.checkForLeaks();

        obs::json::Value payload = obs::json::Value::makeObject();
        payload["code"] = kCodeOk;
        // Byte-for-byte what `camosim --stats-json` writes.
        payload["result"] =
            sim::summaryJson(system, topo.workloads, false).dump(2) +
            "\n";
        return payload;
    } catch (const hard::ConfigError &e) {
        return errorPayload(kCodeConfig, "config", e.what());
    } catch (const hard::InvariantViolation &e) {
        return errorPayload(kCodeInvariant, "invariant", e.what(),
                            e.dumpPath());
    } catch (const hard::WatchdogTimeout &e) {
        return errorPayload(kCodeWatchdog, "watchdog", e.what(),
                            e.dumpPath());
    } catch (const hard::LeakageAlert &e) {
        return errorPayload(kCodeLeakage, "leakage", e.what(),
                            e.dumpPath());
    } catch (const hard::TransientFault &e) {
        return errorPayload(kCodeRuntime, "transient", e.what());
    } catch (const hard::CamoError &e) {
        return errorPayload(kCodeRuntime, hard::errorKindName(e.kind()),
                            e.what());
    } catch (const std::exception &e) {
        return errorPayload(kCodeRuntime, "runtime", e.what());
    }
}

WorkerResult
runJobForked(const JobSpec &spec, std::uint64_t job_id,
             unsigned attempt, std::uint64_t timeout_ms,
             const std::string &diag_dir,
             const std::atomic<bool> *cancel)
{
    const child::Result c = child::run(
        [&] {
            const obs::json::Value payload =
                runJobPayload(spec, job_id, attempt, diag_dir);
            int code = kCodeRuntime;
            if (const obs::json::Value *v = payload.find("code"))
                code = static_cast<int>(v->asNumber());
            return child::Reply{payload.dump(), code};
        },
        kMaxFrameBytes, timeout_ms, cancel);

    WorkerResult r;
    if (c.ending == child::Ending::SpawnFailed) {
        r.crashDetail = c.spawnError;
        r.error = "worker crashed (" + r.crashDetail + ")";
        return r;
    }
    if (c.ending == child::Ending::Canceled) {
        r.outcome = WorkerOutcome::Canceled;
        r.kind = "canceled";
        r.error = "canceled while running";
        return r;
    }
    if (c.ending == child::Ending::Deadline) {
        r.outcome = WorkerOutcome::Deadline;
        r.kind = "deadline";
        r.error = "wall-clock deadline (" +
                  std::to_string(timeout_ms) + " ms) exceeded";
        return r;
    }

    // Classify strictly by the payload. No parseable payload — for
    // any reason — is a crash.
    std::optional<obs::json::Value> payload;
    if (c.ending == child::Ending::Frame)
        payload = obs::json::tryParse(c.payload);
    if (!payload || !payload->isObject() || !payload->find("code")) {
        r.outcome = WorkerOutcome::Crashed;
        r.code = kCodeRuntime;
        r.kind = "crash";
        if (WIFSIGNALED(c.status)) {
            r.crashDetail =
                "signal " + std::to_string(WTERMSIG(c.status));
        } else if (WIFEXITED(c.status)) {
            r.crashDetail = "exit " +
                            std::to_string(WEXITSTATUS(c.status)) +
                            " without payload";
        } else {
            r.crashDetail = "unknown child status";
        }
        r.error = "worker crashed (" + r.crashDetail + ")";
        return r;
    }

    const obs::json::Value &p = *payload;
    r.code = static_cast<int>(p.find("code")->asNumber());
    if (const obs::json::Value *v = p.find("kind"))
        r.kind = v->asString();
    if (const obs::json::Value *v = p.find("error"))
        r.error = v->asString();
    if (const obs::json::Value *v = p.find("dump_path"))
        r.dumpPath = v->asString();
    if (const obs::json::Value *v = p.find("result"))
        r.result = v->asString();
    if (r.code == kCodeOk && !r.result.empty()) {
        r.outcome = WorkerOutcome::Success;
    } else if (r.kind == "transient") {
        r.outcome = WorkerOutcome::Transient;
    } else if (r.code == kCodeOk) {
        // Claimed success without a result document: treat as crash.
        r.outcome = WorkerOutcome::Crashed;
        r.code = kCodeRuntime;
        r.kind = "crash";
        r.crashDetail = "success payload without result";
        r.error = "worker crashed (" + r.crashDetail + ")";
    } else {
        r.outcome = WorkerOutcome::Failure;
    }
    return r;
}

} // namespace camo::server
