/**
 * @file
 * Multi-process sweep sharding: fork-per-shard execution of
 * independent simulation batches (camosim --shard-procs=N).
 *
 * Threads share one heap and one allocator; past a few workers the
 * sweep stops scaling on allocator and page-cache contention.
 * Sharding sidesteps that the way camosimd's crash isolation does —
 * with processes, through the same primitive (src/common/child.h):
 * the batch is split round-robin over N forked children (shard s owns
 * indices i with i % procs == s), each child
 * runs its subset with the ordinary in-process engine
 * (runConfigsParallel / evaluateGenerationParallel) and writes ONE
 * length-prefixed JSON frame (src/common/frame.h) on its pipe, then
 * _exit(0)s. The parent reassembles results by index.
 *
 * Determinism contract (DESIGN.md §16): a job's seed is a pure
 * function of the job — never of the shard layout — so results are
 * byte-identical across jobs=1 / threads=N / procs=N (tests pin
 * this). Doubles cross the pipe as their IEEE-754 bit patterns
 * (decimal uint64 strings), not as formatted decimals, so the
 * round-trip is exact. Each result frame is authenticated with
 * deriveSeed(base, kShardSeedStream, shard): a truncated, crossed, or
 * foreign frame is rejected instead of silently mis-assigned.
 *
 * Child failures: a child that dies (signal, _exit without a frame)
 * or reports an error surfaces as the matching hard:: error in the
 * parent — one bad shard fails the call, never the process.
 */

#ifndef CAMO_SIM_SHARD_H
#define CAMO_SIM_SHARD_H

#include <cstdint>
#include <vector>

#include "src/ga/genetic.h"
#include "src/sim/parallel.h"
#include "src/sim/plan.h"
#include "src/sim/runner.h"

namespace camo::sim {

/**
 * runConfigsParallel split over `procs` forked shards, `jobs` worker
 * threads inside each (0 = defaultJobs()). procs <= 1 (or a 1-job
 * batch) degrades to the in-process engine — same results either
 * way. Fault injectors do not cross fork boundaries; injector-driven
 * runs use procs == 1.
 */
std::vector<RunMetrics>
runConfigsSharded(const std::vector<SimJob> &batch, unsigned jobs,
                  unsigned procs);

/**
 * evaluateGenerationParallel split over `procs` forked shards (the
 * offline GA's --shard-procs mode). Child fitness values cross the
 * pipe bit-exactly; procs <= 1 degrades to the in-process engine.
 */
std::vector<double> evaluateGenerationSharded(
    const SystemPlan &plan, const std::vector<ga::Genome> &children,
    std::uint64_t generation, const std::vector<double> &alone_rate,
    Cycle epoch_cycles, unsigned jobs, unsigned procs);

} // namespace camo::sim

#endif // CAMO_SIM_SHARD_H
