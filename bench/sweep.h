/**
 * @file
 * Shared sweep helper for the bench drivers: collect the independent
 * runConfig() calls of a figure into a job list, fan them across the
 * worker pool, then print from the in-order results.
 *
 * Worker count comes from the CAMO_JOBS environment variable (or the
 * machine's core count when unset); CAMO_JOBS=1 recovers the
 * sequential loop. Results are byte-identical either way -- see the
 * determinism contract in src/sim/parallel.h.
 */

#ifndef CAMO_BENCH_SWEEP_H
#define CAMO_BENCH_SWEEP_H

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/sim/parallel.h"

namespace camo::bench {

using sim::SimJob;

/** Run every job (in parallel), results in submission order. */
inline std::vector<sim::RunMetrics>
sweep(const std::vector<SimJob> &jobs, unsigned num_jobs = 0)
{
    return sim::runConfigsParallel(jobs, num_jobs);
}

/**
 * argv[index] as an integer >= `min` (a positive integer by default),
 * or `fallback` when the argument is absent. Anything else (empty,
 * signed, trailing junk, out of range) prints a usage error and exits
 * 2 before any simulation starts.
 */
inline std::uint64_t
positiveArg(int argc, char **argv, int index, std::uint64_t fallback,
            const char *usage, std::uint64_t min = 1)
{
    if (index >= argc)
        return fallback;
    const char *s = argv[index];
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (*s < '0' || *s > '9' || *end != '\0' || errno == ERANGE ||
        v < min) {
        std::fprintf(stderr,
                     "%s: argument %d must be an integer >= %llu, got "
                     "'%s'\nusage: %s %s\n",
                     argv[0], index, static_cast<unsigned long long>(min),
                     s, argv[0], usage);
        std::exit(2);
    }
    return v;
}

} // namespace camo::bench

#endif // CAMO_BENCH_SWEEP_H
