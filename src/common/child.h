/**
 * @file
 * Run a function in a forked child and collect one framed payload.
 *
 * The one process boundary of the simulator: camosimd's crash-isolated
 * job worker (src/server/worker.h) and the multi-process sweep and GA
 * shards (src/sim/shard.h) both run their child through this file.
 * The child closes every descriptor it inherited except stdio and its
 * result pipe, runs the body, writes the body's payload up the pipe as
 * one camo::frame (bounded by the caller's cap) and _exit()s with the
 * body's exit code, skipping destructors and atexit hooks. The parent
 * reads to end of stream, optionally under a wall-clock deadline and a
 * cancel flag (either one SIGKILLs the child), always reaps the child,
 * and reports how it ended. What an ending means is the caller's
 * policy.
 */

#ifndef CAMO_COMMON_CHILD_H
#define CAMO_COMMON_CHILD_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include <sys/types.h>

namespace camo::child {

/** Longest the parent waits between deadline and cancel checks. */
inline constexpr int kPollSliceMs = 20;

/** What the body hands back from inside the child. */
struct Reply
{
    std::string payload;
    int exitCode = 0; ///< the child's _exit() status
};

/** Runs inside the child. A body that throws ends the child with
 *  exit status 1 and no frame. */
using Body = std::function<Reply()>;

/** How a child ended, from the parent's view. */
enum class Ending
{
    Frame,       ///< exactly one frame within the cap, then EOF
    NoFrame,     ///< exited or died without a complete frame
    Deadline,    ///< deadline passed; child killed
    Canceled,    ///< cancel flag observed; child killed
    SpawnFailed, ///< no pipe or no process could be made; nothing ran
};

struct Result
{
    Ending ending = Ending::NoFrame;
    std::string payload;    ///< the frame's payload (Frame only)
    int status = 0;         ///< waitpid() status of the reaped child
    std::string spawnError; ///< which call failed and why (SpawnFailed)
};

/**
 * One forked child, started by the constructor and collected once.
 * Spawning several before collecting any lets them run side by side.
 * A child that is never collected is killed and reaped on
 * destruction, so no path leaks a process.
 */
class Child
{
  public:
    Child(const Body &body, std::uint32_t max_bytes);
    Child(Child &&other) noexcept;
    ~Child();

    /** Empty once the child runs; else why it could not start. */
    const std::string &spawnError() const { return spawnError_; }

    /**
     * Read the child's output to end of stream, reap it, and classify.
     * @param deadline_ms wall-clock budget from this call (0 = none)
     * @param cancel      polled every kPollSliceMs (may be null)
     */
    Result collect(std::uint64_t deadline_ms = 0,
                   const std::atomic<bool> *cancel = nullptr);

  private:
    pid_t pid_ = -1;
    int fd_ = -1;
    std::uint32_t maxBytes_;
    std::string spawnError_;
};

/** Spawn one child and collect it. */
Result run(const Body &body, std::uint32_t max_bytes,
           std::uint64_t deadline_ms = 0,
           const std::atomic<bool> *cancel = nullptr);

} // namespace camo::child

#endif // CAMO_COMMON_CHILD_H
