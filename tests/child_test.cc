/**
 * @file
 * Tests for camo::child, the one fork-and-collect primitive under the
 * camosimd worker and the sweep/GA shards: how each way a child can
 * end is classified, that deadline and cancel kill and reap it, and
 * that the child keeps no descriptor of its parent but stdio and its
 * result pipe.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/child.h"

using namespace camo;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kCap = 1024;
constexpr int kMaxFd = 1024;

bool
fdOpen(int fd)
{
    return ::fcntl(fd, F_GETFD) != -1;
}

/** Inside a child: the one descriptor above stdio, its result pipe. */
int
resultFd()
{
    for (int fd = 3; fd < kMaxFd; ++fd)
        if (fdOpen(fd))
            return fd;
    return -1;
}

void
writeRaw(const void *data, std::size_t len)
{
    if (::write(resultFd(), data, len) < 0)
        ::_exit(99);
}

[[noreturn]] child::Reply
sleepForever()
{
    for (;;)
        ::pause();
}

/** True once every child of this process has been reaped. */
bool
noChildLeft()
{
    int status = 0;
    return ::waitpid(-1, &status, WNOHANG) == -1 && errno == ECHILD;
}

long long
msSince(Clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now() - t0)
        .count();
}

} // namespace

TEST(Child, FrameRoundTripCarriesPayloadAndExitCode)
{
    const child::Result r = child::run(
        [] { return child::Reply{"hello, parent", 7}; }, kCap);
    ASSERT_EQ(r.ending, child::Ending::Frame);
    EXPECT_EQ(r.payload, "hello, parent");
    ASSERT_TRUE(WIFEXITED(r.status));
    EXPECT_EQ(WEXITSTATUS(r.status), 7);
    EXPECT_TRUE(noChildLeft());
}

TEST(Child, SignalDeathWithoutFrame)
{
    const child::Result r = child::run(
        [] {
            ::kill(::getpid(), SIGKILL);
            return child::Reply{"never sent"};
        },
        kCap);
    EXPECT_EQ(r.ending, child::Ending::NoFrame);
    ASSERT_TRUE(WIFSIGNALED(r.status));
    EXPECT_EQ(WTERMSIG(r.status), SIGKILL);
    EXPECT_TRUE(r.payload.empty());
}

TEST(Child, ExitWithoutFrame)
{
    const child::Result r = child::run(
        []() -> child::Reply { ::_exit(3); }, kCap);
    EXPECT_EQ(r.ending, child::Ending::NoFrame);
    ASSERT_TRUE(WIFEXITED(r.status));
    EXPECT_EQ(WEXITSTATUS(r.status), 3);

    // A body that throws exits 1 without a frame.
    const child::Result threw = child::run(
        []() -> child::Reply { throw std::runtime_error("boom"); },
        kCap);
    EXPECT_EQ(threw.ending, child::Ending::NoFrame);
    ASSERT_TRUE(WIFEXITED(threw.status));
    EXPECT_EQ(WEXITSTATUS(threw.status), 1);
}

TEST(Child, OversizeAndTruncatedFramesAreNoFrame)
{
    // A reply above the cap is never written.
    const child::Result big = child::run(
        [] { return child::Reply{std::string(kCap + 1, 'x')}; }, kCap);
    EXPECT_EQ(big.ending, child::Ending::NoFrame);
    ASSERT_TRUE(WIFEXITED(big.status));
    EXPECT_EQ(WEXITSTATUS(big.status), 0);

    // A header announcing more than the cap.
    const child::Result hdr = child::run(
        []() -> child::Reply {
            const unsigned char h[4] = {0xff, 0xff, 0xff, 0x7f};
            writeRaw(h, sizeof h);
            ::_exit(0);
        },
        kCap);
    EXPECT_EQ(hdr.ending, child::Ending::NoFrame);

    // A body shorter than its header, then EOF.
    const child::Result cut = child::run(
        []() -> child::Reply {
            const unsigned char h[4] = {100, 0, 0, 0};
            writeRaw(h, sizeof h);
            writeRaw("abc", 3);
            ::_exit(0);
        },
        kCap);
    EXPECT_EQ(cut.ending, child::Ending::NoFrame);

    // A frame followed by trailing bytes is not one frame.
    const child::Result trail = child::run(
        [] {
            const unsigned char h[4] = {2, 0, 0, 0};
            writeRaw(h, sizeof h);
            writeRaw("ok", 2);
            return child::Reply{"again"};
        },
        kCap);
    EXPECT_EQ(trail.ending, child::Ending::NoFrame);

    // A runaway writer past the cap is killed, not waited on.
    const child::Result runaway = child::run(
        []() -> child::Reply {
            const std::string junk(4096, 'j');
            for (;;)
                writeRaw(junk.data(), junk.size());
        },
        kCap);
    EXPECT_EQ(runaway.ending, child::Ending::NoFrame);
    EXPECT_TRUE(WIFSIGNALED(runaway.status));
    EXPECT_TRUE(noChildLeft());
}

TEST(Child, WedgedChildIsKilledAndReapedAtTheDeadline)
{
    constexpr std::uint64_t kDeadlineMs = 200;
    const Clock::time_point t0 = Clock::now();
    const child::Result r = child::run(sleepForever, kCap, kDeadlineMs);
    const long long took = msSince(t0);
    EXPECT_EQ(r.ending, child::Ending::Deadline);
    ASSERT_TRUE(WIFSIGNALED(r.status));
    EXPECT_EQ(WTERMSIG(r.status), SIGKILL);
    EXPECT_GE(took, static_cast<long long>(kDeadlineMs));
    EXPECT_LT(took, static_cast<long long>(kDeadlineMs) +
                        child::kPollSliceMs);
    EXPECT_TRUE(noChildLeft());
}

TEST(Child, CancelFlagKillsTheChild)
{
    std::atomic<bool> cancel{false};
    std::thread flipper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        cancel.store(true);
    });
    const child::Result r = child::run(sleepForever, kCap, 0, &cancel);
    flipper.join();
    EXPECT_EQ(r.ending, child::Ending::Canceled);
    ASSERT_TRUE(WIFSIGNALED(r.status));
    EXPECT_EQ(WTERMSIG(r.status), SIGKILL);
    EXPECT_TRUE(noChildLeft());
}

TEST(Child, ParentDescriptorsAreClosedInTheChild)
{
    const int devnull = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(devnull, 0);
    const int high = ::fcntl(devnull, F_DUPFD, 100);
    ASSERT_GE(high, 100);
    const bool stderrOpen = fdOpen(2);

    const child::Result r = child::run(
        [&] {
            int open = 0;
            for (int fd = 3; fd < kMaxFd; ++fd)
                open += fdOpen(fd) ? 1 : 0;
            std::string s = std::to_string(open);
            s += fdOpen(high) ? " high-open" : " high-closed";
            s += fdOpen(2) == stderrOpen ? " stderr-kept" : " stderr-lost";
            return child::Reply{s};
        },
        kCap);
    ASSERT_EQ(r.ending, child::Ending::Frame);
    EXPECT_EQ(r.payload, "1 high-closed stderr-kept");
    EXPECT_TRUE(fdOpen(high)) << "the parent's copy stays open";
    ::close(high);
    ::close(devnull);
}

TEST(Child, SpawnedChildrenRunSideBySideAndCollectInOrder)
{
    std::vector<child::Child> kids;
    for (int i = 0; i < 3; ++i) {
        kids.emplace_back(
            [i] { return child::Reply{"shard " + std::to_string(i)}; },
            kCap);
        ASSERT_TRUE(kids.back().spawnError().empty());
    }
    for (int i = 0; i < 3; ++i) {
        const child::Result r = kids[i].collect();
        ASSERT_EQ(r.ending, child::Ending::Frame);
        EXPECT_EQ(r.payload, "shard " + std::to_string(i));
    }
    EXPECT_TRUE(noChildLeft());
}

TEST(Child, UncollectedChildIsKilledAndReapedOnDestruction)
{
    const Clock::time_point t0 = Clock::now();
    {
        child::Child wedged(sleepForever, kCap);
        ASSERT_TRUE(wedged.spawnError().empty());
    }
    EXPECT_TRUE(noChildLeft());
    EXPECT_LT(msSince(t0), 5000);
}
