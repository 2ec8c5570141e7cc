#include "src/common/child.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/frame.h"

namespace camo::child {

namespace {

using Clock = std::chrono::steady_clock;

/** Close every descriptor above stdio except `keep`, so a child
 *  cannot hold its parent's sockets or other children's pipes open. */
void
closeInheritedExcept(int keep)
{
#if defined(__linux__)
    if (keep > 3)
        ::close_range(3, static_cast<unsigned>(keep) - 1, 0);
    ::close_range(static_cast<unsigned>(std::max(keep, 2)) + 1, ~0u, 0);
#else
    const long hi = ::sysconf(_SC_OPEN_MAX);
    for (long fd = 3; fd < hi; ++fd)
        if (fd != keep)
            ::close(static_cast<int>(fd));
#endif
}

[[noreturn]] void
childMain(const Body &body, int fd, std::uint32_t max_bytes)
{
    closeInheritedExcept(fd);
    int code = 1;
    try {
        const Reply r = body();
        frame::writeFrame(fd, r.payload, max_bytes);
        code = r.exitCode;
    } catch (...) {
    }
    ::_exit(code);
}

int
reap(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

} // namespace

Child::Child(const Body &body, std::uint32_t max_bytes)
    : maxBytes_(max_bytes)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        spawnError_ = std::string("cannot create pipe: ") +
                      std::strerror(errno);
        return;
    }
    pid_ = ::fork();
    if (pid_ == 0) {
        ::close(fds[0]);
        childMain(body, fds[1], max_bytes);
    }
    if (pid_ < 0) {
        spawnError_ = std::string("cannot fork: ") + std::strerror(errno);
        ::close(fds[0]);
        ::close(fds[1]);
        return;
    }
    ::close(fds[1]);
    fd_ = fds[0];
}

Child::Child(Child &&other) noexcept
    : pid_(other.pid_), fd_(other.fd_), maxBytes_(other.maxBytes_),
      spawnError_(std::move(other.spawnError_))
{
    other.pid_ = -1;
    other.fd_ = -1;
}

Child::~Child()
{
    if (pid_ < 0)
        return;
    ::close(fd_);
    ::kill(pid_, SIGKILL);
    reap(pid_);
}

Result
Child::collect(std::uint64_t deadline_ms, const std::atomic<bool> *cancel)
{
    Result r;
    if (pid_ < 0) {
        r.ending = Ending::SpawnFailed;
        r.spawnError = spawnError_;
        return r;
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(deadline_ms);
    Ending killed = Ending::NoFrame; // Deadline or Canceled once killed
    bool eof = false;
    std::string raw;
    char buf[1 << 16];
    for (;;) {
        int timeout = -1;
        if (killed == Ending::NoFrame && (deadline_ms > 0 || cancel)) {
            const Clock::time_point now = Clock::now();
            if (cancel && cancel->load(std::memory_order_relaxed))
                killed = Ending::Canceled;
            else if (deadline_ms > 0 && now >= deadline)
                killed = Ending::Deadline;
            if (killed != Ending::NoFrame) {
                ::kill(pid_, SIGKILL);
            } else {
                // Wake at the deadline itself; now < deadline, so the
                // rounded-up wait is at least 1 ms, never "forever".
                timeout = kPollSliceMs;
                if (deadline_ms > 0)
                    timeout = static_cast<int>(std::min<long long>(
                        timeout,
                        std::chrono::ceil<std::chrono::milliseconds>(
                            deadline - now)
                            .count()));
            }
        }
        struct pollfd pfd = {fd_, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, timeout);
        if (pr < 0 && errno == EINTR)
            continue;
        if (pr < 0)
            break;
        if (pr == 0)
            continue;
        const ssize_t n = ::read(fd_, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            eof = n == 0; // EOF: the child exited or was killed
            break;
        }
        raw.append(buf, static_cast<std::size_t>(n));
        if (raw.size() > frame::kHeaderBytes + maxBytes_)
            break; // runaway child
    }
    // Stopped before EOF: the child may still be running, and
    // waitpid() must not wait on it.
    if (!eof)
        ::kill(pid_, SIGKILL);
    ::close(fd_);
    r.status = reap(pid_);
    pid_ = -1;
    fd_ = -1;

    if (killed != Ending::NoFrame) {
        r.ending = killed;
        return r;
    }
    if (eof && raw.size() >= frame::kHeaderBytes) {
        const std::uint32_t len = frame::decodeLength(
            reinterpret_cast<const unsigned char *>(raw.data()));
        if (len <= maxBytes_ && raw.size() == frame::kHeaderBytes + len) {
            raw.erase(0, frame::kHeaderBytes);
            r.payload = std::move(raw);
            r.ending = Ending::Frame;
        }
    }
    return r;
}

Result
run(const Body &body, std::uint32_t max_bytes, std::uint64_t deadline_ms,
    const std::atomic<bool> *cancel)
{
    return Child(body, max_bytes).collect(deadline_ms, cancel);
}

} // namespace camo::child
