#include "runner/subprocess.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string_view>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/io_util.hh"
#include "common/logging.hh"

namespace scsim::runner {

namespace {

using Clock = std::chrono::steady_clock;

/** Grace between SIGTERM and SIGKILL when the deadline fires. */
constexpr auto kKillGrace = std::chrono::seconds(2);

/** Poll interval: how often the deadline is checked, and how long the
 *  pipes must stay quiet after the child is reaped. */
constexpr int kPollMs = 100;

/** waitpid(WNOHANG) interval once the pipes are closed, when there is
 *  no pidfd to wake on the child's exit: a child that closed them is
 *  usually exiting. */
constexpr int kReapPollMs = 1;

/** Bytes taken from a pipe per read(). */
constexpr std::size_t kReadChunk = 64 * 1024;

void
setNonblocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

struct Pipe
{
    int fds[2] = { -1, -1 };

    ~Pipe()
    {
        closeFd(fds[0]);
        closeFd(fds[1]);
    }

    void
    open()
    {
        if (pipe2(fds, O_CLOEXEC) != 0)
            scsim_throw(SimError, "pipe2 failed: %s",
                        std::strerror(errno));
    }

    int &rd() { return fds[0]; }
    int &wr() { return fds[1]; }
};

/** A descriptor closed when it goes out of scope. */
struct OwnedFd
{
    explicit OwnedFd(int f) : fd(f) {}
    OwnedFd(const OwnedFd &) = delete;
    OwnedFd &operator=(const OwnedFd &) = delete;
    ~OwnedFd() { closeFd(fd); }

    int fd;
};

void
appendTail(std::string &tail, std::string_view text, std::size_t cap)
{
    tail.append(text);
    if (tail.size() > cap)
        tail.erase(0, tail.size() - cap);
}

/** One read() from the nonblocking @p fd, handed to @p sink; closes
 *  @p fd at EOF or on a hard error. */
template <class Sink>
void
readChunk(int &fd, Sink &&sink)
{
    char buf[kReadChunk];
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0)
        sink(buf, static_cast<std::size_t>(n));
    else if (n == 0 || (errno != EAGAIN && errno != EINTR))
        closeFd(fd);
}

/** runSubprocess, watching the child's exit through a pidfd when
 *  @p usePidfd and pidfd_open succeeds, else by polling waitpid. */
SubprocessResult
spawnAndWait(const std::vector<std::string> &argv, const std::string &input,
             double timeoutSec, std::size_t tailBytes, bool usePidfd)
{
    if (argv.empty())
        scsim_throw(SimError, "runSubprocess needs a non-empty argv");
    ignoreSigpipe();

    Pipe in, out, err;
    in.open();
    out.open();
    err.open();

    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);

    // The child shares the parent's memory until it execs (no
    // copy-on-write of the parent's pages), with the pipes wired to
    // its stdio on the way.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in.rd(), STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out.wr(), STDOUT_FILENO);
    posix_spawn_file_actions_adddup2(&actions, err.wr(), STDERR_FILENO);
    pid_t pid = -1;
    int spawnErr = ::posix_spawn(&pid, cargv[0], &actions, nullptr,
                                 cargv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);

    SubprocessResult res;
    if (spawnErr != 0) {
        // No child is left to reap; 127 is the shell's exec-failure
        // convention.
        res.exitCode = 127;
        appendTail(res.stderrTail,
                   detail::format("cannot spawn %s: %s\n", cargv[0],
                                  std::strerror(spawnErr)),
                   tailBytes);
        return res;
    }

    // Parent: close the child's ends, then pump all three pipes and
    // watch the child's exit from one poll loop, so a chatty child can
    // never deadlock against a large stdin payload and its exit wakes
    // the loop at once.
    closeFd(in.rd());
    closeFd(out.wr());
    closeFd(err.wr());
    setNonblocking(in.wr());
    setNonblocking(out.rd());
    setNonblocking(err.rd());
    // The pidfd turns readable when the child exits.  Without one
    // (Linux before 5.3, or a seccomp profile that denies pidfd_open),
    // the loop polls waitpid(WNOHANG).  The raw syscall: glibc 2.36's
    // <sys/pidfd.h> declares pidfd_open without C linkage, so C++
    // cannot link against it.
    OwnedFd exitFd{ usePidfd
                        ? static_cast<int>(::syscall(SYS_pidfd_open, pid, 0))
                        : -1 };

    std::size_t written = 0;
    bool sentTerm = false, sentKill = false;
    bool reaped = false;
    int status = 0;

    auto start = Clock::now();
    auto deadline = timeoutSec > 0
        ? start + std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(timeoutSec))
        : Clock::time_point::max();

    auto escalate = [&] {
        auto now = Clock::now();
        if (!sentTerm && now >= deadline) {
            res.timedOut = true;
            ::kill(pid, SIGTERM);
            sentTerm = true;
        } else if (sentTerm && !sentKill && now >= deadline + kKillGrace) {
            ::kill(pid, SIGKILL);
            sentKill = true;
        }
    };

    for (;;) {
        if (!reaped) {
            pid_t w = ::waitpid(pid, &status, WNOHANG);
            if (w == pid) {
                reaped = true;
            } else if (w < 0 && errno != EINTR) {
                reaped = true;  // not ours to reap (SIGCHLD ignored)
                status = 0;
            }
        }
        bool pipesOpen = in.wr() >= 0 || out.rd() >= 0 || err.rd() >= 0;
        if (reaped && !pipesOpen)
            break;
        struct pollfd fds[4];
        int nfds = 0;
        int inSlot = -1, outSlot = -1, errSlot = -1;
        if (in.wr() >= 0) {
            inSlot = nfds;
            fds[nfds++] = { in.wr(), POLLOUT, 0 };
        }
        if (out.rd() >= 0) {
            outSlot = nfds;
            fds[nfds++] = { out.rd(), POLLIN, 0 };
        }
        if (err.rd() >= 0) {
            errSlot = nfds;
            fds[nfds++] = { err.rd(), POLLIN, 0 };
        }
        if (!reaped && exitFd.fd >= 0)
            fds[nfds++] = { exitFd.fd, POLLIN, 0 };

        bool waitpidOnly = exitFd.fd < 0 && !pipesOpen;
        int rc = ::poll(fds, static_cast<nfds_t>(nfds),
                        waitpidOnly ? kReapPollMs : kPollMs);
        if (rc < 0 && errno != EINTR) {
            // poll itself fails: stop pumping and only poll waitpid
            // for the child (the deadline still holds).
            closeFd(in.wr());
            closeFd(out.rd());
            closeFd(err.rd());
            closeFd(exitFd.fd);
        }
        escalate();
        if (rc == 0 && reaped) {
            // The child was reaped and a whole poll interval passed
            // with nothing to read: any pipe still open is held by an
            // orphaned grandchild (`sh -c` leaves one when killed),
            // and nobody is waiting for its output.
            break;
        }
        if (rc <= 0)
            continue;  // the deadline's tick, or a signal (EINTR)

        if (inSlot >= 0 && (fds[inSlot].revents & (POLLOUT | POLLERR))) {
            if (written < input.size()) {
                ssize_t n = ::write(in.wr(), input.data() + written,
                                    input.size() - written);
                if (n > 0)
                    written += static_cast<std::size_t>(n);
                else if (n < 0 && errno != EAGAIN && errno != EINTR)
                    closeFd(in.wr());  // EPIPE: child is gone
            }
            if (written >= input.size())
                closeFd(in.wr());  // EOF tells the child "record done"
        }
        if (outSlot >= 0
            && (fds[outSlot].revents & (POLLIN | POLLHUP | POLLERR)))
            readChunk(out.rd(), [&](const char *buf, std::size_t n) {
                res.stdoutText.append(buf, n);
            });
        if (errSlot >= 0
            && (fds[errSlot].revents & (POLLIN | POLLHUP | POLLERR)))
            readChunk(err.rd(), [&](const char *buf, std::size_t n) {
                appendTail(res.stderrTail, std::string_view(buf, n),
                           tailBytes);
            });
    }

    if (WIFEXITED(status))
        res.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        res.termSignal = WTERMSIG(status);
    return res;
}

} // namespace

std::string
currentExecutablePath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        scsim_throw(SimError, "cannot resolve /proc/self/exe: %s",
                    std::strerror(errno));
    return std::string(buf, static_cast<std::size_t>(n));
}

SubprocessResult
runSubprocess(const std::vector<std::string> &argv,
              const std::string &input, double timeoutSec,
              std::size_t tailBytes)
{
    return spawnAndWait(argv, input, timeoutSec, tailBytes, true);
}

SubprocessResult
runSubprocessWithoutPidfd(const std::vector<std::string> &argv,
                          const std::string &input, double timeoutSec,
                          std::size_t tailBytes)
{
    return spawnAndWait(argv, input, timeoutSec, tailBytes, false);
}

} // namespace scsim::runner
