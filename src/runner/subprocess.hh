/**
 * @file
 * Child-process execution with capture, timeout, and kill escalation.
 *
 * runSubprocess() spawns an argv (posix_spawn), writes a byte string
 * to the child's stdin, and drains stdout fully (the result record) and
 * stderr as a bounded tail (crash forensics — a SIGSEGV banner or
 * sanitizer report is at the *end* of stderr, so the tail is what
 * matters).  A wall-clock deadline is enforced with SIGTERM, a short
 * grace period, then SIGKILL; the child can never outlive its parent's
 * patience.  The exit status is reported exactly as waitpid saw it:
 * exit code when the child exited, the fatal signal when it was
 * killed.  One poll loop serves the three pipes and the child's pidfd,
 * so the parent reaps the child the moment it exits.
 *
 * This is the mechanism behind `scsim_cli sweep --isolate`: each job
 * runs in its own address space, so a simulator bug that segfaults —
 * or an injected crash (common/fault_inject.hh) — costs one job, not
 * the campaign.
 */

#ifndef SCSIM_RUNNER_SUBPROCESS_HH
#define SCSIM_RUNNER_SUBPROCESS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace scsim::runner {

/** What became of one child process. */
struct SubprocessResult
{
    int exitCode = -1;       //!< WEXITSTATUS when exited; -1 otherwise
    int termSignal = 0;      //!< WTERMSIG when signalled; 0 otherwise
    bool timedOut = false;   //!< deadline fired (termSignal says how)
    std::string stdoutText;  //!< complete stdout
    std::string stderrTail;  //!< last @c tailBytes of stderr

    bool exitedCleanly() const { return termSignal == 0 && exitCode == 0; }
};

/**
 * Execute @p argv (argv[0] is the binary path), feed @p input to its
 * stdin, and wait for exit or @p timeoutSec (0 = no deadline).
 * Throws SimError only for an empty @p argv or when the pipes cannot
 * be made; every other outcome is reported in the result, a failed
 * spawn or exec included (exit 127, with the reason in stderrTail).
 */
SubprocessResult runSubprocess(const std::vector<std::string> &argv,
                               const std::string &input,
                               double timeoutSec,
                               std::size_t tailBytes = 8192);

/**
 * runSubprocess as it runs where pidfd_open fails (Linux before 5.3,
 * or a seccomp profile that denies the call): the child's exit is
 * found by polling waitpid(WNOHANG), every 1 ms once its pipes are
 * closed.  Same contract; tests drive that path through this.
 */
SubprocessResult runSubprocessWithoutPidfd(
    const std::vector<std::string> &argv, const std::string &input,
    double timeoutSec, std::size_t tailBytes = 8192);

/** Absolute path of the running executable (/proc/self/exe). */
std::string currentExecutablePath();

} // namespace scsim::runner

#endif // SCSIM_RUNNER_SUBPROCESS_HH
