#include "common/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

namespace eqx {

namespace {

std::atomic<int> gVerbosity{1};

/**
 * Serializes warn/inform output so concurrent jobs (JobPool workers)
 * never shear lines. fatal/panic also take it: their message should
 * land intact before the exception unwinds.
 */
std::mutex &
logMutex()
{
    static std::mutex mu;
    return mu;
}

} // namespace

void
setVerbosity(int level)
{
    gVerbosity.store(level, std::memory_order_relaxed);
}

int
verbosity()
{
    return gVerbosity.load(std::memory_order_relaxed);
}

namespace detail {

void
fatalImpl(const std::string &msg, const char *file, int line)
{
    {
        std::lock_guard<std::mutex> lock(logMutex());
        std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file,
                     line);
    }
    // Throw instead of exit(1) so tests can observe fatal conditions.
    throw FatalError("fatal: " + msg);
}

void
panicImpl(const std::string &msg, const char *file, int line)
{
    {
        std::lock_guard<std::mutex> lock(logMutex());
        std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file,
                     line);
    }
    throw std::logic_error("panic: " + msg);
}

void
warnImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(logMutex());
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (verbosity() > 0) {
        std::lock_guard<std::mutex> lock(logMutex());
        std::fprintf(stdout, "info: %s\n", msg.c_str());
    }
}

} // namespace detail
} // namespace eqx
