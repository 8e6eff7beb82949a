#include "common/logging.h"

#include <atomic>
#include <cstdio>

namespace boss
{
namespace detail
{

namespace
{
std::atomic<bool> g_verbose{true};
} // namespace

bool verboseEnabled() { return g_verbose.load(std::memory_order_relaxed); }

void setVerbose(bool enabled)
{
    g_verbose.store(enabled, std::memory_order_relaxed);
}

void
emitLog(std::string_view prefix, std::string_view msg,
        const char *file, int line)
{
    std::cerr << prefix << ": " << msg;
    if (file != nullptr)
        std::cerr << " [" << file << ":" << line << "]";
    std::cerr << std::endl;
}

void
panicImpl(std::string msg, const char *file, int line)
{
    emitLog("panic", msg, file, line);
    std::abort();
}

void
fatalImpl(std::string msg, const char *file, int line)
{
    emitLog("fatal", msg, file, line);
    // _Exit, not exit: exit() runs static destructors, and the global
    // ThreadPool's would join workers that may still be running (or,
    // in a forked death-test child, were never copied). Flush what
    // the process printed first, since _Exit does not.
    std::cout.flush();
    std::cerr.flush();
    std::fflush(nullptr);
    std::_Exit(1);
}

void
warnImpl(std::string msg, const char *file, int line)
{
    emitLog("warn", msg, file, line);
}

void
informImpl(std::string msg)
{
    if (verboseEnabled())
        std::cout << "info: " << msg << std::endl;
}

} // namespace detail
} // namespace boss
