#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace isol
{

namespace
{
// Process-wide log threshold; set once at startup (CLI flag) and
// read-only during runs, per DESIGN.md §7.
LogLevel g_level = LogLevel::kWarn;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO";
      case LogLevel::kWarn: return "WARN";
      case LogLevel::kError: return "ERROR";
    }
    return "?";
}
} // namespace

LogLevel
logLevel()
{
    return g_level;
}

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

void
logMessage(LogLevel level, const std::string &msg)
{
    if (static_cast<int>(level) < static_cast<int>(g_level))
        return;
    std::fprintf(stderr, "[%s] %s\n", levelName(level), msg.c_str());
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "[PANIC] %s\n", msg.c_str());
    std::abort();
}

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

} // namespace isol
