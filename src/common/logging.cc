#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace isol
{

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
