/**
 * @file
 * Error-handling helpers.
 *
 * Follows the gem5 distinction between panic() (an internal invariant was
 * violated — a simulator bug; aborts) and fatal() (the user asked for
 * something invalid — a configuration error; throws so tests can check it).
 */

#ifndef ISOL_COMMON_LOGGING_HH
#define ISOL_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace isol
{

/** Thrown by fatal(): an invalid user configuration was requested. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Report an unrecoverable internal error (simulator bug) and abort. */
[[noreturn]] void panic(const std::string &msg);

/** Report an invalid user configuration by throwing FatalError. */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Build a message from stream-style arguments.
 * Example: fatal(strCat("bad apps=", n));
 */
template <typename... Args>
std::string
strCat(Args &&...args)
{
    std::ostringstream oss;
    (void)(oss << ... << args);
    return oss.str();
}

} // namespace isol

#endif // ISOL_COMMON_LOGGING_HH
