/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic() is for internal invariant violations (simulator bugs) and
 * aborts; fatal() is for user/configuration errors and exits cleanly.
 * strCat() builds their messages.
 */

#ifndef UQSIM_CORE_LOGGING_HH
#define UQSIM_CORE_LOGGING_HH

#include <sstream>
#include <string>

namespace uqsim {

/** Concatenate arbitrary streamable arguments into a std::string. */
template <typename... Args>
std::string
strCat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/**
 * Report an internal simulator bug and abort().
 * Call only for conditions that should be impossible regardless of
 * user input.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Report an unrecoverable user/configuration error and exit(1).
 * Call when the simulation cannot continue due to the user's fault
 * (bad configuration, invalid arguments), not a simulator bug.
 */
[[noreturn]] void fatal(const std::string &msg);

} // namespace uqsim

#endif // UQSIM_CORE_LOGGING_HH
