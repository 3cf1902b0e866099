/**
 * @file
 * gem5-style status and error reporting. fatal() is for user error
 * (bad configuration), panic() for internal invariant violations.
 */

#ifndef EQX_COMMON_LOGGING_HH
#define EQX_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace eqx {

/**
 * What eqx_fatal throws: a user error whose message is already on
 * stderr. Each CLI main catches it and exits with status 2; panics
 * (simulator bugs) are not caught and still abort.
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace detail {

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void fatalImpl(const std::string &msg, const char *file,
                            int line);
[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Global verbosity: 0 silences inform(), warnings always print. */
void setVerbosity(int level);
int verbosity();

} // namespace eqx

/** Abort with an error attributable to the user (bad config, bad args). */
#define eqx_fatal(...) \
    ::eqx::detail::fatalImpl(::eqx::detail::concat(__VA_ARGS__), __FILE__, \
                             __LINE__)

/** Abort on an internal invariant violation (a simulator bug). */
#define eqx_panic(...) \
    ::eqx::detail::panicImpl(::eqx::detail::concat(__VA_ARGS__), __FILE__, \
                             __LINE__)

/** Non-fatal warning about questionable behaviour. */
#define eqx_warn(...) \
    ::eqx::detail::warnImpl(::eqx::detail::concat(__VA_ARGS__))

/** Informational status message (suppressed at verbosity 0). */
#define eqx_inform(...) \
    ::eqx::detail::informImpl(::eqx::detail::concat(__VA_ARGS__))

/** Panic unless a simulator invariant holds. */
#define eqx_assert(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::eqx::detail::panicImpl(                                      \
                ::eqx::detail::concat("assertion failed: " #cond " ",      \
                                      ##__VA_ARGS__),                      \
                __FILE__, __LINE__);                                       \
        }                                                                  \
    } while (0)

#endif // EQX_COMMON_LOGGING_HH
