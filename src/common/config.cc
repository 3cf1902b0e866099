#include "common/config.hh"

#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "common/logging.hh"

namespace eqx {

void
Config::set(const std::string &key, const std::string &value)
{
    kv_[key] = value;
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
}

long
Config::getInt(const std::string &key, long fallback) const
{
    auto it = kv_.find(key);
    if (it == kv_.end())
        return fallback;
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE)
        eqx_fatal("config key '", key, "' is not an integer: ", it->second);
    return v;
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    auto it = kv_.find(key);
    if (it == kv_.end())
        return fallback;
    // from_chars: config values parse identically no matter the
    // process LC_NUMERIC (strtod would reject "1.5" under a
    // comma-decimal locale). A leading '+' stays accepted for
    // compatibility with the old strtod behavior.
    const std::string &s = it->second;
    const char *first = s.c_str();
    const char *last = first + s.size();
    if (first != last && *first == '+')
        ++first;
    double v = 0.0;
    auto r = std::from_chars(first, last, v);
    if (r.ptr == first || r.ptr != last)
        eqx_fatal("config key '", key, "' is not a number: ", it->second);
    return v;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    auto it = kv_.find(key);
    if (it == kv_.end())
        return fallback;
    const std::string &s = it->second;
    if (s == "true" || s == "1" || s == "yes")
        return true;
    if (s == "false" || s == "0" || s == "no")
        return false;
    eqx_fatal("config key '", key, "' is not a boolean: ", s);
}

bool
Config::has(const std::string &key) const
{
    return kv_.count(key) > 0;
}

void
Config::parseArgs(const std::vector<std::string> &tokens)
{
    for (const auto &tok : tokens) {
        auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
            eqx_fatal("expected key=value argument, got '", tok, "'");
        kv_[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
}

} // namespace eqx
