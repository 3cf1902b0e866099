#include "common/config.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "common/logging.hh"

namespace eqx {

namespace {

/** Levenshtein distance, for the misspelled-knob suggestion. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t up = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

} // namespace

void
Config::set(const std::string &key, const std::string &value)
{
    kv_[key] = value;
}

const std::string *
Config::lookup(const std::string &key) const
{
    if (!read_.count(key)) {
        if (sealed_)
            eqx_panic("config key '", key,
                      "' first read after rejectUnused()");
        read_.insert(key);
    }
    auto it = kv_.find(key);
    return it == kv_.end() ? nullptr : &it->second;
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    const std::string *v = lookup(key);
    return v ? *v : fallback;
}

long
Config::getInt(const std::string &key, long fallback) const
{
    const std::string *s = lookup(key);
    if (!s)
        return fallback;
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(s->c_str(), &end, 10);
    if (end == s->c_str() || *end != '\0' || errno == ERANGE)
        eqx_fatal("config key '", key, "' is not an integer: ", *s);
    return v;
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    const std::string *s = lookup(key);
    if (!s)
        return fallback;
    // from_chars: config values parse identically no matter the
    // process LC_NUMERIC (strtod would reject "1.5" under a
    // comma-decimal locale). A leading '+' stays accepted for
    // compatibility with the old strtod behavior.
    const char *first = s->c_str();
    const char *last = first + s->size();
    if (first != last && *first == '+')
        ++first;
    double v = 0.0;
    auto r = std::from_chars(first, last, v);
    if (r.ptr == first || r.ptr != last)
        eqx_fatal("config key '", key, "' is not a number: ", *s);
    return v;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    const std::string *s = lookup(key);
    if (!s)
        return fallback;
    if (*s == "true" || *s == "1" || *s == "yes")
        return true;
    if (*s == "false" || *s == "0" || *s == "no")
        return false;
    eqx_fatal("config key '", key, "' is not a boolean: ", *s);
}

bool
Config::has(const std::string &key) const
{
    return lookup(key) != nullptr;
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

void
Config::rejectUnused()
{
    sealed_ = true;
    std::string unknown;
    for (const auto &[key, value] : kv_) {
        if (read_.count(key))
            continue;
        unknown += (unknown.empty() ? "" : "; ") +
                   ("unknown knob '" + key + "'");
        // Suggest the nearest knob that was asked for, within 2 edits.
        auto near = std::min_element(
            read_.begin(), read_.end(), [&](const auto &a, const auto &b) {
                return editDistance(key, a) < editDistance(key, b);
            });
        if (near != read_.end() && editDistance(key, *near) <= 2)
            unknown += " (did you mean '" + *near + "'?)";
    }
    if (!unknown.empty())
        eqx_fatal(unknown);
}

Config
parseCliArgs(int argc, char **argv)
{
    Config cfg;
    if (argc > 1)
        cfg.parseArgs(std::vector<std::string>(argv + 1, argv + argc));
    return cfg;
}

std::vector<std::string>
splitList(const std::string &spec)
{
    std::vector<std::string> out;
    for (std::size_t start = 0; start <= spec.size();) {
        std::size_t comma = std::min(spec.find(',', start), spec.size());
        if (comma > start)
            out.push_back(spec.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

} // namespace eqx
