/**
 * @file
 * A small typed key/value configuration table with defaults, so every
 * experiment binary can override simulator parameters uniformly
 * (e.g. from "key=value" command-line arguments).
 *
 * The table remembers every key a getter or has() asked for, so a CLI
 * that has read all of its knobs can reject the rest: a misspelled or
 * misplaced knob fails loudly instead of silently running defaults.
 */

#ifndef EQX_COMMON_CONFIG_HH
#define EQX_COMMON_CONFIG_HH

#include <map>
#include <set>
#include <string>
#include <vector>

namespace eqx {

/** String-keyed configuration with typed accessors and defaults. */
class Config
{
  public:
    Config() = default;

    /** Set a value, overriding any previous one. */
    void set(const std::string &key, const std::string &value);

    /** Typed getters returning the fallback when the key is absent.
     *  Integers parse in base 10 only. */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    long getInt(const std::string &key, long fallback = 0) const;
    double getDouble(const std::string &key, double fallback = 0.0) const;
    bool getBool(const std::string &key, bool fallback = false) const;

    bool has(const std::string &key) const;

    /** Parse "key=value" tokens (e.g. argv tail); bad tokens -> fatal. */
    void parseArgs(const std::vector<std::string> &tokens);

    /**
     * Fatal unless every set key was asked for by a getter or has(),
     * naming each unread key and the nearest read key within two
     * edits. Also seals the table: the first read of a new key after
     * this is a panic, so a knob read lazily cannot slip past the
     * check. Re-reading a known key stays legal and mutates nothing.
     */
    void rejectUnused();

    const std::map<std::string, std::string> &all() const { return kv_; }

  private:
    /** The value stored under @p key (nullptr if unset); records the
     *  read. */
    const std::string *lookup(const std::string &key) const;

    std::map<std::string, std::string> kv_;
    mutable std::set<std::string> read_;
    bool sealed_ = false;
};

/** argv[1..argc) as a Config; a token without "key=" is fatal. */
Config parseCliArgs(int argc, char **argv);

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitList(const std::string &spec);

} // namespace eqx

#endif // EQX_COMMON_CONFIG_HH
