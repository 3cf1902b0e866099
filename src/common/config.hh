/**
 * @file
 * A small typed key/value configuration table with defaults, so every
 * experiment binary can override simulator parameters uniformly
 * (e.g. from "key=value" command-line arguments).
 */

#ifndef EQX_COMMON_CONFIG_HH
#define EQX_COMMON_CONFIG_HH

#include <map>
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

    /** Typed getters returning the fallback when the key is absent. */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    long getInt(const std::string &key, long fallback = 0) const;
    double getDouble(const std::string &key, double fallback = 0.0) const;
    bool getBool(const std::string &key, bool fallback = false) const;

    bool has(const std::string &key) const;

    /** Parse "key=value" tokens (e.g. argv tail); bad tokens -> fatal. */
    void parseArgs(const std::vector<std::string> &tokens);

    const std::map<std::string, std::string> &all() const { return kv_; }

  private:
    std::map<std::string, std::string> kv_;
};

} // namespace eqx

#endif // EQX_COMMON_CONFIG_HH
