/**
 * @file
 * Case-insensitive name registry shared by SchemeRegistry and
 * TrafficRegistry: each model is reachable under its canonical name
 * and its aliases (matched case-insensitively), models() keeps
 * registration order, and byName() is fatal with the registered key
 * list. A default-constructed registry is empty, for tests.
 *
 * Model needs `name()` (std::string or const char *) and
 * `std::vector<std::string> aliases()`.
 */

#ifndef EQX_COMMON_NAMED_REGISTRY_HH
#define EQX_COMMON_NAMED_REGISTRY_HH

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace eqx {

template <class Model>
class NamedRegistry
{
  public:
    NamedRegistry(const NamedRegistry &) = delete;
    NamedRegistry &operator=(const NamedRegistry &) = delete;
    NamedRegistry(NamedRegistry &&) = default;
    NamedRegistry &operator=(NamedRegistry &&) = default;

    /**
     * Register a model under its name and aliases. Rejects (returns
     * false, registers nothing) when any key collides with an earlier
     * registration.
     */
    bool
    add(std::unique_ptr<Model> model)
    {
        std::vector<std::string> keys{lowered(model->name())};
        for (const auto &a : model->aliases())
            keys.push_back(lowered(a));
        for (const auto &k : keys)
            if (byKey_.count(k))
                return false;

        const Model *m = model.get();
        owned_.push_back(std::move(model));
        order_.push_back(m);
        for (const auto &k : keys)
            byKey_[k] = m;
        return true;
    }

    /** Case-insensitive lookup by name or alias; null when unknown. */
    const Model *
    find(std::string_view key) const
    {
        auto it = byKey_.find(lowered(key));
        return it == byKey_.end() ? nullptr : it->second;
    }

    /** Like find(), but fatal (listing the registered keys). */
    const Model &
    byName(std::string_view key) const
    {
        const Model *m = find(key);
        if (!m)
            eqx_fatal("unknown ", kind_, " '", std::string(key),
                      "'; registered ", plural_, ": ", keyList());
        return *m;
    }

    /** Every registered model, in registration order. */
    const std::vector<const Model *> &models() const { return order_; }

    /** Canonical names, registration order. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        for (const Model *m : order_)
            out.emplace_back(m->name());
        return out;
    }

    /** "name1, name2, ..." — for error messages and usage. */
    std::string
    keyList() const
    {
        std::string out;
        for (const Model *m : order_) {
            if (!out.empty())
                out += ", ";
            out += m->name();
        }
        return out;
    }

  protected:
    /** @p kind and @p plural word the byName() fatal: "unknown <kind>
     *  'key'; registered <plural>: ...". */
    NamedRegistry(const char *kind, const char *plural)
        : kind_(kind), plural_(plural)
    {
    }

  private:
    static std::string
    lowered(std::string_view s)
    {
        std::string out(s);
        for (char &c : out)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        return out;
    }

    const char *kind_;
    const char *plural_;
    std::vector<std::unique_ptr<Model>> owned_;
    std::vector<const Model *> order_;
    std::map<std::string, const Model *, std::less<>> byKey_;
};

} // namespace eqx

#endif // EQX_COMMON_NAMED_REGISTRY_HH
