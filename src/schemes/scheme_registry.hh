/**
 * @file
 * Process-wide registry of SchemeModels: the shared name/alias
 * registry (common/named_registry.hh) plus the legacy Scheme enum map.
 * The singleton registers the built-in schemes in the paper's
 * comparison order (see registration.hh); a default-constructed
 * registry is empty, for tests.
 */

#ifndef EQX_SCHEMES_SCHEME_REGISTRY_HH
#define EQX_SCHEMES_SCHEME_REGISTRY_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/named_registry.hh"
#include "schemes/scheme_model.hh"

namespace eqx {

class SchemeRegistry : public NamedRegistry<SchemeModel>
{
  public:
    /** The global registry, populated with every built-in scheme. */
    static SchemeRegistry &instance();

    /** An empty registry (tests build private ones). */
    SchemeRegistry() : NamedRegistry("scheme", "schemes") {}

    /**
     * Register a model under its name, aliases and legacy enum.
     * Rejects (returns false, registers nothing) when any key or the
     * enum value collides with an earlier registration.
     */
    bool add(std::unique_ptr<SchemeModel> model);

    /** The model behind a legacy enum value (fatal when unmapped). */
    const SchemeModel &byEnum(Scheme s) const;

  private:
    std::map<Scheme, const SchemeModel *> byEnum_;
};

/** Canonical names of the paper's seven schemes, comparison order. */
std::vector<std::string> paperSchemeNames();

/** Canonical names of every registered scheme, registration order. */
std::vector<std::string> allSchemeNames();

} // namespace eqx

#endif // EQX_SCHEMES_SCHEME_REGISTRY_HH
