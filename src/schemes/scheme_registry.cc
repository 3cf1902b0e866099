#include "schemes/scheme_registry.hh"

#include "common/logging.hh"
#include "schemes/registration.hh"

namespace eqx {

SchemeRegistry &
SchemeRegistry::instance()
{
    static SchemeRegistry reg = [] {
        SchemeRegistry r;
        registerSingleSchemes(r);
        registerCmeshSchemes(r);
        registerSeparateBaseSchemes(r);
        registerDa2MeshSchemes(r);
        registerMultiPortSchemes(r);
        registerEquiNoxSchemes(r);
        registerEquiNoxXySchemes(r);
        registerTopologyVariantSchemes(r);
        return r;
    }();
    return reg;
}

bool
SchemeRegistry::add(std::unique_ptr<SchemeModel> model)
{
    const SchemeModel *m = model.get();
    auto e = m->legacyEnum();
    if (e && byEnum_.count(*e))
        return false;
    if (!NamedRegistry::add(std::move(model)))
        return false;
    if (e)
        byEnum_[*e] = m;
    return true;
}

const SchemeModel &
SchemeRegistry::byEnum(Scheme s) const
{
    auto it = byEnum_.find(s);
    if (it == byEnum_.end())
        eqx_fatal("no scheme model registered for enum value ",
                  static_cast<int>(s));
    return *it->second;
}

std::vector<std::string>
paperSchemeNames()
{
    std::vector<std::string> out;
    for (const SchemeModel *m : SchemeRegistry::instance().models())
        if (m->legacyEnum())
            out.push_back(m->name());
    return out;
}

std::vector<std::string>
allSchemeNames()
{
    return SchemeRegistry::instance().names();
}

// ---- legacy sim/scheme.hh helper, now a registry lookup ----

const char *
schemeName(Scheme s)
{
    return SchemeRegistry::instance().byEnum(s).name();
}

} // namespace eqx
