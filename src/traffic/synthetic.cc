/**
 * @file
 * The default traffic model: the legacy closed-loop PeTraceGen path
 * behind the registry. Byte-identical to the pre-registry wiring —
 * each PE gets a SyntheticSource seeded exactly as System used to
 * seed PeTraceGen directly.
 */

#include "traffic/registration.hh"
#include "traffic/traffic_model.hh"
#include "traffic/traffic_registry.hh"

namespace eqx {

namespace {

class SyntheticInstance final : public TrafficInstance
{
  public:
    SyntheticInstance(const WorkloadProfile &profile, std::uint64_t seed)
        : profile_(profile), seed_(seed)
    {
    }

    std::unique_ptr<TrafficSource>
    makeSource(int pe_index) override
    {
        return std::make_unique<SyntheticSource>(
            PeTraceGen(profile_, pe_index, seed_));
    }

  private:
    WorkloadProfile profile_;
    std::uint64_t seed_;
};

class SyntheticModel final : public TrafficModel
{
  public:
    std::string name() const override { return "synthetic"; }

    std::vector<std::string>
    aliases() const override
    {
        return {"default"};
    }

    std::unique_ptr<TrafficInstance>
    build(const TrafficBuild &b) const override
    {
        return std::make_unique<SyntheticInstance>(b.profile, b.seed);
    }
};

} // namespace

void
registerSyntheticTraffic(TrafficRegistry &r)
{
    r.add(std::make_unique<SyntheticModel>());
}

} // namespace eqx
