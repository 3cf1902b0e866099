/**
 * @file
 * Coherence-style multi-flow traffic, modeled on the sesc-pleasetm
 * MESI traffic shape: the closed-loop synthetic streams run as usual,
 * but the CBs track a sharer set per cache-line region and every
 * write to a region with other sharers fans out Invalidate packets
 * (reply direction) that the sharer PEs answer with InvAcks (request
 * direction) — a multicast third flow that stresses reply injection
 * very differently than request/reply pairs. The protocol is
 * relaxed (writes do not wait for acks): it reproduces the *traffic*,
 * not MESI's consistency guarantees.
 */

#include "traffic/registration.hh"
#include "traffic/traffic_model.hh"
#include "traffic/traffic_registry.hh"

namespace eqx {

namespace {

class CoherenceInstance final : public TrafficInstance
{
  public:
    CoherenceInstance(const WorkloadProfile &profile, std::uint64_t seed)
        : profile_(profile), seed_(seed)
    {
    }

    bool wantsCoherence() const override { return true; }

    std::unique_ptr<TrafficSource>
    makeSource(int pe_index) override
    {
        // Same closed-loop streams as the synthetic default; the
        // coherence flows are CB-side reactions to them.
        return std::make_unique<SyntheticSource>(
            PeTraceGen(profile_, pe_index, seed_));
    }

  private:
    WorkloadProfile profile_;
    std::uint64_t seed_;
};

class CoherenceModel final : public TrafficModel
{
  public:
    std::string name() const override { return "coherence"; }

    std::vector<std::string>
    aliases() const override
    {
        return {"mesi"};
    }

    std::unique_ptr<TrafficInstance>
    build(const TrafficBuild &b) const override
    {
        return std::make_unique<CoherenceInstance>(b.profile, b.seed);
    }
};

} // namespace

void
registerCoherenceTraffic(TrafficRegistry &r)
{
    r.add(std::make_unique<CoherenceModel>());
}

} // namespace eqx
