/**
 * @file
 * Endpoint-side plumbing shared by PEs and cache banks: the injector
 * interface into whatever network scheme the system instantiated, and
 * the static address-to-cache-bank map.
 */

#ifndef EQX_GPU_ENDPOINT_HH
#define EQX_GPU_ENDPOINT_HH

#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "noc/packet.hh"

namespace eqx {

/**
 * Abstracts "send this packet into the right network": the scheme
 * decides between request/reply networks, CMesh overlay, or DA2Mesh
 * subnets. tryInject returns false when the NI cannot take the packet
 * now. canInject answers the same question before the packet exists:
 * when it returns true for @p dst, a tryInject of a packet bound for
 * @p dst before anything else touches the networks must succeed.
 */
class PacketInjector
{
  public:
    virtual ~PacketInjector() = default;
    virtual bool canInject(NodeId dst) const = 0;
    virtual bool tryInject(const PacketPtr &pkt) = 0;
};

/** Line-interleaved mapping of physical addresses to cache banks. */
struct AddressMap
{
    int lineBytes = 64;
    std::vector<NodeId> cbNodes;

    int
    cbIndexOf(Addr addr) const
    {
        eqx_assert(!cbNodes.empty(), "address map has no cache banks");
        return static_cast<int>(
            (addr / static_cast<Addr>(lineBytes)) %
            static_cast<Addr>(cbNodes.size()));
    }

    NodeId
    cbNodeOf(Addr addr) const
    {
        return cbNodes[static_cast<std::size_t>(cbIndexOf(addr))];
    }

    Addr
    lineOf(Addr addr) const
    {
        return addr / static_cast<Addr>(lineBytes);
    }
};

} // namespace eqx

#endif // EQX_GPU_ENDPOINT_HH
