/**
 * @file
 * Per-VC flit FIFO of the NI ejection ports. Router input VCs keep
 * their flits and allocation state in the router's own lanes
 * (router.hh).
 */

#ifndef EQX_NOC_VC_BUFFER_HH
#define EQX_NOC_VC_BUFFER_HH

#include <vector>

#include "common/logging.hh"
#include "noc/packet.hh"

namespace eqx {

/**
 * One virtual-channel FIFO. It is a fixed ring sized to the buffer
 * depth — the flow-control bound — so the hot push/front/pop path is
 * plain indexed moves with no node or block allocation.
 */
class VcBuffer
{
  public:
    explicit VcBuffer(int depth_flits = 5)
        : depth_(depth_flits),
          fifo_(static_cast<std::size_t>(depth_flits))
    {}

    bool
    push(Flit f)
    {
        eqx_assert(count_ < depth_,
                   "VC buffer overflow: flow control violated");
        int slot = head_ + count_;
        if (slot >= depth_)
            slot -= depth_;
        fifo_[static_cast<std::size_t>(slot)] = std::move(f);
        ++count_;
        return true;
    }

    Flit
    pop()
    {
        eqx_assert(count_ > 0, "pop from empty VC buffer");
        Flit f = std::move(fifo_[static_cast<std::size_t>(head_)]);
        if (++head_ == depth_)
            head_ = 0;
        --count_;
        return f;
    }

    const Flit &
    front() const
    {
        return fifo_[static_cast<std::size_t>(head_)];
    }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ >= depth_; }
    int occupancy() const { return count_; }
    int depth() const { return depth_; }

  private:
    int depth_;
    int head_ = 0;
    int count_ = 0;
    std::vector<Flit> fifo_;
};

} // namespace eqx

#endif // EQX_NOC_VC_BUFFER_HH
