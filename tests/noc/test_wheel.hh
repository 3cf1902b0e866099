/**
 * @file
 * A stand-alone pending wheel for unit tests that wire routers or NIs
 * to channels by hand. It is larger than any test's tick count, so a
 * slot index is the absolute due tick, and take() picks one wire's
 * arrivals out of it the way Network::deliver() would.
 */

#ifndef EQX_TESTS_NOC_TEST_WHEEL_HH
#define EQX_TESTS_NOC_TEST_WHEEL_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "noc/channel.hh"

namespace eqx {

class TestWheel
{
  public:
    static constexpr std::uint32_t kSlots = 1024;

    TestWheel() : slots_(kSlots) {}

    /** A channel of @p latency ticks posting under wire tag @p tag. */
    template <typename T>
    Channel<T>
    channel(int latency, std::uint32_t tag)
    {
        return Channel<T>(latency, slots_.data(), kSlots - 1, tag);
    }

    /** Remove and return, oldest first, every item on wire @p tag due
     *  by tick @p now. */
    template <typename T>
    std::vector<T>
    take(std::uint32_t tag, Cycle now)
    {
        eqx_assert(now < kSlots, "TestWheel: tick ", now, " wraps");
        std::vector<T> out;
        for (Cycle t = 0; t <= now; ++t) {
            auto pick = [&](const auto &ev) {
                if (ev.wire != tag)
                    return false;
                if constexpr (std::is_same_v<T, Flit>)
                    out.push_back(ev.f);
                else
                    out.push_back(ev.c);
                return true;
            };
            if constexpr (std::is_same_v<T, Flit>)
                std::erase_if(slots_[t].flits, pick);
            else
                std::erase_if(slots_[t].credits, pick);
        }
        return out;
    }

  private:
    std::vector<WheelSlot> slots_;
};

} // namespace eqx

#endif // EQX_TESTS_NOC_TEST_WHEEL_HH
