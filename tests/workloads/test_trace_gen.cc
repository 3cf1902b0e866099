/** @file Synthetic per-PE trace generation. */

#include <gtest/gtest.h>

#include <set>

#include "workloads/trace_gen.hh"

namespace eqx {
namespace {

WorkloadProfile
base()
{
    WorkloadProfile wp;
    wp.instsPerPe = 1000;
    wp.memRatio = 0.5;
    wp.readFrac = 0.8;
    wp.privateLines = 64;
    wp.sharedLines = 32;
    wp.sharedFrac = 0.3;
    wp.seqProb = 0.5;
    return wp;
}

TEST(TraceGen, ProducesExactlyInstsPerPe)
{
    PeTraceGen gen(base(), 0, 1);
    TraceOp op;
    std::uint64_t n = 0;
    while (gen.next(op))
        ++n;
    EXPECT_EQ(n, 1000u);
    EXPECT_EQ(gen.remaining(), 0u);
    EXPECT_FALSE(gen.next(op));
}

TEST(TraceGen, DeterministicForSeedAndPe)
{
    PeTraceGen a(base(), 3, 42), b(base(), 3, 42);
    TraceOp oa, ob;
    for (int i = 0; i < 500; ++i) {
        ASSERT_EQ(a.next(oa), b.next(ob));
        EXPECT_EQ(oa.isMem, ob.isMem);
        EXPECT_EQ(oa.isWrite, ob.isWrite);
        EXPECT_EQ(oa.addr, ob.addr);
    }
}

TEST(TraceGen, DifferentPesDiverge)
{
    PeTraceGen a(base(), 0, 42), b(base(), 1, 42);
    TraceOp oa, ob;
    int same_addr = 0, mem = 0;
    for (int i = 0; i < 500; ++i) {
        a.next(oa);
        b.next(ob);
        if (oa.isMem && ob.isMem) {
            ++mem;
            if (oa.addr == ob.addr)
                ++same_addr;
        }
    }
    EXPECT_GT(mem, 0);
    EXPECT_LT(same_addr, mem); // private regions differ
}

TEST(TraceGen, MemRatioApproximatelyHonoured)
{
    WorkloadProfile wp = base();
    wp.instsPerPe = 20000;
    wp.memRatio = 0.3;
    PeTraceGen gen(wp, 0, 7);
    TraceOp op;
    int mem = 0;
    while (gen.next(op))
        if (op.isMem)
            ++mem;
    EXPECT_NEAR(mem / 20000.0, 0.3, 0.02);
}

TEST(TraceGen, ReadFractionApproximatelyHonoured)
{
    WorkloadProfile wp = base();
    wp.instsPerPe = 20000;
    wp.memRatio = 1.0;
    wp.readFrac = 0.75;
    PeTraceGen gen(wp, 0, 7);
    TraceOp op;
    int reads = 0, mem = 0;
    while (gen.next(op)) {
        if (op.isMem) {
            ++mem;
            if (!op.isWrite)
                ++reads;
        }
    }
    EXPECT_NEAR(static_cast<double>(reads) / mem, 0.75, 0.02);
}

TEST(TraceGen, AddressesLineAlignedAndInRegions)
{
    WorkloadProfile wp = base();
    wp.instsPerPe = 5000;
    wp.memRatio = 1.0;
    PeTraceGen gen(wp, 2, 9);
    Addr priv_base = static_cast<Addr>(3) << 30;
    TraceOp op;
    while (gen.next(op)) {
        if (!op.isMem)
            continue;
        EXPECT_EQ(op.addr % 64, 0u);
        bool in_shared =
            op.addr < static_cast<Addr>(wp.sharedLines) * 64;
        bool in_priv =
            op.addr >= priv_base &&
            op.addr < priv_base + static_cast<Addr>(wp.privateLines) * 64;
        EXPECT_TRUE(in_shared || in_priv) << op.addr;
    }
}

TEST(TraceGen, SharedFractionZeroStaysPrivate)
{
    WorkloadProfile wp = base();
    wp.sharedFrac = 0.0;
    wp.memRatio = 1.0;
    wp.instsPerPe = 2000;
    PeTraceGen gen(wp, 1, 3);
    Addr priv_base = static_cast<Addr>(2) << 30;
    TraceOp op;
    while (gen.next(op)) {
        if (op.isMem) {
            EXPECT_GE(op.addr, priv_base);
        }
    }
}

TEST(TraceGen, FullSequentialWalksByOneLine)
{
    WorkloadProfile wp = base();
    wp.memRatio = 1.0;
    wp.seqProb = 1.0;
    wp.sharedFrac = 0.0;
    wp.instsPerPe = 50;
    PeTraceGen gen(wp, 0, 5);
    TraceOp op;
    ASSERT_TRUE(gen.next(op));
    Addr prev = op.addr;
    while (gen.next(op)) {
        Addr delta = (op.addr >= prev)
                         ? op.addr - prev
                         : prev - op.addr; // wrap-around case
        EXPECT_TRUE(delta == 64 ||
                    delta == static_cast<Addr>(wp.privateLines - 1) * 64);
        prev = op.addr;
    }
}

} // namespace
} // namespace eqx
