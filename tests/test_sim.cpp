/**
 * @file
 * Tests for the simulation FIFO and the Omega network:
 * full src/dest delivery coverage, in-order per-path delivery, contention
 * backpressure, and buffer-occupancy accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "accel/omega.hpp"
#include "sim/fifo.hpp"

using namespace awb;

TEST(Fifo, FifoOrder)
{
    Fifo<int> q;
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(Fifo, CapacityEnforced)
{
    Fifo<int> q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(3));
    q.pop();
    EXPECT_TRUE(q.push(3));
}

TEST(Fifo, UnboundedTracksPeak)
{
    Fifo<int> q;  // capacity 0 == unbounded
    for (int i = 0; i < 100; ++i) q.push(i);
    for (int i = 0; i < 60; ++i) q.pop();
    for (int i = 0; i < 10; ++i) q.push(i);
    EXPECT_EQ(q.peakOccupancy(), 100u);
    EXPECT_EQ(q.totalPushes(), 110);
}

namespace {

/** Drain everything currently in the network into `out`. */
void
drainAll(OmegaNetwork &net, std::vector<Flit> &out, int max_cycles = 1000)
{
    int cycles = 0;
    while (!net.empty() && cycles++ < max_cycles) {
        net.tick(cycles, [&](const Flit &f, int port) {
            EXPECT_EQ(port, f.destPe);
            out.push_back(f);
            return true;
        });
    }
}

} // namespace

TEST(Omega, AllSrcDestPairsRoute)
{
    // Routing invariant: every (src, dest) pair must end at dest.
    for (int ports : {2, 4, 8, 16}) {
        OmegaNetwork net(ports, 4);
        for (int s = 0; s < ports; ++s) {
            for (int d = 0; d < ports; ++d) {
                Flit f{Task{static_cast<Index>(d), 1.0f, 1.0f, d}, d};
                ASSERT_TRUE(net.inject(f, s));
                std::vector<Flit> out;
                drainAll(net, out);
                ASSERT_EQ(out.size(), 1u) << "ports=" << ports
                                          << " s=" << s << " d=" << d;
                EXPECT_EQ(out[0].destPe, d);
            }
        }
    }
}

TEST(Omega, DeliveryLatencyIsStageCount)
{
    OmegaNetwork net(8, 4);  // 3 stages
    Flit f{Task{0, 1.0f, 1.0f, 5}, 5};
    ASSERT_TRUE(net.inject(f, 0));
    int cycles = 0;
    bool delivered = false;
    while (!delivered && cycles < 100) {
        ++cycles;
        net.tick(cycles, [&](const Flit &, int) {
            delivered = true;
            return true;
        });
    }
    EXPECT_EQ(cycles, 3);
}

TEST(Omega, ContentionSerializesSameDestination)
{
    // P flits all to PE 0: the final output port delivers 1 per cycle, so
    // draining takes at least P cycles.
    const int P = 8;
    OmegaNetwork net(P, 8, /*speedup=*/1);
    for (int s = 0; s < P; ++s) {
        Flit f{Task{0, 1.0f, 1.0f, 0}, 0};
        ASSERT_TRUE(net.inject(f, s));
    }
    std::vector<Flit> out;
    int cycles = 0;
    while (!net.empty() && cycles < 1000) {
        ++cycles;
        net.tick(cycles, [&](const Flit &f, int) {
            out.push_back(f);
            return true;
        });
    }
    EXPECT_EQ(out.size(), 8u);
    EXPECT_GE(cycles, 8);
    EXPECT_GT(net.blockedMoves(), 0);
}

TEST(Omega, BackpressureWhenSinkRejects)
{
    OmegaNetwork net(4, 2);
    Flit f{Task{2, 1.0f, 1.0f, 2}, 2};
    ASSERT_TRUE(net.inject(f, 0));
    // Sink always rejects: flit must stay in the fabric.
    for (int i = 0; i < 10; ++i)
        net.tick(i, [](const Flit &, int) { return false; });
    EXPECT_FALSE(net.empty());
    // Now accept.
    std::vector<Flit> out;
    drainAll(net, out);
    ASSERT_EQ(out.size(), 1u);
}

TEST(Omega, EntryBufferFillsUnderInjectionPressure)
{
    OmegaNetwork net(4, 1);
    Flit f{Task{1, 1.0f, 1.0f, 1}, 1};
    EXPECT_TRUE(net.inject(f, 0));
    // Same entry path, buffer depth 1 -> second inject fails.
    EXPECT_FALSE(net.inject(f, 0));
}

TEST(Omega, ThroughputUnderUniformTraffic)
{
    // With uniformly spread destinations the network should sustain close
    // to 1 flit/port/cycle; 256 flits over 8 ports in well under 96
    // cycles.
    const int P = 8;
    OmegaNetwork net(P, 4);
    int sent = 0, received = 0, cycles = 0;
    while (received < 256 && cycles < 500) {
        ++cycles;
        net.tick(cycles, [&](const Flit &, int) {
            ++received;
            return true;
        });
        for (int s = 0; s < P && sent < 256; ++s) {
            Flit f{Task{static_cast<Index>(sent % P), 1.0f, 1.0f,
                        sent % P},
                   sent % P};
            if (net.inject(f, s)) ++sent;
        }
    }
    EXPECT_EQ(received, 256);
    EXPECT_LT(cycles, 96);
    EXPECT_GE(net.peakBufferDepth(), 1u);
}

TEST(Omega, PerPortOrderSurvivesRingWrapAround)
{
    // Every source streams numbered flits to one destination while the
    // sink refuses one cycle in three, so each ring buffer fills, drains
    // and wraps its head many times. Flits sharing a source and a
    // destination share a path and must arrive in injection order.
    // Depth 3 exercises the non-power-of-two wrap.
    const int P = 4;
    const int per_src = 40;
    for (int depth : {1, 2, 3}) {
        OmegaNetwork net(P, depth, /*speedup=*/1);
        std::vector<int> sent(P, 0);
        std::vector<std::vector<Index>> got(P);
        int cycles = 0;
        auto done = [&] {
            for (int s = 0; s < P; ++s)
                if (got[s].size() != static_cast<std::size_t>(per_src))
                    return false;
            return true;
        };
        while (!done() && cycles < 10000) {
            ++cycles;
            net.tick(cycles, [&](const Flit &f, int port) {
                EXPECT_EQ(port, f.destPe);
                if (cycles % 3 == 0) return false;
                got[static_cast<std::size_t>(f.task.homePe)].push_back(
                    f.task.row);
                return true;
            });
            for (int s = 0; s < P; ++s) {
                if (sent[s] == per_src) continue;
                const int dest = (s + 1) % P;
                Flit f{Task{static_cast<Index>(sent[s]), 1.0f, 1.0f, s},
                       dest};
                if (net.inject(f, s)) ++sent[s];
            }
        }
        ASSERT_TRUE(done()) << "depth=" << depth;
        EXPECT_TRUE(net.empty());
        EXPECT_LE(net.peakBufferDepth(), static_cast<std::size_t>(depth));
        for (int s = 0; s < P; ++s)
            for (int i = 0; i < per_src; ++i)
                EXPECT_EQ(got[s][static_cast<std::size_t>(i)], i)
                    << "depth=" << depth << " src=" << s;
    }
}

TEST(Omega, LifetimePeakIsMaxOfRoundPeaks)
{
    // Three rounds with different pile-ups, each closed by
    // resetRoundPeak(): the deepest round sits in the middle so neither
    // the first nor the last round's peak alone can explain the result.
    OmegaNetwork net(4, 8, /*speedup=*/1);
    std::vector<std::size_t> round_peaks;
    int cycles = 0;
    for (int burst : {1, 6, 2}) {
        net.resetRoundPeak();
        for (int i = 0; i < burst; ++i) {
            Flit f{Task{0, 1.0f, 1.0f, 0}, 0};
            ASSERT_TRUE(net.inject(f, 0));
        }
        // Hold the burst in the fabric for a few cycles, then drain.
        for (int i = 0; i < 4; ++i)
            net.tick(++cycles, [](const Flit &, int) { return false; });
        while (!net.empty() && cycles < 1000)
            net.tick(++cycles, [](const Flit &, int) { return true; });
        round_peaks.push_back(net.roundPeakBufferDepth());
    }
    EXPECT_EQ(round_peaks[0], 1u);
    EXPECT_GT(round_peaks[1], round_peaks[0]);
    EXPECT_GT(round_peaks[1], round_peaks[2]);
    EXPECT_EQ(net.peakBufferDepth(),
              *std::max_element(round_peaks.begin(), round_peaks.end()));
    net.resetRoundPeak();
    EXPECT_EQ(net.roundPeakBufferDepth(), 0u);
    EXPECT_EQ(net.peakBufferDepth(), round_peaks[1]);
}

TEST(Omega, InjectRejectsAtCapacityWithoutLosingAFlit)
{
    OmegaNetwork net(4, 3);
    for (Index i = 0; i < 3; ++i)
        ASSERT_TRUE(net.inject(Flit{Task{i, 1.0f, 1.0f, 2}, 2}, 1));
    EXPECT_FALSE(net.inject(Flit{Task{99, 1.0f, 1.0f, 2}, 2}, 1));
    EXPECT_EQ(net.peakBufferDepth(), 3u);

    std::vector<Flit> out;
    drainAll(net, out);
    ASSERT_EQ(out.size(), 3u);
    for (Index i = 0; i < 3; ++i) {
        EXPECT_EQ(out[static_cast<std::size_t>(i)].task.row, i);
        EXPECT_EQ(out[static_cast<std::size_t>(i)].destPe, 2);
    }
    // The rejected flit left nothing behind, and the freed slots accept.
    EXPECT_TRUE(net.inject(Flit{Task{7, 1.0f, 1.0f, 2}, 2}, 1));
    out.clear();
    drainAll(net, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].task.row, 7);
}

namespace {

/** Sink function object that counts and refuses every other offer. */
struct AlternatingSink
{
    int offers = 0;
    int accepted = 0;

    bool
    operator()(const Flit &, int)
    {
        if (++offers % 2 == 0) return false;
        ++accepted;
        return true;
    }
};

} // namespace

TEST(Omega, TickAcceptsStatefulLambdaAndFunctionObject)
{
    const int P = 8;
    auto fill = [&](OmegaNetwork &net) {
        for (int s = 0; s < P; ++s)
            ASSERT_TRUE(net.inject(Flit{Task{0, 1.0f, 1.0f, s}, s}, s));
    };

    // A mutable lambda passed by lvalue keeps its state across ticks.
    OmegaNetwork a(P, 4);
    fill(a);
    int delivered = 0;
    auto counting = [seen = 0, &delivered](const Flit &, int) mutable {
        delivered = ++seen;
        return true;
    };
    for (int c = 0; c < 100 && !a.empty(); ++c) a.tick(c, counting);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(delivered, P);

    // A function object passed by lvalue is used in place, not copied.
    OmegaNetwork b(P, 4);
    fill(b);
    AlternatingSink sink;
    for (int c = 0; c < 100 && !b.empty(); ++c) b.tick(c, sink);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(sink.accepted, P);
    EXPECT_EQ(sink.offers, 2 * P - 1);
    EXPECT_EQ(b.flitsDelivered(), P);

    // A temporary function object binds too.
    OmegaNetwork c(P, 4);
    fill(c);
    for (int t = 0; t < 100 && !c.empty(); ++t) c.tick(t, AlternatingSink{});
    EXPECT_TRUE(c.empty());
}
