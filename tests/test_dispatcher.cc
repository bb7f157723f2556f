/** @file Unit tests for the load-balancing dispatcher. */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/dispatcher.hh"
#include "llm/model_spec.hh"

using namespace polca::cluster;
using namespace polca::workload;
using namespace polca::sim;

namespace {

struct Fixture
{
    Fixture(int lowServers, int highServers)
        : dispatcher(sim, Rng(3))
    {
        auto addServers = [&](int n, Priority p) {
            for (int i = 0; i < n; ++i) {
                servers.push_back(std::make_unique<InferenceServer>(
                    sim, polca::power::ServerSpec::dgxA100_80gb(),
                    catalog.byName("BLOOM-176B"), p,
                    static_cast<int>(servers.size())));
                dispatcher.addServer(servers.back().get());
            }
        };
        addServers(lowServers, Priority::Low);
        addServers(highServers, Priority::High);
    }

    Trace
    burst(int n, Priority priority, Tick start = 0,
          int output = 64)
    {
        Trace trace;
        for (int i = 0; i < n; ++i) {
            Request r;
            r.arrival = start + i;
            r.id = static_cast<std::uint64_t>(i);
            r.priority = priority;
            r.inputTokens = 1024;
            r.outputTokens = output;
            trace.add(r);
        }
        return trace;
    }

    /** Snapshot of the dispatcher, its servers and the queue. */
    struct Snapshot
    {
        EventQueueState queue;
        Dispatcher::State dispatcher;
        std::vector<InferenceServer::State> servers;
    };

    Snapshot
    save() const
    {
        Snapshot snap{sim.queue().captureState(),
                      dispatcher.saveState(), {}};
        for (const auto &server : servers)
            snap.servers.push_back(server->saveState());
        return snap;
    }

    /** Branch this (freshly built) fixture from @p snap. */
    void
    restore(const Snapshot &snap, const Trace &trace)
    {
        sim.queue().beginRestore(snap.queue);
        dispatcher.restoreState(snap.dispatcher, &trace);
        std::size_t live = snap.dispatcher.arrivalPending ? 1 : 0;
        for (std::size_t i = 0; i < servers.size(); ++i) {
            servers[i]->restoreState(snap.servers[i]);
            live += snap.servers[i].active.has_value() ? 1 : 0;
        }
        sim.queue().endRestore(live);
    }

    std::vector<std::uint64_t>
    completions() const
    {
        std::vector<std::uint64_t> counts;
        for (const auto &server : servers)
            counts.push_back(server->completedRequests());
        return counts;
    }

    Simulation sim;
    polca::llm::ModelCatalog catalog;
    Dispatcher dispatcher;
    std::vector<std::unique_ptr<InferenceServer>> servers;
};

} // namespace

TEST(Dispatcher, RoutesToMatchingPriorityPool)
{
    Fixture f(2, 2);
    Trace lows = f.burst(2, Priority::Low);
    f.dispatcher.injectTrace(lows);
    f.sim.runFor(secondsToTicks(1));

    // Both low-priority servers busy; high pool untouched.
    EXPECT_FALSE(f.servers[0]->idleNow());
    EXPECT_FALSE(f.servers[1]->idleNow());
    EXPECT_TRUE(f.servers[2]->idleNow());
    EXPECT_TRUE(f.servers[3]->idleNow());
}

TEST(Dispatcher, CountsArrivalsAndCompletions)
{
    Fixture f(2, 0);
    Trace trace = f.burst(4, Priority::Low);
    f.dispatcher.injectTrace(trace);
    f.sim.runFor(secondsToTicks(60));
    EXPECT_EQ(f.dispatcher.arrivals(Priority::Low), 4u);
    EXPECT_EQ(f.dispatcher.completions(Priority::Low), 4u);
    EXPECT_EQ(f.dispatcher.latencySeconds(Priority::Low).count(), 4u);
}

TEST(Dispatcher, OverflowGoesToCentralQueueThenDrains)
{
    Fixture f(1, 0);
    // One server, buffer one: 5 requests -> 3 in the central queue.
    Trace trace = f.burst(5, Priority::Low);
    f.dispatcher.injectTrace(trace);
    f.sim.runFor(secondsToTicks(1));
    EXPECT_EQ(f.dispatcher.centralQueueDepth(Priority::Low), 3u);
    f.sim.runFor(secondsToTicks(300));
    EXPECT_EQ(f.dispatcher.centralQueueDepth(Priority::Low), 0u);
    EXPECT_EQ(f.dispatcher.completions(Priority::Low), 5u);
}

TEST(Dispatcher, QueueingInflatesLatencyOfLaterRequests)
{
    Fixture f(1, 0);
    Trace trace = f.burst(3, Priority::Low);
    f.dispatcher.injectTrace(trace);
    f.sim.runFor(secondsToTicks(300));
    const auto &sampler = f.dispatcher.latencySeconds(Priority::Low);
    ASSERT_EQ(sampler.count(), 3u);
    EXPECT_GT(sampler.max(), 2.0 * sampler.min());
}

TEST(Dispatcher, SpreadsLoadAcrossIdleServers)
{
    Fixture f(8, 0);
    Trace trace = f.burst(8, Priority::Low);
    f.dispatcher.injectTrace(trace);
    f.sim.runFor(secondsToTicks(1));
    for (const auto &server : f.servers)
        EXPECT_FALSE(server->idleNow());
}

TEST(Dispatcher, ThroughputReflectsCompletions)
{
    Fixture f(2, 0);
    Trace trace = f.burst(4, Priority::Low);
    f.dispatcher.injectTrace(trace);
    f.sim.runFor(secondsToTicks(100));
    EXPECT_NEAR(f.dispatcher.throughput(Priority::Low), 4.0 / 100.0,
                1e-6);
}

TEST(Dispatcher, PerWorkloadLatencyTracked)
{
    Fixture f(2, 0);
    Trace trace;
    Request r;
    r.arrival = 0;
    r.priority = Priority::Low;
    r.workloadIndex = 2;
    r.inputTokens = 1024;
    r.outputTokens = 64;
    trace.add(r);
    f.dispatcher.injectTrace(trace);
    f.sim.runFor(secondsToTicks(60));
    ASSERT_GE(f.dispatcher.latencyByWorkload().size(), 3u);
    EXPECT_EQ(f.dispatcher.latencyByWorkload()[2].count(), 1u);
}

TEST(DispatcherDeath, NoPoolServersFatal)
{
    Fixture f(1, 0);
    Trace trace = f.burst(1, Priority::High);
    f.dispatcher.injectTrace(trace);
    EXPECT_DEATH(f.sim.runFor(secondsToTicks(1)), "priority pool");
}

TEST(Dispatcher, EmptyTraceIsNoop)
{
    Fixture f(1, 1);
    Trace empty;
    f.dispatcher.injectTrace(empty);
    f.sim.runFor(secondsToTicks(1));
    EXPECT_EQ(f.dispatcher.arrivals(Priority::Low), 0u);
}

namespace {

/** 400 Poisson arrivals (mean gap 0.6 s), 30 % high priority. */
Trace
soakTrace()
{
    Rng rng(2024);
    Trace trace;
    double t = 0.0;
    for (int i = 0; i < 400; ++i) {
        t += rng.exponential(1.0 / 0.6);
        Request r;
        r.arrival = secondsToTicks(t);
        r.id = static_cast<std::uint64_t>(i);
        r.priority = rng.bernoulli(0.3) ? Priority::High : Priority::Low;
        r.inputTokens = static_cast<std::int32_t>(rng.uniformInt(128, 4096));
        r.outputTokens = static_cast<std::int32_t>(rng.uniformInt(8, 256));
        trace.add(r);
    }
    return trace;
}

} // namespace

/**
 * Routing soak: 12 low- and 4 high-priority servers with one-request
 * buffers under a seeded overload, so idle, buffered, full and
 * crashed servers and the central queues all occur.  Crashes and
 * restores at fixed ticks, a snapshot branch taken while servers are
 * down, and a pinned outcome: the per-server completion
 * counts and the p50/p99 latencies must match the scan-based
 * dispatcher's run of the same soak bit for bit.  A missed dispatch
 * class update routes differently, or submits to a busy or crashed
 * server and panics.
 */
TEST(Dispatcher, RoutingSoakWithCrashesAndBranch)
{
    const Trace trace = soakTrace();
    Fixture a(12, 4);
    a.dispatcher.injectTrace(trace);

    a.sim.runUntil(secondsToTicks(20));
    a.servers[3]->crash();
    a.servers[13]->crash();
    a.sim.runUntil(secondsToTicks(40));
    const std::vector<std::uint64_t> atRestore = a.completions();
    a.servers[3]->restore();
    a.servers[13]->restore();
    a.sim.runUntil(secondsToTicks(50));
    a.servers[7]->crash();
    a.servers[14]->crash();
    a.sim.runUntil(secondsToTicks(60));

    Fixture::Snapshot snap = a.save();
    Fixture b(12, 4);
    b.restore(snap, trace);

    for (Fixture *world : {&a, &b}) {
        world->sim.runUntil(secondsToTicks(70));
        world->servers[7]->restore();
        world->servers[14]->restore();
        world->sim.runUntil(secondsToTicks(3600));
    }

    // Restored servers rejoin dispatch and complete work again.
    EXPECT_GT(a.servers[3]->completedRequests(), atRestore[3]);
    EXPECT_GT(a.servers[13]->completedRequests(), atRestore[13]);
    // Recorded from the scan-based dispatcher (hex floats: bitwise).
    const std::vector<std::uint64_t> pinned{24, 23, 24, 20, 25, 24, 24, 24,
                                            27, 22, 28, 24, 32, 25, 25, 25};
    for (Fixture *world : {&a, &b}) {
        const Dispatcher &d = world->dispatcher;
        EXPECT_EQ(world->completions(), pinned);
        EXPECT_EQ(d.arrivals(Priority::Low), 291u);
        EXPECT_EQ(d.arrivals(Priority::High), 109u);
        EXPECT_EQ(d.completions(Priority::Low), 289u);
        EXPECT_EQ(d.completions(Priority::High), 107u);
        std::uint64_t dropped = 0;
        for (const auto &server : world->servers)
            dropped += server->droppedRequests();
        EXPECT_EQ(dropped, 4u);  // every arrival completed or dropped
        EXPECT_EQ(d.centralQueueDepth(Priority::Low), 0u);
        EXPECT_EQ(d.centralQueueDepth(Priority::High), 0u);
        const Sampler &low = d.latencySeconds(Priority::Low);
        const Sampler &high = d.latencySeconds(Priority::High);
        EXPECT_EQ(low.p50(), 0x1.c0cae642bf983p+2);
        EXPECT_EQ(low.p99(), 0x1.050a5b028515ap+4);
        EXPECT_EQ(high.p50(), 0x1.36bc18b502abbp+3);
        EXPECT_EQ(high.p99(), 0x1.54bdf9048e2f2p+4);
    }
}

TEST(DispatcherDeath, ServerBindsOnlyOnce)
{
    Fixture f(1, 0);
    Dispatcher other(f.sim, Rng(5));
    EXPECT_DEATH(f.dispatcher.addServer(f.servers[0].get()),
                 "already bound");
    EXPECT_DEATH(other.addServer(f.servers[0].get()), "already bound");
}
