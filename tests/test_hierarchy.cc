/**
 * @file
 * Property tests for hierarchical cgroup I/O control: weight-split
 * proportionality through interior nodes, interior io.max subtree caps,
 * charge conservation on randomized 3-level trees, and a byte-identical
 * 1024-tenant fleet replay across sweep worker counts.
 *
 * Randomized cases draw from the repo's deterministic xoshiro256++
 * (common/rng.hh) with fixed seeds, so every "random" tree is the same
 * tree on every platform and every run.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blk/qos_cost.hh"
#include "blk/qos_max.hh"
#include "cgroup/cgroup.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "isolbench/scenario.hh"
#include "isolbench/sweep.hh"
#include "sim/invariants.hh"
#include "sim/simulator.hh"
#include "workload/app_profiles.hh"

namespace isol::blk
{
namespace
{

struct HierarchyFixture : public ::testing::Test
{
    HierarchyFixture()
    {
        tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    }

    cgroup::Cgroup &
    interior(cgroup::Cgroup &parent, const std::string &name)
    {
        cgroup::Cgroup &cg = tree.createChild(parent, name);
        tree.enableIoController(cg);
        return cg;
    }

    cgroup::Cgroup &
    leaf(cgroup::Cgroup &parent, const std::string &name)
    {
        cgroup::Cgroup &cg = tree.createChild(parent, name);
        tree.attachProcess(cg);
        return cg;
    }

    Request *
    makeReq(cgroup::Cgroup *cg, OpType op = OpType::kRead,
            uint32_t size = 4096)
    {
        auto req = std::make_unique<Request>();
        req->op = op;
        req->size = size;
        req->cg = cg;
        req->blk_enter_time = sim.now();
        req->dispatch_time = sim.now();
        reqs.push_back(std::move(req));
        return reqs.back().get();
    }

    sim::Simulator sim;
    cgroup::CgroupTree tree;
    std::vector<std::unique_ptr<Request>> reqs;
};

// --- Weight-split proportionality --------------------------------------

TEST_F(HierarchyFixture, InteriorWeightSplitsAcrossChildSubtrees)
{
    // root -> podA(w=300){a1(w=100), a2(w=300)}, podB(w=100){b1}.
    cgroup::Cgroup &pod_a = interior(tree.root(), "podA");
    cgroup::Cgroup &pod_b = interior(tree.root(), "podB");
    tree.writeFile(pod_a, "io.weight", "300");
    tree.writeFile(pod_b, "io.weight", "100");
    cgroup::Cgroup &a1 = leaf(pod_a, "a1");
    cgroup::Cgroup &a2 = leaf(pod_a, "a2");
    cgroup::Cgroup &b1 = leaf(pod_b, "b1");
    tree.writeFile(a1, "io.weight", "100");
    tree.writeFile(a2, "io.weight", "300");

    IoCostGate gate(sim, 0, tree, [](Request *) {});
    gate.submit(makeReq(&a1));
    gate.submit(makeReq(&a2));
    gate.submit(makeReq(&b1));

    // podA:podB split 3:1; inside podA, a1:a2 split 1:3.
    EXPECT_NEAR(gate.shareOf(&a1), 0.75 * 0.25, 1e-9);
    EXPECT_NEAR(gate.shareOf(&a2), 0.75 * 0.75, 1e-9);
    EXPECT_NEAR(gate.shareOf(&b1), 0.25, 1e-9);
}

TEST_F(HierarchyFixture, IdleSubtreeDoesNotDiluteActiveShares)
{
    // A pod whose leaves never submit must not absorb weight: v2 shares
    // are computed over *active* child subtrees only.
    cgroup::Cgroup &pod_a = interior(tree.root(), "podA");
    cgroup::Cgroup &pod_b = interior(tree.root(), "podB");
    tree.writeFile(pod_a, "io.weight", "100");
    tree.writeFile(pod_b, "io.weight", "900");
    cgroup::Cgroup &a1 = leaf(pod_a, "a1");
    leaf(pod_b, "b1"); // exists but stays idle

    IoCostGate gate(sim, 0, tree, [](Request *) {});
    gate.submit(makeReq(&a1));
    EXPECT_NEAR(gate.shareOf(&a1), 1.0, 1e-9);
}

/** Expected hierarchical share: product of weight / active-sibling-sum
 *  along the chain, computed independently of the gate. */
double
expectedShare(const cgroup::Cgroup &cg,
              const std::vector<cgroup::Cgroup *> &active_leaves)
{
    auto subtree_active = [&](const cgroup::Cgroup &node) {
        for (const cgroup::Cgroup *a_leaf : active_leaves) {
            for (const cgroup::Cgroup *n = a_leaf; n != nullptr;
                 n = n->parent()) {
                if (n == &node)
                    return true;
            }
        }
        return false;
    };
    double share = 1.0;
    for (const cgroup::Cgroup *node = &cg; node->parent() != nullptr;
         node = node->parent()) {
        uint64_t sum = 0;
        for (const cgroup::Cgroup *sib : node->parent()->children()) {
            if (subtree_active(*sib))
                sum += sib->ioWeight();
        }
        share *= static_cast<double>(node->ioWeight()) /
                 static_cast<double>(sum);
    }
    return share;
}

TEST_F(HierarchyFixture, WeightSplitProportionalOnRandomizedTrees)
{
    Rng rng(0xFEED5EEDull);
    for (int round = 0; round < 20; ++round) {
        sim::Simulator local_sim;
        cgroup::CgroupTree local_tree;
        local_tree.writeFile(local_tree.root(),
                             "cgroup.subtree_control", "+io");

        // Random 3-level tree: 2-4 pods, 1-3 racks each, 1-3 leaves.
        std::vector<cgroup::Cgroup *> leaves;
        uint32_t pods = static_cast<uint32_t>(rng.between(2, 4));
        for (uint32_t p = 0; p < pods; ++p) {
            cgroup::Cgroup &pod =
                local_tree.createChild(local_tree.root(), strCat("p", p));
            local_tree.enableIoController(pod);
            local_tree.writeFile(pod, "io.weight",
                                 strCat(rng.between(1, 1000)));
            uint32_t racks = static_cast<uint32_t>(rng.between(1, 3));
            for (uint32_t r = 0; r < racks; ++r) {
                cgroup::Cgroup &rack =
                    local_tree.createChild(pod, strCat("r", r));
                local_tree.enableIoController(rack);
                local_tree.writeFile(rack, "io.weight",
                                     strCat(rng.between(1, 1000)));
                uint32_t n = static_cast<uint32_t>(rng.between(1, 3));
                for (uint32_t l = 0; l < n; ++l) {
                    cgroup::Cgroup &lf =
                        local_tree.createChild(rack, strCat("l", l));
                    local_tree.attachProcess(lf);
                    local_tree.writeFile(lf, "io.weight",
                                         strCat(rng.between(1, 1000)));
                    leaves.push_back(&lf);
                }
            }
        }

        // A random non-empty subset of leaves becomes active.
        std::vector<cgroup::Cgroup *> active;
        for (cgroup::Cgroup *lf : leaves) {
            if (rng.below(2) == 0)
                active.push_back(lf);
        }
        if (active.empty())
            active.push_back(leaves[rng.below(leaves.size())]);

        IoCostGate gate(local_sim, 0, local_tree, [](Request *) {});
        std::vector<std::unique_ptr<Request>> local_reqs;
        for (cgroup::Cgroup *lf : active) {
            auto req = std::make_unique<Request>();
            req->op = OpType::kRead;
            req->size = 4096;
            req->cg = lf;
            gate.submit(req.get());
            local_reqs.push_back(std::move(req));
        }

        double total = 0.0;
        for (cgroup::Cgroup *lf : active) {
            double expect = expectedShare(*lf, active);
            EXPECT_NEAR(gate.shareOf(lf), expect, 1e-9)
                << "round " << round << " leaf " << lf->path();
            total += expect;
        }
        EXPECT_NEAR(total, 1.0, 1e-9) << "round " << round;
    }
}

// --- Interior io.max: shared subtree caps ------------------------------

TEST_F(HierarchyFixture, InteriorIoMaxCapsWholeSubtree)
{
    // pod capped at 4 MiB/s; its two unlimited leaves together must not
    // exceed the shared bucket.
    cgroup::Cgroup &pod = interior(tree.root(), "pod");
    tree.writeFile(pod, "io.max", "259:0 rbps=4194304");
    cgroup::Cgroup &a = leaf(pod, "a");
    cgroup::Cgroup &b = leaf(pod, "b");

    uint64_t passed_bytes = 0;
    IoMaxGate gate(sim, 0, tree,
                   [&](Request *req) { passed_bytes += req->size; });
    for (int i = 0; i < 2048; ++i) {
        gate.submit(makeReq(&a));
        gate.submit(makeReq(&b));
    }
    sim.runUntil(secToNs(int64_t{1}));
    double mibs =
        static_cast<double>(passed_bytes) / static_cast<double>(MiB);
    EXPECT_GT(mibs, 3.2);
    EXPECT_LT(mibs, 4.8);
    EXPECT_GT(gate.throttled(), 0u);
}

TEST_F(HierarchyFixture, TightestAncestorLimitWins)
{
    // grandparent 2 MiB/s, parent 8 MiB/s: the subtree drains at the
    // grandparent's rate regardless of the looser inner limit.
    cgroup::Cgroup &outer = interior(tree.root(), "outer");
    cgroup::Cgroup &inner = interior(outer, "inner");
    tree.writeFile(outer, "io.max", "259:0 rbps=2097152");
    tree.writeFile(inner, "io.max", "259:0 rbps=8388608");
    cgroup::Cgroup &lf = leaf(inner, "leaf");

    uint64_t passed_bytes = 0;
    IoMaxGate gate(sim, 0, tree,
                   [&](Request *req) { passed_bytes += req->size; });
    for (int i = 0; i < 4096; ++i)
        gate.submit(makeReq(&lf));
    sim.runUntil(secToNs(int64_t{1}));
    double mibs =
        static_cast<double>(passed_bytes) / static_cast<double>(MiB);
    EXPECT_GT(mibs, 1.6);
    EXPECT_LT(mibs, 2.5);
}

TEST_F(HierarchyFixture, SiblingSubtreeUnaffectedByCappedPod)
{
    cgroup::Cgroup &capped = interior(tree.root(), "capped");
    tree.writeFile(capped, "io.max", "259:0 riops=100");
    cgroup::Cgroup &free_pod = interior(tree.root(), "free");
    cgroup::Cgroup &c_leaf = leaf(capped, "x");
    cgroup::Cgroup &f_leaf = leaf(free_pod, "y");

    int free_passed = 0;
    IoMaxGate gate(sim, 0, tree, [&](Request *req) {
        free_passed += req->cg == &f_leaf;
    });
    for (int i = 0; i < 200; ++i) {
        gate.submit(makeReq(&c_leaf));
        gate.submit(makeReq(&f_leaf));
    }
    // The uncapped subtree passes everything immediately.
    EXPECT_EQ(free_passed, 200);
}

// --- Interior io.max: waiter FIFOs --------------------------------------

/**
 * Closed-loop load through one io.max gate: every tenant keeps `qd`
 * requests in flight, cycling through its op pattern, and resubmits
 * kThink after each pass until `stop`. Bytes passed inside the
 * measurement window are tallied per op.
 */
class ClosedLoop
{
  public:
    static constexpr SimTime kThink = usToNs(100);

    ClosedLoop(sim::Simulator &sim, cgroup::CgroupTree &tree, SimTime stop)
        : sim_(sim), stop_(stop),
          gate_(sim, 0, tree, [this](Request *req) { onPass(req); })
    {
    }
    ClosedLoop(const ClosedLoop &) = delete;
    ClosedLoop &operator=(const ClosedLoop &) = delete;

    void
    add(cgroup::Cgroup &cg, uint32_t qd = 1,
        std::vector<OpType> pattern = {OpType::kRead})
    {
        tenants_.push_back(Tenant{&cg, std::move(pattern), 0});
        for (uint32_t i = 0; i < qd; ++i) {
            auto req = std::make_unique<Request>();
            req->size = 4096;
            req->cg = &cg;
            owner_[req.get()] = tenants_.size() - 1;
            reqs_.push_back(std::move(req));
        }
    }

    /** Submit every tenant's first `qd` requests now. */
    void
    start()
    {
        for (auto &req : reqs_)
            submit(req.get());
    }

    void
    measure(SimTime from, SimTime to)
    {
        from_ = from;
        to_ = to;
    }

    /** Bytes/s of `op` passed inside the measurement window. */
    double
    rate(OpType op) const
    {
        return static_cast<double>(bytes_[op == OpType::kRead ? 0 : 1]) /
               nsToSec(to_ - from_);
    }

    IoMaxGate &gate() { return gate_; }
    uint64_t passed() const { return passed_; }

  private:
    struct Tenant
    {
        cgroup::Cgroup *cg;
        std::vector<OpType> pattern;
        size_t next;
    };

    void
    submit(Request *req)
    {
        Tenant &t = tenants_[owner_.at(req)];
        req->op = t.pattern[t.next++ % t.pattern.size()];
        gate_.submit(req);
    }

    void
    onPass(Request *req)
    {
        ++passed_;
        SimTime now = sim_.now();
        if (now >= from_ && now < to_)
            bytes_[req->op == OpType::kRead ? 0 : 1] += req->size;
        if (now + kThink < stop_)
            sim_.at(now + kThink, [this, req] { submit(req); });
    }

    sim::Simulator &sim_;
    SimTime stop_;
    IoMaxGate gate_;
    std::vector<Tenant> tenants_;
    std::vector<std::unique_ptr<Request>> reqs_;
    std::map<const Request *, size_t> owner_;
    SimTime from_ = 0;
    SimTime to_ = 0;
    uint64_t bytes_[2] = {0, 0};
    uint64_t passed_ = 0;
};

TEST_F(HierarchyFixture, SharedLimitWakesOneWaiterNotTheHerd)
{
    // 64 QD1 unlimited leaves behind one 4 MiB/s pod: freed credit must
    // wake one waiter, not every throttled sibling.
    cgroup::Cgroup &pod = interior(tree.root(), "pod");
    tree.writeFile(pod, "io.max", "259:0 rbps=4194304");
    ClosedLoop load(sim, tree, secToNs(int64_t{1}));
    for (int i = 0; i < 64; ++i)
        load.add(leaf(pod, strCat("t", i)));
    load.start();
    sim.runUntil(secToNs(int64_t{1}));

    ASSERT_GT(load.passed(), 1000u);
    auto passed = static_cast<double>(load.passed());
    double events = static_cast<double>(sim.eventsExecuted()) / passed;
    double bookkeeping =
        static_cast<double>(load.gate().bookkeepingOps()) / passed;
    // One resubmit and about one wake per admitted I/O; a herd costs
    // one drain per throttled sibling (~64).
    EXPECT_LT(events, 4.0);
    // A few O(depth) chain walks per I/O (depth 2 here).
    EXPECT_LT(bookkeeping, 8.0 * 2);
    EXPECT_GT(load.gate().parkedWaiters(), 0u);
}

TEST_F(HierarchyFixture, MixedSiblingDoesNotStallReaders)
{
    // A sibling whose queue alternates reads and writes leaves the read
    // FIFO when its head turns into a write: readers behind it still
    // drain the pod's full read budget.
    cgroup::Cgroup &pod = interior(tree.root(), "pod");
    tree.writeFile(pod, "io.max", "259:0 rbps=8388608 wbps=1048576");
    SimTime end = msToNs(1100);
    ClosedLoop load(sim, tree, end);
    load.add(leaf(pod, "mixed"), 8, {OpType::kRead, OpType::kWrite});
    for (int i = 0; i < 32; ++i)
        load.add(leaf(pod, strCat("r", i)));
    load.measure(msToNs(100), end);
    load.start();
    sim.runUntil(end);

    double cap = 8388608.0;
    EXPECT_GT(load.rate(OpType::kRead), 0.95 * cap);
    EXPECT_LT(load.rate(OpType::kRead), 1.05 * cap);
    EXPECT_GT(load.rate(OpType::kWrite), 0.0);
}

TEST_F(HierarchyFixture, LeafLimitedSiblingDoesNotStallParentWaiters)
{
    // A sibling with a tight io.max of its own waits on its own timer,
    // not at the head of the pod's FIFO.
    cgroup::Cgroup &pod = interior(tree.root(), "pod");
    tree.writeFile(pod, "io.max", "259:0 rbps=8388608");
    cgroup::Cgroup &slow = leaf(pod, "slow");
    tree.writeFile(slow, "io.max", "259:0 rbps=65536");
    SimTime end = msToNs(1100);
    ClosedLoop load(sim, tree, end);
    load.add(slow, 8);
    for (int i = 0; i < 32; ++i)
        load.add(leaf(pod, strCat("r", i)));
    load.measure(msToNs(100), end);
    load.start();
    sim.runUntil(end);

    double cap = 8388608.0;
    EXPECT_GT(load.rate(OpType::kRead), 0.95 * cap);
    EXPECT_LT(load.rate(OpType::kRead), 1.05 * cap);
}

TEST_F(HierarchyFixture, ThrottledGroupsWaitExactlyOnce)
{
    // Pods limited on both directions, racks on reads, some leaves on
    // their own: waiters move between own timers and several FIFOs.
    sim::InvariantChecker inv("iomax-waiters");
    SimTime end = msToNs(400);
    ClosedLoop load(sim, tree, end);
    load.gate().setInvariants(&inv);
    for (int p = 0; p < 2; ++p) {
        cgroup::Cgroup &pod = interior(tree.root(), strCat("pod", p));
        tree.writeFile(pod, "io.max", "259:0 rbps=8388608 wbps=2097152");
        for (int r = 0; r < 2; ++r) {
            cgroup::Cgroup &rack = interior(pod, strCat("rack", r));
            tree.writeFile(rack, "io.max", "259:0 rbps=5242880");
            for (int i = 0; i < 8; ++i) {
                cgroup::Cgroup &lf = leaf(rack, strCat("t", i));
                if (i % 4 == 0)
                    tree.writeFile(lf, "io.max", "259:0 rbps=262144");
                load.add(lf, 1 + i % 3,
                         i % 2 == 0 ? std::vector<OpType>{OpType::kRead}
                                    : std::vector<OpType>{OpType::kRead,
                                                          OpType::kWrite});
            }
        }
    }
    load.start();
    for (SimTime t = msToNs(1); t < end; t += msToNs(1))
        sim.at(t, [&load] { load.gate().verifyWaiters(); });
    EXPECT_NO_THROW(sim.runUntil(end));
    EXPECT_GT(load.gate().parkedWaiters(), 0u);
    uint64_t before = inv.checksPerformed();
    EXPECT_NO_THROW(load.gate().verifyWaiters());
    EXPECT_GT(inv.checksPerformed(), before);

    // Once the load stops, nothing is stranded.
    sim.runUntil(end + secToNs(int64_t{1}));
    EXPECT_EQ(load.gate().throttled(), 0u);
    EXPECT_EQ(load.gate().parkedWaiters(), 0u);
    EXPECT_NO_THROW(load.gate().verifyWaiters());
}

/** Live io.max rewrite of a pod with parked waiters. */
struct RewriteResult
{
    SimTime rewrite_at = 0;
    SimTime armed_wake = -1;
    size_t parked_at_rewrite = 0;
    size_t parked_at_wake = 0;
    double rate_after = 0.0;
    size_t throttled_at_end = 0;
    size_t parked_at_end = 0;
};

RewriteResult
rewritePodMidRun(const std::string &new_limit)
{
    sim::Simulator sim;
    cgroup::CgroupTree tree;
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    cgroup::Cgroup &pod = tree.createChild(tree.root(), "pod");
    tree.enableIoController(pod);
    tree.writeFile(pod, "io.max", "259:0 rbps=4194304");

    SimTime stop = msToNs(1300);
    ClosedLoop load(sim, tree, stop);
    sim::InvariantChecker inv("iomax-rewrite");
    load.gate().setInvariants(&inv);
    for (int i = 0; i < 32; ++i) {
        cgroup::Cgroup &lf = tree.createChild(pod, strCat("t", i));
        tree.attachProcess(lf);
        load.add(lf);
    }
    load.measure(msToNs(400), stop);
    load.start();

    RewriteResult res;
    res.rewrite_at = msToNs(300);
    sim.runUntil(res.rewrite_at);
    res.armed_wake = load.gate().wakeTimeOf(&pod, OpType::kRead);
    res.parked_at_rewrite = load.gate().parkedWaiters();
    tree.writeFile(pod, "io.max", new_limit);
    sim.runUntil(res.armed_wake);
    res.parked_at_wake = load.gate().parkedWaiters();
    sim.runUntil(stop);
    res.rate_after = load.rate(OpType::kRead);
    sim.runUntil(stop + secToNs(int64_t{1}));
    res.throttled_at_end = load.gate().throttled();
    res.parked_at_end = load.gate().parkedWaiters();
    load.gate().verifyWaiters();
    return res;
}

TEST(InteriorIoMaxRewrite, LiftingTheLimitReleasesParkedWaitersByTheirWake)
{
    RewriteResult res = rewritePodMidRun("259:0 rbps=max");
    ASSERT_GT(res.parked_at_rewrite, 0u);
    ASSERT_GE(res.armed_wake, res.rewrite_at);
    // Every parked waiter is released no later than the armed wake.
    EXPECT_EQ(res.parked_at_wake, 0u);
    EXPECT_GT(res.rate_after, 100.0 * 4194304.0);
    EXPECT_EQ(res.throttled_at_end, 0u);
    EXPECT_EQ(res.parked_at_end, 0u);
}

TEST(InteriorIoMaxRewrite, TighteningTheLimitIsRespected)
{
    RewriteResult res = rewritePodMidRun("259:0 rbps=1048576");
    ASSERT_GT(res.parked_at_rewrite, 0u);
    double cap = 1048576.0;
    EXPECT_GT(res.rate_after, 0.95 * cap);
    EXPECT_LT(res.rate_after, 1.05 * cap);
    EXPECT_EQ(res.throttled_at_end, 0u);
    EXPECT_EQ(res.parked_at_end, 0u);
}

TEST_F(HierarchyFixture, EarlierWaiterBringsTheWakeForward)
{
    // A live rewrite lifts the dimension that set the pod's armed wake
    // (rbps) and keeps another (riops). A sibling blocked only by riops
    // brings the wake forward, and the waiter parked ahead of it goes
    // first, long before the old rbps horizon.
    cgroup::Cgroup &pod = interior(tree.root(), "pod");
    tree.writeFile(pod, "io.max", "259:0 rbps=1048576 riops=10");
    std::map<const Request *, SimTime> passed_at;
    IoMaxGate gate(sim, 0, tree,
                   [&](Request *req) { passed_at[req] = sim.now(); });
    Request *big = makeReq(&leaf(pod, "big"), OpType::kRead, 4 * 1048576);
    Request *parked = makeReq(&leaf(pod, "parked"));
    gate.submit(big); // passes; the pod's rbps horizon moves to 4 s
    gate.submit(parked);
    SimTime old_wake = gate.wakeTimeOf(&pod, OpType::kRead);
    ASSERT_EQ(old_wake, secToNs(int64_t{4}));

    sim.runUntil(msToNs(10));
    tree.writeFile(pod, "io.max", "259:0 rbps=max riops=10");
    Request *late = makeReq(&leaf(pod, "late"));
    gate.submit(late); // blocked by riops alone, due at 100 ms
    EXPECT_EQ(gate.wakeTimeOf(&pod, OpType::kRead), msToNs(100));

    sim.runUntil(secToNs(int64_t{1}));
    ASSERT_EQ(passed_at.count(parked), 1u);
    ASSERT_EQ(passed_at.count(late), 1u);
    EXPECT_EQ(passed_at[parked], msToNs(100));
    EXPECT_EQ(passed_at[late], msToNs(200));
    EXPECT_EQ(gate.throttled(), 0u);
    EXPECT_EQ(gate.parkedWaiters(), 0u);
    EXPECT_EQ(gate.wakeTimeOf(&pod, OpType::kRead), -1);
    // The 4 s wake was withdrawn, not left pending.
    EXPECT_TRUE(sim.idle());
}

// --- Charge conservation on randomized trees ---------------------------

TEST_F(HierarchyFixture, ChargeConservationOnRandomizedTrees)
{
    Rng rng(0xC0FFEEull);
    for (int round = 0; round < 10; ++round) {
        sim::Simulator local_sim;
        cgroup::CgroupTree local_tree;
        local_tree.writeFile(local_tree.root(),
                             "cgroup.subtree_control", "+io");
        sim::InvariantChecker inv(strCat("hierarchy-", round));

        std::vector<cgroup::Cgroup *> leaves;
        std::vector<cgroup::Cgroup *> interiors;
        uint32_t pods = static_cast<uint32_t>(rng.between(2, 3));
        for (uint32_t p = 0; p < pods; ++p) {
            cgroup::Cgroup &pod =
                local_tree.createChild(local_tree.root(), strCat("p", p));
            local_tree.enableIoController(pod);
            interiors.push_back(&pod);
            uint32_t racks = static_cast<uint32_t>(rng.between(1, 3));
            for (uint32_t r = 0; r < racks; ++r) {
                cgroup::Cgroup &rack =
                    local_tree.createChild(pod, strCat("r", r));
                local_tree.enableIoController(rack);
                interiors.push_back(&rack);
                uint32_t n = static_cast<uint32_t>(rng.between(1, 3));
                for (uint32_t l = 0; l < n; ++l) {
                    cgroup::Cgroup &lf =
                        local_tree.createChild(rack, strCat("l", l));
                    local_tree.attachProcess(lf);
                    leaves.push_back(&lf);
                }
            }
        }

        IoCostGate gate(local_sim, 0, local_tree, [](Request *) {});
        gate.setInvariants(&inv);
        gate.start();
        std::vector<std::unique_ptr<Request>> local_reqs;
        uint32_t ios = static_cast<uint32_t>(rng.between(50, 200));
        for (uint32_t i = 0; i < ios; ++i) {
            auto req = std::make_unique<Request>();
            req->op = rng.below(2) == 0 ? OpType::kRead : OpType::kWrite;
            req->sequential = rng.below(2) == 0;
            req->size = static_cast<uint32_t>(
                (1 + rng.below(64)) * 4096);
            req->cg = leaves[rng.below(leaves.size())];
            gate.submit(req.get());
            local_reqs.push_back(std::move(req));
        }
        local_sim.runUntil(secToNs(int64_t{2}));

        // Bottom-up conservation: every interior node's subtree charge
        // equals the sum over its children (only leaves submit here).
        for (const cgroup::Cgroup *node : interiors) {
            double child_sum = 0.0;
            for (const cgroup::Cgroup *child : node->children())
                child_sum += gate.subtreeAbsOf(child);
            EXPECT_NEAR(gate.subtreeAbsOf(node), child_sum,
                        1e-6 + 1e-9 * child_sum)
                << "round " << round << " node " << node->path();
        }

        // And the gate's own oracle agrees (throws on violation).
        EXPECT_NO_THROW(gate.checkHierarchicalCharges());
        EXPECT_GT(inv.checksPerformed(), 0u);
    }
}

TEST_F(HierarchyFixture, IoMaxHierarchicalConsumptionConserved)
{
    cgroup::Cgroup &pod = interior(tree.root(), "pod");
    tree.writeFile(pod, "io.max", "259:0 rbps=8388608");
    cgroup::Cgroup &a = leaf(pod, "a");
    cgroup::Cgroup &b = leaf(pod, "b");

    sim::InvariantChecker inv("iomax-hier");
    IoMaxGate gate(sim, 0, tree, [](Request *) {});
    gate.setInvariants(&inv);
    for (int i = 0; i < 512; ++i) {
        gate.submit(makeReq(&a));
        gate.submit(makeReq(&b));
    }
    sim.runUntil(secToNs(int64_t{1}));

    EXPECT_EQ(gate.consumedBytesOf(&pod),
              gate.consumedBytesOf(&a) + gate.consumedBytesOf(&b));
    EXPECT_NO_THROW(gate.verifyHierarchicalConsumption());
}

// --- 1024-tenant fleet replay ------------------------------------------

/** Leaf path for tenant `i` in a 4-level tree with 8 pods. */
std::string
fleetPath(uint32_t i)
{
    return strCat("pod", i % 8, "/rack", (i / 8) % 4, "/row",
                  (i / 32) % 2, "/t", i);
}

/** One 1024-tenant, 4-level fleet scenario; exact-metrics fingerprint. */
std::string
fleetFingerprint(uint64_t seed)
{
    using namespace isol::isolbench;
    ScenarioConfig cfg;
    cfg.name = strCat("fleet-replay-", seed);
    cfg.knob = Knob::kIoCost;
    cfg.num_cores = 16;
    cfg.duration = msToNs(80);
    cfg.warmup = msToNs(20);
    cfg.seed = seed;

    Scenario s(cfg);
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
    for (uint32_t i = 0; i < 1024; ++i) {
        workload::JobSpec spec;
        if (rng.below(2) == 0) {
            spec = workload::lcApp(strCat("lc", i), cfg.duration);
        } else {
            spec = workload::batchApp(strCat("batch", i), cfg.duration);
            spec.iodepth = static_cast<uint32_t>(rng.between(2, 4));
        }
        spec.seed = seed + i * 7919 + 17;
        uint32_t app = s.addApp(std::move(spec), fleetPath(i));
        s.tree().writeFile(s.appGroup(app), "io.weight",
                           strCat(rng.between(50, 200)));
    }
    s.run();

    std::string print;
    uint64_t bytes = 0;
    uint64_t ios = 0;
    for (uint32_t i = 0; i < s.numApps(); ++i) {
        bytes += s.app(i).windowBytes();
        ios += s.app(i).totalIos();
    }
    print += strCat("bytes=", bytes, " ios=", ios,
                    " events=", s.sim().eventsExecuted());
    uint64_t bookkeeping = 0;
    for (uint32_t d = 0; d < s.numDevices(); ++d)
        bookkeeping += s.device(d).gateBookkeepingOps();
    print += strCat(" bookkeeping=", bookkeeping);
    return print;
}

TEST(FleetReplay, ByteIdenticalAcrossJobs)
{
    auto fingerprints = [](uint32_t jobs) {
        return isolbench::sweep::map<std::string>(
            2, [](size_t i) { return fleetFingerprint(23 + i * 101); },
            jobs);
    };
    std::vector<std::string> jobs1 = fingerprints(1);
    std::vector<std::string> jobs2 = fingerprints(2);
    std::vector<std::string> jobs8 = fingerprints(8);
    EXPECT_EQ(jobs1, jobs2);
    EXPECT_EQ(jobs1, jobs8);
    for (const std::string &fp : jobs1) {
        EXPECT_NE(fp.find("events="), std::string::npos);
        EXPECT_NE(fp.find("bookkeeping="), std::string::npos);
    }
}

} // namespace
} // namespace isol::blk
