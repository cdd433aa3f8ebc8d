/**
 * @file
 * Unit tests for the cgroup v2 model: hierarchy rules, sysfs-syntax knob
 * parsing, validation, and hierarchical weight resolution.
 */

#include <gtest/gtest.h>

#include "cgroup/cgroup.hh"
#include "cgroup/knobs.hh"
#include "common/logging.hh"

namespace isol::cgroup
{
namespace
{

TEST(Knobs, ParsePrioClass)
{
    EXPECT_EQ(parsePrioClass("no-change"), PrioClass::kNoChange);
    EXPECT_EQ(parsePrioClass("promote-to-rt"), PrioClass::kPromoteToRt);
    EXPECT_EQ(parsePrioClass("restrict-to-be"), PrioClass::kRestrictToBe);
    EXPECT_EQ(parsePrioClass("idle"), PrioClass::kIdle);
    EXPECT_EQ(parsePrioClass(" rt "), PrioClass::kPromoteToRt);
    EXPECT_FALSE(parsePrioClass("bogus").has_value());
}

TEST(Knobs, PrioClassNamesRoundTrip)
{
    for (PrioClass cls : {PrioClass::kNoChange, PrioClass::kPromoteToRt,
                          PrioClass::kRestrictToBe, PrioClass::kIdle}) {
        EXPECT_EQ(parsePrioClass(prioClassName(cls)), cls);
    }
}

TEST(Knobs, ParseIoMax)
{
    auto limits = parseIoMax("rbps=83886080 wbps=max riops=1000");
    ASSERT_TRUE(limits.has_value());
    EXPECT_EQ(limits->rbps, 83886080u);
    EXPECT_EQ(limits->wbps, 0u); // max == unlimited
    EXPECT_EQ(limits->riops, 1000u);
    EXPECT_EQ(limits->wiops, 0u);
    EXPECT_FALSE(limits->unlimited());
}

TEST(Knobs, ParseIoMaxSuffixes)
{
    auto limits = parseIoMax("rbps=1g wbps=512m");
    ASSERT_TRUE(limits.has_value());
    EXPECT_EQ(limits->rbps, GiB);
    EXPECT_EQ(limits->wbps, 512 * MiB);
}

TEST(Knobs, ParseIoMaxPreservesBase)
{
    IoMaxLimits base;
    base.rbps = 77;
    auto limits = parseIoMax("wbps=88", base);
    ASSERT_TRUE(limits.has_value());
    EXPECT_EQ(limits->rbps, 77u); // untouched key keeps prior value
    EXPECT_EQ(limits->wbps, 88u);
}

TEST(Knobs, ParseIoMaxRejectsGarbage)
{
    EXPECT_FALSE(parseIoMax("rbps").has_value());
    EXPECT_FALSE(parseIoMax("bogus=1").has_value());
    EXPECT_FALSE(parseIoMax("rbps=abc").has_value());
    EXPECT_FALSE(parseIoMax("=5").has_value());
}

TEST(Knobs, ParseIoLatency)
{
    auto cfg = parseIoLatency("target=75");
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->target, usToNs(75));
    EXPECT_FALSE(parseIoLatency("target=abc").has_value());
    EXPECT_FALSE(parseIoLatency("tgt=75").has_value());
    // µs values whose ns form overflows SimTime.
    EXPECT_FALSE(parseIoLatency("target=18446744073709551615").has_value());
    EXPECT_FALSE(parseIoLatency("target=9300000000000000").has_value());
    auto max = parseIoLatency("target=9223372036854775");
    ASSERT_TRUE(max.has_value());
    EXPECT_EQ(max->target, usToNs(9223372036854775));
}

TEST(Knobs, ParseIoCostModel)
{
    auto model = parseIoCostModel(
        "ctrl=user model=linear rbps=2000000000 rseqiops=500000 "
        "rrandiops=400000 wbps=300000000 wseqiops=100000 wrandiops=90000");
    ASSERT_TRUE(model.has_value());
    EXPECT_TRUE(model->user);
    EXPECT_EQ(model->rbps, 2000000000u);
    EXPECT_EQ(model->rrandiops, 400000u);
    EXPECT_EQ(model->wrandiops, 90000u);
    EXPECT_FALSE(parseIoCostModel("model=quadratic").has_value());
}

TEST(Knobs, ParseIoCostQos)
{
    auto qos = parseIoCostQos(
        "enable=1 ctrl=user rpct=95.00 rlat=100 wpct=95.00 wlat=400 "
        "min=50.00 max=150.00");
    ASSERT_TRUE(qos.has_value());
    EXPECT_TRUE(qos->enable);
    EXPECT_DOUBLE_EQ(qos->rpct, 95.0);
    EXPECT_EQ(qos->rlat, usToNs(100));
    EXPECT_DOUBLE_EQ(qos->vrate_min, 50.0);
    EXPECT_DOUBLE_EQ(qos->vrate_max, 150.0);
}

TEST(Knobs, ParseIoCostQosValidation)
{
    EXPECT_FALSE(parseIoCostQos("min=80 max=50").has_value());
    EXPECT_FALSE(parseIoCostQos("rpct=150").has_value());
    EXPECT_FALSE(parseIoCostQos("enable=2").has_value());
    // NaN and infinity pass every comparison-based range check.
    EXPECT_FALSE(parseIoCostQos("min=nan max=100").has_value());
    EXPECT_FALSE(parseIoCostQos("rpct=nan").has_value());
    EXPECT_FALSE(parseIoCostQos("max=inf").has_value());
    // µs latencies whose ns form overflows SimTime.
    EXPECT_FALSE(parseIoCostQos("rlat=18446744073709551615").has_value());
    EXPECT_FALSE(parseIoCostQos("wlat=9300000000000000").has_value());
}

TEST(Knobs, ParseWeightRanges)
{
    EXPECT_EQ(parseWeight("100", 1, 10000), 100u);
    EXPECT_EQ(parseWeight("default 250", 1, 10000), 250u);
    EXPECT_FALSE(parseWeight("0", 1, 10000).has_value());
    EXPECT_FALSE(parseWeight("10001", 1, 10000).has_value());
    EXPECT_FALSE(parseWeight("1001", 1, 1000).has_value());
    EXPECT_FALSE(parseWeight("abc", 1, 1000).has_value());
}

// --- Tree semantics ---

TEST(CgroupTree, RootExists)
{
    CgroupTree tree;
    EXPECT_TRUE(tree.root().isRoot());
    EXPECT_EQ(tree.root().path(), "/");
    EXPECT_EQ(tree.groups().size(), 1u);
}

TEST(CgroupTree, CreateChildrenAndPaths)
{
    CgroupTree tree;
    Cgroup &slice = tree.createChild(tree.root(), "workloads.slice");
    Cgroup &svc = tree.createChild(slice, "container-a.service");
    EXPECT_EQ(slice.path(), "/workloads.slice");
    EXPECT_EQ(svc.path(), "/workloads.slice/container-a.service");
    EXPECT_EQ(svc.parent(), &slice);
}

TEST(CgroupTree, DuplicateNameRejected)
{
    CgroupTree tree;
    tree.createChild(tree.root(), "a");
    EXPECT_THROW(tree.createChild(tree.root(), "a"), FatalError);
}

TEST(CgroupTree, InvalidNameRejected)
{
    CgroupTree tree;
    EXPECT_THROW(tree.createChild(tree.root(), ""), FatalError);
    EXPECT_THROW(tree.createChild(tree.root(), "a/b"), FatalError);
}

TEST(CgroupTree, NoInternalProcessesRule)
{
    CgroupTree tree;
    Cgroup &mgmt = tree.createChild(tree.root(), "mgmt");
    tree.enableIoController(mgmt);
    // A management group cannot hold processes.
    EXPECT_THROW(tree.attachProcess(mgmt), FatalError);

    Cgroup &procs = tree.createChild(tree.root(), "procs");
    tree.attachProcess(procs);
    // A process group cannot become a management group.
    EXPECT_THROW(tree.enableIoController(procs), FatalError);
}

TEST(CgroupTree, DetachValidation)
{
    CgroupTree tree;
    Cgroup &g = tree.createChild(tree.root(), "g");
    EXPECT_THROW(tree.detachProcess(g), FatalError);
    tree.attachProcess(g);
    tree.detachProcess(g);
    EXPECT_EQ(g.processCount(), 0u);
}

TEST(CgroupTree, KnobNeedsParentIoController)
{
    CgroupTree tree;
    Cgroup &g = tree.createChild(tree.root(), "g");
    // Parent (root) has not enabled +io yet.
    EXPECT_THROW(tree.writeFile(g, "io.weight", "200"), FatalError);
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    tree.writeFile(g, "io.weight", "200");
    EXPECT_EQ(g.ioWeight(), 200u);
}

TEST(CgroupTree, IoCostKnobsRootOnly)
{
    CgroupTree tree;
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    Cgroup &g = tree.createChild(tree.root(), "g");
    EXPECT_THROW(tree.writeFile(g, "io.cost.model", "259:0 rbps=1000"),
                 FatalError);
    EXPECT_THROW(tree.writeFile(g, "io.cost.qos", "259:0 min=10"),
                 FatalError);
    tree.writeFile(tree.root(), "io.cost.model", "259:0 rbps=1000");
    EXPECT_EQ(tree.costModel(0).rbps, 1000u);
}

TEST(CgroupTree, PrioClassOnlyOnProcessGroups)
{
    CgroupTree tree;
    Cgroup &mgmt = tree.createChild(tree.root(), "mgmt");
    tree.enableIoController(mgmt);
    EXPECT_THROW(tree.writeFile(mgmt, "io.prio.class", "idle"),
                 FatalError);

    Cgroup &leaf = tree.createChild(mgmt, "leaf");
    tree.writeFile(leaf, "io.prio.class", "idle");
    EXPECT_EQ(leaf.prioClass(), PrioClass::kIdle);
}

TEST(CgroupTree, IoMaxPerDevice)
{
    CgroupTree tree;
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    Cgroup &g = tree.createChild(tree.root(), "g");
    tree.writeFile(g, "io.max", "259:0 rbps=1000");
    tree.writeFile(g, "io.max", "259:1 rbps=2000");
    EXPECT_EQ(g.ioMax(0).rbps, 1000u);
    EXPECT_EQ(g.ioMax(1).rbps, 2000u);
    EXPECT_TRUE(g.ioMax(2).unlimited());
    // Partial update keeps other fields.
    tree.writeFile(g, "io.max", "259:0 wbps=500");
    EXPECT_EQ(g.ioMax(0).rbps, 1000u);
    EXPECT_EQ(g.ioMax(0).wbps, 500u);
}

TEST(CgroupTree, IoLatencyPerDevice)
{
    CgroupTree tree;
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    Cgroup &g = tree.createChild(tree.root(), "g");
    tree.writeFile(g, "io.latency", "259:0 target=75");
    EXPECT_EQ(g.ioLatencyTarget(0), usToNs(75));
    EXPECT_EQ(g.ioLatencyTarget(1), 0);
}

TEST(CgroupTree, WeightValidationThroughWriteFile)
{
    CgroupTree tree;
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    Cgroup &g = tree.createChild(tree.root(), "g");
    EXPECT_THROW(tree.writeFile(g, "io.weight", "0"), FatalError);
    EXPECT_THROW(tree.writeFile(g, "io.weight", "10001"), FatalError);
    EXPECT_THROW(tree.writeFile(g, "io.bfq.weight", "1001"), FatalError);
    tree.writeFile(g, "io.bfq.weight", "1000");
    EXPECT_EQ(g.bfqWeight(), 1000u);
}

TEST(CgroupTree, UnknownFileRejected)
{
    CgroupTree tree;
    EXPECT_THROW(tree.writeFile(tree.root(), "io.bogus", "1"), FatalError);
    EXPECT_THROW((void)tree.readFile(tree.root(), "io.bogus"), FatalError);
}

TEST(CgroupTree, ReadBackFiles)
{
    CgroupTree tree;
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    Cgroup &g = tree.createChild(tree.root(), "g");
    tree.writeFile(g, "io.weight", "300");
    EXPECT_EQ(tree.readFile(g, "io.weight"), "default 300");
    tree.writeFile(g, "io.max", "259:0 rbps=1000");
    std::string max = tree.readFile(g, "io.max");
    EXPECT_NE(max.find("rbps=1000"), std::string::npos);
    EXPECT_NE(max.find("wbps=max"), std::string::npos);
    EXPECT_EQ(tree.readFile(tree.root(), "cgroup.subtree_control"), "io");
}

TEST(CgroupTree, HierarchicalShareFlat)
{
    CgroupTree tree;
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    Cgroup &a = tree.createChild(tree.root(), "a");
    Cgroup &b = tree.createChild(tree.root(), "b");
    tree.attachProcess(a);
    tree.attachProcess(b);
    tree.writeFile(a, "io.weight", "300");
    tree.writeFile(b, "io.weight", "100");
    EXPECT_NEAR(tree.hierarchicalShare(a, false), 0.75, 1e-9);
    EXPECT_NEAR(tree.hierarchicalShare(b, false), 0.25, 1e-9);
}

TEST(CgroupTree, HierarchicalShareIgnoresIdleSiblings)
{
    CgroupTree tree;
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    Cgroup &a = tree.createChild(tree.root(), "a");
    Cgroup &b = tree.createChild(tree.root(), "b");
    tree.writeFile(a, "io.weight", "100");
    tree.writeFile(b, "io.weight", "100");
    tree.attachProcess(a);
    // b has no processes: a gets everything.
    EXPECT_NEAR(tree.hierarchicalShare(a, false), 1.0, 1e-9);
}

TEST(CgroupTree, HierarchicalShareNested)
{
    // Paper's BFQ example: A weight 1000, B weight 1 -> B's children get
    // 1/1001 of the device.
    CgroupTree tree;
    tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    Cgroup &a = tree.createChild(tree.root(), "a");
    Cgroup &b = tree.createChild(tree.root(), "b");
    tree.enableIoController(b);
    Cgroup &b_child = tree.createChild(b, "child");
    tree.writeFile(a, "io.bfq.weight", "1000");
    tree.writeFile(b, "io.bfq.weight", "1");
    tree.attachProcess(a);
    tree.attachProcess(b_child);
    EXPECT_NEAR(tree.hierarchicalShare(b_child, true), 1.0 / 1001.0,
                1e-9);
}

TEST(CgroupTree, CostDefaultsWhenUnset)
{
    CgroupTree tree;
    IoCostModel model = tree.costModel(0);
    EXPECT_FALSE(model.user);
    EXPECT_GT(model.rbps, 0u);
    IoCostQos qos = tree.costQos(0);
    EXPECT_TRUE(qos.enable);
    EXPECT_LE(qos.vrate_min, qos.vrate_max);
}

TEST(CgroupTree, SetCostQosValidates)
{
    CgroupTree tree;
    IoCostQos qos;
    qos.vrate_min = 80;
    qos.vrate_max = 50;
    EXPECT_THROW(tree.setCostQos(0, qos), FatalError);
}

TEST(CgroupTree, SubtreeControlDisable)
{
    CgroupTree tree;
    Cgroup &g = tree.createChild(tree.root(), "g");
    tree.writeFile(g, "cgroup.subtree_control", "+io");
    EXPECT_TRUE(g.ioControllerEnabled());
    tree.writeFile(g, "cgroup.subtree_control", "-io");
    EXPECT_FALSE(g.ioControllerEnabled());
    EXPECT_THROW(tree.writeFile(g, "cgroup.subtree_control", "+cpu"),
                 FatalError);
}

TEST(CgroupTree, ChainAndDepthCached)
{
    CgroupTree tree;
    Cgroup &a = tree.createChild(tree.root(), "a");
    Cgroup &b = tree.createChild(a, "b");
    Cgroup &c = tree.createChild(b, "c");
    EXPECT_EQ(tree.root().depth(), 0u);
    EXPECT_EQ(a.depth(), 1u);
    EXPECT_EQ(c.depth(), 3u);
    // Chain is self-first, excludes the root.
    ASSERT_EQ(c.chain().size(), 3u);
    EXPECT_EQ(c.chain()[0], c.id());
    EXPECT_EQ(c.chain()[1], b.id());
    EXPECT_EQ(c.chain()[2], a.id());
    EXPECT_TRUE(tree.root().chain().empty());
}

TEST(CgroupTree, ResolvePaths)
{
    CgroupTree tree;
    Cgroup &a = tree.createChild(tree.root(), "a");
    Cgroup &b = tree.createChild(a, "b");
    EXPECT_EQ(tree.resolve(""), &tree.root());
    EXPECT_EQ(tree.resolve("/"), &tree.root());
    EXPECT_EQ(tree.resolve("a"), &a);
    EXPECT_EQ(tree.resolve("a/b"), &b);
    EXPECT_EQ(tree.resolve("a/b/"), &b);
    EXPECT_EQ(tree.resolve("a/x"), nullptr);
    EXPECT_EQ(tree.resolve("nope"), nullptr);
}

TEST(CgroupTree, RemoveGroupRules)
{
    CgroupTree tree;
    Cgroup &a = tree.createChild(tree.root(), "a");
    Cgroup &b = tree.createChild(a, "b");
    // rmdir semantics: no children, no processes, never the root.
    EXPECT_THROW(tree.removeGroup(tree.root()), FatalError);
    EXPECT_THROW(tree.removeGroup(a), FatalError); // has child b
    tree.attachProcess(b);
    EXPECT_THROW(tree.removeGroup(b), FatalError); // has a process
    tree.detachProcess(b);
    tree.removeGroup(b);
    tree.removeGroup(a);
    EXPECT_EQ(tree.liveGroupCount(), 1u);
    EXPECT_EQ(tree.resolve("a"), nullptr);
}

TEST(CgroupTree, RemovalRecyclesIdsLifo)
{
    CgroupTree tree;
    Cgroup &a = tree.createChild(tree.root(), "a");
    Cgroup &b = tree.createChild(tree.root(), "b");
    CgroupId id_a = a.id();
    CgroupId id_b = b.id();
    uint32_t cap = tree.idCapacity();
    tree.removeGroup(a);
    tree.removeGroup(b);
    // LIFO: the most recently freed id comes back first.
    EXPECT_EQ(tree.createChild(tree.root(), "c").id(), id_b);
    EXPECT_EQ(tree.createChild(tree.root(), "d").id(), id_a);
    EXPECT_EQ(tree.idCapacity(), cap);
}

TEST(CgroupTree, RemovalListenersFireWhileGroupIntact)
{
    CgroupTree tree;
    Cgroup &a = tree.createChild(tree.root(), "a");
    std::string seen;
    size_t token = tree.addRemovalListener(
        [&seen](Cgroup &cg) { seen = cg.path(); });
    tree.removeGroup(a);
    EXPECT_EQ(seen, "/a");
    tree.removeRemovalListener(token);
    Cgroup &b = tree.createChild(tree.root(), "b");
    seen.clear();
    tree.removeGroup(b);
    EXPECT_TRUE(seen.empty());
}

TEST(CgroupTree, VersionBumpsOnStructuralAndKnobChanges)
{
    CgroupTree tree;
    tree.enableIoController(tree.root());
    uint64_t v0 = tree.version();
    Cgroup &a = tree.createChild(tree.root(), "a");
    EXPECT_GT(tree.version(), v0);
    uint64_t v1 = tree.version();
    tree.writeFile(a, "io.weight", "200");
    EXPECT_GT(tree.version(), v1);
    uint64_t v2 = tree.version();
    tree.attachProcess(a);
    EXPECT_GT(tree.version(), v2);
    uint64_t v3 = tree.version();
    tree.detachProcess(a);
    tree.removeGroup(a);
    EXPECT_GT(tree.version(), v3);
}

TEST(CgroupTree, SubtreeProcessCountsMaintained)
{
    CgroupTree tree;
    Cgroup &a = tree.createChild(tree.root(), "a");
    Cgroup &b = tree.createChild(a, "b");
    Cgroup &c = tree.createChild(a, "c");
    tree.attachProcess(b);
    tree.attachProcess(b);
    tree.attachProcess(c);
    EXPECT_EQ(b.subtreeProcessCount(), 2u);
    EXPECT_EQ(a.subtreeProcessCount(), 3u);
    EXPECT_EQ(tree.root().subtreeProcessCount(), 3u);
    EXPECT_TRUE(tree.subtreeActive(a));
    tree.detachProcess(b);
    tree.detachProcess(b);
    EXPECT_EQ(a.subtreeProcessCount(), 1u);
    EXPECT_TRUE(tree.subtreeActive(a));
    tree.detachProcess(c);
    EXPECT_FALSE(tree.subtreeActive(a));
    EXPECT_EQ(tree.root().subtreeProcessCount(), 0u);
}

} // namespace
} // namespace isol::cgroup
