/**
 * @file
 * Unit tests for the parallelization strategies: scaling, sync sizes,
 * gather-boundary analysis, and memory accounting.
 */

#include <gtest/gtest.h>

#include "dnn/builders.hh"
#include "parallel/strategy.hh"
#include "sim/logging.hh"

namespace mcdla
{
namespace
{

LayerId
findLayer(const Network &net, const std::string &name)
{
    for (LayerId id = 0; id < static_cast<LayerId>(net.size()); ++id)
        if (net.layer(id).name() == name)
            return id;
    ADD_FAILURE() << "no layer named " << name;
    return invalidLayerId;
}

// ------------------------------------------------------- data parallel

TEST(DataParallel, BatchSplitsAcrossDevices)
{
    const Network net = builders::buildAlexNet();
    const ParallelStrategy dp(net, ParallelMode::DataParallel, 8, 512);
    EXPECT_EQ(dp.perDeviceBatch(), 64);
    const Layer &conv = net.layer(findLayer(net, "conv1"));
    EXPECT_EQ(dp.scaling(conv).batch, 64);
    EXPECT_EQ(dp.scaling(conv).modelShards, 1);
}

TEST(DataParallel, NoForwardSync)
{
    const Network net = builders::buildAlexNet();
    const ParallelStrategy dp(net, ParallelMode::DataParallel, 8, 512);
    for (LayerId id = 0; id < static_cast<LayerId>(net.size()); ++id)
        EXPECT_FALSE(dp.forwardSync(id).has_value());
}

TEST(DataParallel, DwAllReducePerWeightedLayer)
{
    const Network net = builders::buildAlexNet();
    const ParallelStrategy dp(net, ParallelMode::DataParallel, 8, 512);
    const LayerId fc6 = findLayer(net, "fc6");
    const auto sync = dp.backwardSync(fc6);
    ASSERT_TRUE(sync.has_value());
    EXPECT_EQ(sync->kind, CollectiveKind::AllReduce);
    EXPECT_FALSE(sync->blocking);
    EXPECT_DOUBLE_EQ(sync->bytes,
                     static_cast<double>(net.layer(fc6).weightBytes()));
    // Weightless layers have nothing to reduce.
    EXPECT_FALSE(dp.backwardSync(findLayer(net, "pool1")).has_value());
}

TEST(DataParallel, TiedRecurrentCellsReduceOnce)
{
    const Network net = builders::buildRnnGemv(10, 128);
    const ParallelStrategy dp(net, ParallelMode::DataParallel, 8, 512);
    int syncs = 0;
    double bytes = 0.0;
    for (LayerId id = 0; id < static_cast<LayerId>(net.size()); ++id) {
        if (!net.layer(id).isRecurrent())
            continue;
        if (auto s = dp.backwardSync(id)) {
            ++syncs;
            bytes = s->bytes;
        }
    }
    EXPECT_EQ(syncs, 1); // only the untied owner (t0)
    EXPECT_DOUBLE_EQ(bytes, static_cast<double>(
        net.layer(findLayer(net, "t0")).weightBytes()));
}

TEST(DataParallel, SingleDeviceNeedsNoSync)
{
    const Network net = builders::buildAlexNet();
    const ParallelStrategy dp(net, ParallelMode::DataParallel, 1, 512);
    for (LayerId id = 0; id < static_cast<LayerId>(net.size()); ++id) {
        EXPECT_FALSE(dp.forwardSync(id).has_value());
        EXPECT_FALSE(dp.backwardSync(id).has_value());
    }
}

TEST(DataParallel, FullWeightsPerDevice)
{
    const Network net = builders::buildAlexNet();
    const ParallelStrategy dp(net, ParallelMode::DataParallel, 8, 512);
    EXPECT_EQ(dp.weightBytesPerDevice(net), net.totalWeightBytes());
}

TEST(DataParallel, OffloadScalesWithDeviceBatch)
{
    const Network net = builders::buildAlexNet();
    const ParallelStrategy dp(net, ParallelMode::DataParallel, 8, 512);
    const Layer &conv = net.layer(findLayer(net, "conv1"));
    EXPECT_DOUBLE_EQ(
        dp.offloadBytesPerDevice(conv),
        static_cast<double>(conv.outBytesPerSample()) * 64.0);
}

// ------------------------------------------------------ model parallel

TEST(ModelParallel, FullBatchShardedModel)
{
    const Network net = builders::buildAlexNet();
    const ParallelStrategy mp(net, ParallelMode::ModelParallel, 8, 512);
    EXPECT_EQ(mp.perDeviceBatch(), 512);
    const Layer &conv = net.layer(findLayer(net, "conv1"));
    EXPECT_EQ(mp.scaling(conv).batch, 512);
    EXPECT_EQ(mp.scaling(conv).modelShards, 8);
    // Cheap layers replicate.
    const Layer &pool = net.layer(findLayer(net, "pool1"));
    EXPECT_EQ(mp.scaling(pool).modelShards, 1);
    EXPECT_EQ(mp.weightBytesPerDevice(net),
              net.totalWeightBytes() / 8);
}

TEST(ModelParallel, AlexNetGatherBoundariesMatchTowerScheme)
{
    const Network net = builders::buildAlexNet();
    const ParallelStrategy mp(net, ParallelMode::ModelParallel, 8, 512);
    // Stage-ending convs and FC layers gather; the conv3->conv4->conv5
    // tower chain stays private (Krizhevsky restricted connectivity).
    EXPECT_TRUE(mp.isGatherBoundary(findLayer(net, "conv1")));
    EXPECT_TRUE(mp.isGatherBoundary(findLayer(net, "conv2")));
    EXPECT_FALSE(mp.isGatherBoundary(findLayer(net, "conv3")));
    EXPECT_FALSE(mp.isGatherBoundary(findLayer(net, "conv4")));
    EXPECT_TRUE(mp.isGatherBoundary(findLayer(net, "conv5")));
    EXPECT_TRUE(mp.isGatherBoundary(findLayer(net, "fc6")));
    EXPECT_TRUE(mp.isGatherBoundary(findLayer(net, "fc7")));
    EXPECT_TRUE(mp.isGatherBoundary(findLayer(net, "fc8")));
}

TEST(ModelParallel, VggGathersAtStageEnds)
{
    const Network net = builders::buildVggE();
    const ParallelStrategy mp(net, ParallelMode::ModelParallel, 8, 512);
    EXPECT_FALSE(mp.isGatherBoundary(findLayer(net, "conv3_1")));
    EXPECT_FALSE(mp.isGatherBoundary(findLayer(net, "conv3_3")));
    EXPECT_TRUE(mp.isGatherBoundary(findLayer(net, "conv3_4")));
    EXPECT_TRUE(mp.isGatherBoundary(findLayer(net, "conv5_4")));
}

TEST(ModelParallel, EveryRecurrentCellIsABoundary)
{
    const Network net = builders::buildRnnLstm1(6, 64);
    const ParallelStrategy mp(net, ParallelMode::ModelParallel, 8, 512);
    for (LayerId id = 0; id < static_cast<LayerId>(net.size()); ++id) {
        if (!net.layer(id).isRecurrent())
            continue;
        EXPECT_TRUE(mp.isGatherBoundary(id));
        const auto fwd = mp.forwardSync(id);
        ASSERT_TRUE(fwd.has_value());
        EXPECT_EQ(fwd->kind, CollectiveKind::AllGather);
        EXPECT_TRUE(fwd->blocking);
        const auto bwd = mp.backwardSync(id);
        ASSERT_TRUE(bwd.has_value());
        EXPECT_EQ(bwd->kind, CollectiveKind::ReduceScatter);
    }
}

TEST(ModelParallel, SyncBytesCoverFullBatchOutput)
{
    const Network net = builders::buildAlexNet();
    const ParallelStrategy mp(net, ParallelMode::ModelParallel, 8, 512);
    const LayerId conv1 = findLayer(net, "conv1");
    const auto sync = mp.forwardSync(conv1);
    ASSERT_TRUE(sync.has_value());
    EXPECT_DOUBLE_EQ(sync->bytes,
                     static_cast<double>(
                         net.layer(conv1).outBytesPerSample())
                         * 512.0);
}

TEST(ModelParallel, OffloadStashesOnlyTheShard)
{
    const Network net = builders::buildAlexNet();
    const ParallelStrategy mp(net, ParallelMode::ModelParallel, 8, 512);
    const Layer &conv = net.layer(findLayer(net, "conv1"));
    EXPECT_DOUBLE_EQ(
        mp.offloadBytesPerDevice(conv),
        static_cast<double>(conv.outBytesPerSample()) * 512.0 / 8.0);
}

TEST(ModelParallel, MoreFrequentSyncThanDataParallel)
{
    // Section II-C's core claim, in counted form.
    const Network net = builders::buildRnnGru(20, 128);
    const ParallelStrategy dp(net, ParallelMode::DataParallel, 8, 512);
    const ParallelStrategy mp(net, ParallelMode::ModelParallel, 8, 512);
    int dp_syncs = 0, mp_syncs = 0;
    for (LayerId id = 0; id < static_cast<LayerId>(net.size()); ++id) {
        dp_syncs += dp.forwardSync(id).has_value()
            + dp.backwardSync(id).has_value();
        mp_syncs += mp.forwardSync(id).has_value()
            + mp.backwardSync(id).has_value();
    }
    EXPECT_GT(mp_syncs, 4 * dp_syncs);
}

// ------------------------------------------------------------- guards

TEST(Strategy, ModeNames)
{
    EXPECT_STREQ(kParallelModes.name(ParallelMode::DataParallel),
                 "data-parallel");
    EXPECT_STREQ(kParallelModes.name(ParallelMode::ModelParallel),
                 "model-parallel");
}

TEST(Strategy, RejectsDegenerateConfigs)
{
    LogConfig::throwOnError = true;
    const Network net = builders::buildAlexNet();
    EXPECT_THROW(
        ParallelStrategy(net, ParallelMode::DataParallel, 0, 512),
        FatalError);
    EXPECT_THROW(
        ParallelStrategy(net, ParallelMode::DataParallel, 8, 4),
        FatalError);
    LogConfig::throwOnError = false;
}

} // anonymous namespace
} // namespace mcdla
