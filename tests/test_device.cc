/**
 * @file
 * Unit tests for the device model: Table II defaults, the PE-array
 * timing model (roofline, quantization, scaling), and the Figure 2
 * generation catalog.
 */

#include <gtest/gtest.h>

#include "device/compute_model.hh"
#include "device/device_config.hh"
#include "device/device_node.hh"
#include "dnn/layer.hh"
#include "sim/logging.hh"

namespace mcdla
{
namespace
{

class ThrowingErrors : public ::testing::Test
{
  protected:
    void SetUp() override { LogConfig::throwOnError = true; }
    void TearDown() override { LogConfig::throwOnError = false; }
};

// ------------------------------------------------------- configuration

TEST(DeviceConfig, TableIIDefaults)
{
    const DeviceConfig cfg;
    EXPECT_EQ(cfg.numPes, 1024);
    EXPECT_EQ(cfg.macsPerPe, 125);
    EXPECT_DOUBLE_EQ(cfg.freqGhz, 1.0);
    EXPECT_EQ(cfg.sramPerPe, 32u * kKiB);
    EXPECT_DOUBLE_EQ(cfg.memBandwidth, 900.0 * kGB);
    EXPECT_EQ(cfg.memLatencyCycles, 100);
    EXPECT_EQ(cfg.numLinks, 6);
    EXPECT_DOUBLE_EQ(cfg.linkBandwidth, 25.0 * kGB);
}

TEST(DeviceConfig, PeakThroughput)
{
    const DeviceConfig cfg;
    // 1024 PEs x 125 MACs @ 1 GHz = 128 TMAC/s.
    EXPECT_DOUBLE_EQ(cfg.peakMacsPerSec(), 128e12);
}

TEST(DeviceConfig, MemLatencyInTicks)
{
    const DeviceConfig cfg;
    // 100 cycles at 1 GHz = 100 ns.
    EXPECT_EQ(cfg.memLatency(), 100 * ticksPerNs);
}

// ----------------------------------------------------- generation catalog

TEST(Generations, CatalogHasFiveGenerationsOldestFirst)
{
    const auto catalog = deviceGenerationCatalog();
    ASSERT_EQ(catalog.size(), 5u);
    EXPECT_EQ(catalog[0].name, "Kepler");
    EXPECT_EQ(catalog[4].name, "TPUv2");
    // Peak compute grows monotonically through Volta.
    for (std::size_t i = 1; i < 4; ++i)
        EXPECT_GT(catalog[i].config.peakMacsPerSec(),
                  catalog[i - 1].config.peakMacsPerSec());
}

TEST(Generations, VoltaMatchesTableII)
{
    const DeviceConfig &volta = deviceGeneration("Volta");
    EXPECT_EQ(volta.macsPerPe, 125);
    EXPECT_DOUBLE_EQ(volta.memBandwidth, 900.0 * kGB);
}

TEST(Generations, ComputeGrowthOutpacesPcie)
{
    // The core Fig 2 premise: device throughput grew ~20-30x while PCIe
    // gen3 stayed flat.
    const DeviceConfig &kepler = deviceGeneration("Kepler");
    const DeviceConfig &volta = deviceGeneration("Volta");
    const double growth =
        volta.peakMacsPerSec() / kepler.peakMacsPerSec();
    EXPECT_GE(growth, 15.0);
    EXPECT_LE(growth, 40.0);
}

TEST_F(ThrowingErrors, UnknownGenerationIsFatal)
{
    EXPECT_THROW(deviceGeneration("Turing"), FatalError);
}

// -------------------------------------------------------- compute model

class ComputeModelTest : public ::testing::Test
{
  protected:
    DeviceConfig cfg;
    ComputeModel model{cfg};
    LayerScaling whole{64, 1};
};

TEST_F(ComputeModelTest, GemmUtilizationBounded)
{
    const GemmShape g{96, 363, 55 * 55};
    const double util = model.gemmUtilization(g, whole);
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
}

TEST_F(ComputeModelTest, GemmTimeScalesWithWork)
{
    const GemmShape small{64, 64, 16};
    const GemmShape big{64, 64, 16 * 64};
    EXPECT_GT(model.gemmComputeTime(big, whole),
              model.gemmComputeTime(small, whole));
}

TEST_F(ComputeModelTest, ModelShardsReduceComputeTime)
{
    const GemmShape g{4096, 4096, 1};
    const LayerScaling sharded{64, 8};
    EXPECT_LT(model.gemmComputeTime(g, sharded),
              model.gemmComputeTime(g, whole));
}

TEST_F(ComputeModelTest, ConvForwardBackwardRelation)
{
    const Layer conv = Layer::conv2d("c", TensorShape::chw(64, 56, 56),
                                     128, 3, 1, 1);
    const LayerTiming t = model.layerTiming(conv, whole);
    EXPECT_GT(t.forward, 0u);
    // Backward runs the dX and dW GEMMs: ~2x forward.
    EXPECT_GT(t.backward, t.forward);
    EXPECT_LT(t.backward, 3 * t.forward);
    EXPECT_GT(t.weightUpdate, 0u);
}

TEST_F(ComputeModelTest, SmallBatchGemvIsMemoryBound)
{
    // An RNN-style cell with batch 64: ~64 MACs per weight byte/4, well
    // under the 900 GB/s roofline ridge.
    const Layer cell = Layer::rnnCell("t", 1760);
    const LayerTiming t = model.layerTiming(cell, LayerScaling{64, 1});
    EXPECT_TRUE(t.memoryBound);
}

TEST_F(ComputeModelTest, LargeConvIsComputeBound)
{
    const Layer conv = Layer::conv2d("c", TensorShape::chw(256, 28, 28),
                                     512, 3, 1, 1);
    const LayerTiming t = model.layerTiming(conv, LayerScaling{256, 1});
    EXPECT_FALSE(t.memoryBound);
}

TEST_F(ComputeModelTest, InputLayerIsFree)
{
    const Layer in = Layer::input("in", TensorShape::chw(3, 224, 224));
    const LayerTiming t = model.layerTiming(in, whole);
    EXPECT_EQ(t.forward, 0u);
    EXPECT_EQ(t.backward, 0u);
    EXPECT_EQ(t.weightUpdate, 0u);
}

TEST_F(ComputeModelTest, CheapLayerCostsLessThanConv)
{
    const TensorShape s = TensorShape::chw(64, 56, 56);
    const Layer conv = Layer::conv2d("c", s, 64, 3, 1, 1);
    const Layer act = Layer::activation("a", s);
    EXPECT_LT(model.layerTiming(act, whole).forward,
              model.layerTiming(conv, whole).forward);
}

TEST_F(ComputeModelTest, ForwardTimeGrowsWithBatch)
{
    const Layer conv = Layer::conv2d("c", TensorShape::chw(64, 56, 56),
                                     128, 3, 1, 1);
    const Tick b64 = model.layerTiming(conv, LayerScaling{64, 1}).forward;
    const Tick b256 =
        model.layerTiming(conv, LayerScaling{256, 1}).forward;
    EXPECT_GT(b256, 3 * b64);
    EXPECT_LT(b256, 5 * b64);
}

TEST_F(ComputeModelTest, FasterDeviceIsFaster)
{
    const Layer conv = Layer::conv2d("c", TensorShape::chw(64, 56, 56),
                                     128, 3, 1, 1);
    const ComputeModel kepler(deviceGeneration("Kepler"));
    const ComputeModel volta(deviceGeneration("Volta"));
    EXPECT_GT(kepler.forwardTime(conv, whole),
              volta.forwardTime(conv, whole));
}

TEST_F(ComputeModelTest, WeightUpdateIsBandwidthBound)
{
    const Layer fc = Layer::fullyConnected("fc", 4096, 4096);
    const LayerTiming t = model.layerTiming(fc, whole);
    // 3x weight bytes at 900 GB/s plus launch overhead.
    const double expected_s =
        3.0 * static_cast<double>(fc.weightBytes()) / (900.0 * kGB);
    EXPECT_NEAR(ticksToSeconds(t.weightUpdate), expected_s + 2e-6,
                expected_s * 0.1 + 1e-6);
}

TEST_F(ComputeModelTest, UtilizationReflectsDataflowEfficiency)
{
    // A huge well-shaped GEMM should achieve close to the configured
    // dataflow efficiency, never more.
    const GemmShape g{1024, 1250, 1024};
    const double util = model.gemmUtilization(g, LayerScaling{1, 1});
    EXPECT_LE(util, cfg.dataflowEfficiency + 1e-9);
    EXPECT_GT(util, cfg.dataflowEfficiency * 0.8);
}

TEST_F(ComputeModelTest, InvalidScalingIsFatal)
{
    LogConfig::throwOnError = true;
    const Layer fc = Layer::fullyConnected("fc", 16, 16);
    EXPECT_THROW(model.layerTiming(fc, LayerScaling{0, 1}), FatalError);
    EXPECT_THROW(model.layerTiming(fc, LayerScaling{1, 0}), FatalError);
    LogConfig::throwOnError = false;
}

// ---------------------------------------------------------- device node

TEST(DeviceNode, TracksBusyStats)
{
    EventQueue eq;
    DeviceNode dev(eq, "dev0", DeviceConfig{});
    dev.occupyCompute(100);
    dev.occupyCompute(50);
    EXPECT_EQ(dev.computeBusyTicks(), 150u);
    EXPECT_EQ(dev.opsExecuted(), 2u);
    dev.resetStats();
    EXPECT_EQ(dev.computeBusyTicks(), 0u);
    EXPECT_EQ(dev.opsExecuted(), 0u);
}

} // anonymous namespace
} // namespace mcdla
