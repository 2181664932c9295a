/**
 * @file
 * The memory capacity wall (Sections II-B and V-E).
 *
 * Builds the workload class the paper's user-productivity section
 * motivates: end-to-end video understanding, where every input frame
 * passes through a CNN encoder whose features feed an unrolled LSTM.
 * Training stashes the CNN activations of *every frame*, so the
 * footprint scales with the video length — precisely the O(N) memory
 * growth of Section II-B.
 *
 * The example shows: (1) keeping everything resident overflows a 16 GiB
 * device (the wall), (2) host-backed virtualization makes it trainable
 * but PCIe-bound, and (3) MC-DLA trains it at device-side speed while
 * exposing a tens-of-TB pool.
 */

#include <iostream>

#include "core/mcdla.hh"

using namespace mcdla;

namespace
{

/**
 * Video captioner sketch: per-frame conv encoder (112x112 inputs)
 * feeding an LSTM over @p frames timesteps.
 */
Network
buildVideoCaptioner(std::int64_t frames, std::int64_t hidden = 1024)
{
    Network net("VideoCaptioner");
    net.setTimesteps(frames);

    const auto frame_shape = TensorShape::chw(3, 112, 112);
    LayerId video = net.addLayer(
        Layer::input("video", TensorShape{frames, 3, 112, 112}));

    LayerId h = invalidLayerId;
    // Frame-0 layers own the weights shared across frames.
    std::map<std::string, LayerId> owners;
    auto tie_or_own = [&](Layer layer, const std::string &role) {
        auto it = owners.find(role);
        if (it != owners.end())
            layer.markWeightsTied(it->second);
        return layer;
    };
    for (std::int64_t t = 0; t < frames; ++t) {
        const std::string p = "f" + std::to_string(t);
        const bool first = t == 0;
        LayerId x = net.addAfter(
            tie_or_own(Layer::conv2d(p + "/conv1", frame_shape, 64, 3,
                                     1, 1),
                       "conv1"),
            video);
        if (first)
            owners["conv1"] = x;
        TensorShape s = net.layer(x).outShape();
        x = net.addAfter(Layer::pool(p + "/pool1", s, 2, 2), x);
        s = net.layer(x).outShape();
        x = net.addAfter(
            tie_or_own(Layer::conv2d(p + "/conv2", s, 128, 3, 1, 1),
                       "conv2"),
            x);
        if (first)
            owners["conv2"] = x;
        s = net.layer(x).outShape();
        x = net.addAfter(Layer::globalPool(p + "/gap", s), x);
        x = net.addAfter(
            tie_or_own(Layer::fullyConnected(p + "/proj", 128, hidden),
                       "proj"),
            x);
        if (first)
            owners["proj"] = x;

        // Temporal model.
        Layer cell = Layer::lstmCell("t" + std::to_string(t), hidden);
        if (!first)
            cell.markWeightsTied(owners.at("cell"));
        std::vector<LayerId> inputs{x};
        if (h != invalidLayerId)
            inputs.push_back(h);
        h = net.addLayer(std::move(cell), std::move(inputs));
        if (first)
            owners["cell"] = h;
    }
    LayerId fc = net.addAfter(
        Layer::fullyConnected("caption", hidden, 10000), h);
    net.layer(fc).setCountsTowardDepth(false);
    net.addAfter(Layer::softmaxLoss("loss", 10000), fc);
    net.validate();
    return net;
}

} // anonymous namespace

int
main()
{
    LogConfig::verbose = false;
    constexpr std::int64_t frames = 128;
    constexpr std::int64_t batch = 256;
    const Network net = buildVideoCaptioner(frames);

    std::cout << "Workload: " << net.name() << ", " << frames
              << " frames/clip, batch " << batch << " over 8 devices\n";

    // The wall: what if nothing is offloaded?
    OffloadPolicy no_virt;
    no_virt.virtualizeMemory = false;
    const OffloadPlan resident_plan(net, no_virt);
    const double resident = static_cast<double>(
        resident_plan.residentBytesPerSample()) * (batch / 8.0);
    std::cout << "\nResident footprint without virtualization: "
              << formatBytes(resident) << " per device -> "
              << (resident > 16.0 * static_cast<double>(kGiB)
                      ? "exceeds a 16 GiB device: capacity wall"
                      : "fits")
              << '\n';

    const OffloadPlan virt_plan(net, OffloadPolicy{});
    std::cout << "Migration volume with vDNN-style virtualization: "
              << formatBytes(static_cast<double>(
                     virt_plan.offloadBytesPerSample())
                     * (batch / 8.0))
              << " per device per direction\n\n";

    TablePrinter table({"Design", "Exposed memory", "Iter(ms)",
                        "Speedup", "Host traffic(GB)"});
    Simulator sim;
    double dc = 0.0;
    for (SystemDesign design :
         {SystemDesign::DcDla, SystemDesign::HcDla,
          SystemDesign::McDlaB}) {
        // The captioner is built here, not registered, so hand the
        // network to the facade directly.
        Scenario sc;
        sc.design = design;
        sc.mode = ParallelMode::DataParallel;
        sc.globalBatch = batch;
        std::uint64_t exposed = 0;
        Simulator::Hooks hooks;
        hooks.postRun = [&](System &system, const IterationResult &) {
            exposed = system.totalExposedMemory();
        };
        const IterationResult r = sim.run(sc, net, hooks);
        if (design == SystemDesign::DcDla)
            dc = r.iterationSeconds();
        table.addRow({
            kSystemDesigns.name(design),
            formatBytes(static_cast<double>(exposed)),
            TablePrinter::num(r.iterationSeconds() * 1e3, 1),
            TablePrinter::num(dc / r.iterationSeconds(), 2),
            TablePrinter::num(r.hostBytes / 1e9, 1),
        });
    }
    table.print(std::cout);

    std::cout << "\nMC-DLA trains the memory-hungry algorithm at "
                 "device-side speed with zero host-interface traffic, "
                 "while expanding the pool to tens of TBs (Section "
                 "V-E).\n";
    return 0;
}
