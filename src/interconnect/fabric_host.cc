/**
 * @file
 * Host-attached fabric builders: DC-DLA (Fig 5) and HC-DLA.
 *
 * Both are expressed as Topology generators: every channel is created
 * through the fabric's graph, so the Router and the collective
 * algorithms see the same wiring the simulation runs on. Channel
 * names, parameters, and creation order are unchanged from the
 * original hand-built versions — the channel graph is byte-identical.
 * PCIe lanes and socket DRAM interfaces are recorded non-routable:
 * device-to-device routes never detour through the host.
 */

#include <string>

#include "interconnect/fabrics.hh"
#include "sim/logging.hh"

namespace mcdla
{

namespace
{

/** Socket index serving a device. */
int
socketOf(int device, int num_devices, int num_sockets)
{
    return device * num_sockets / num_devices;
}

/**
 * Create one DRAM channel per host socket with peak tracking enabled.
 * Each socket is a Host node; its DRAM interface is recorded as a
 * non-routable self-link resource.
 *
 * @param socket_bw Socket DRAM service rate. The paper's conservative
 *        "no host interference" assumption corresponds to passing the
 *        saturation rate of the attached device links, so the socket can
 *        never throttle below what the devices can pull.
 * @return Channel pointers, one per socket.
 */
std::vector<Channel *>
makeSockets(Fabric &fab, const FabricConfig &cfg, double socket_bw)
{
    Topology &topo = fab.topology();
    std::vector<Channel *> sockets;
    for (int s = 0; s < cfg.numSockets; ++s) {
        const int host = topo.hostNode(s);
        Channel &ch = topo.link(
            host, host, "socket" + std::to_string(s) + ".dram",
            socket_bw, cfg.socketLatency, /*routable=*/false);
        ch.enablePeakTracking(cfg.peakWindow);
        fab.registerSocketChannel(&ch);
        sockets.push_back(&ch);
    }
    return sockets;
}

/** Build the numRings parallel bidirectional device rings of DC-DLA. */
void
addDeviceRings(Fabric &fab, const FabricConfig &cfg)
{
    const int n = cfg.numDevices;
    if (n < 2)
        return;
    Topology &topo = fab.topology();
    for (int r = 0; r < cfg.numRings; ++r) {
        std::vector<RingLeg> legs;
        for (int i = 0; i < n; ++i) {
            const int j = (i + 1) % n;
            const std::string base = "r" + std::to_string(r) + ".d"
                + std::to_string(i) + "-d" + std::to_string(j);
            legs.push_back({{true, i},
                            {topo.duplex(topo.device(i), topo.device(j),
                                         base + ".fwd", base + ".bwd",
                                         cfg.linkBandwidth,
                                         cfg.linkLatency)}});
        }
        fab.addRingPair(legs);
    }
}

} // anonymous namespace

std::unique_ptr<Fabric>
buildDcdlaFabric(EventQueue &eq, const FabricConfig &cfg,
                 bool with_host_vmem)
{
    if (cfg.numDevices < 1)
        fatal("DC-DLA fabric requires at least one device");
    auto fab = std::make_unique<Fabric>(eq, "dcdla");
    Topology &topo = fab->topology();
    for (int d = 0; d < cfg.numDevices; ++d)
        topo.device(d);

    addDeviceRings(*fab, cfg);

    const int devices_per_socket =
        (cfg.numDevices + cfg.numSockets - 1) / cfg.numSockets;
    const double socket_bw = cfg.socketBandwidth > 0.0
        ? cfg.socketBandwidth
        : static_cast<double>(devices_per_socket) * cfg.pcieBandwidth();
    std::vector<Channel *> sockets = makeSockets(*fab, cfg, socket_bw);

    for (int d = 0; d < cfg.numDevices; ++d) {
        const int s = socketOf(d, cfg.numDevices, cfg.numSockets);
        const std::string pcie = "d" + std::to_string(d) + ".pcie";
        const DuplexLink lane = topo.duplex(
            topo.device(d), topo.hostNode(s), pcie + ".up",
            pcie + ".down", cfg.pcieBandwidth(), cfg.pcieLatency,
            /*routable=*/false);
        if (!with_host_vmem)
            continue;
        VmemPath path;
        path.addLane({lane}, sockets[static_cast<std::size_t>(s)]);
        fab->setVmemPaths(d, {std::move(path)});
    }
    return fab;
}

std::unique_ptr<Fabric>
buildHcdlaFabric(EventQueue &eq, const FabricConfig &cfg)
{
    if (cfg.numDevices < 2)
        fatal("HC-DLA fabric requires at least two devices");
    if (cfg.numDevices % 2 != 0)
        fatal("HC-DLA fabric requires an even device count");
    auto fab = std::make_unique<Fabric>(eq, "hcdla");
    const int n = cfg.numDevices;
    Topology &topo = fab->topology();
    for (int d = 0; d < n; ++d)
        topo.device(d);

    // Half the links (numRings of them) go to the host; the device side
    // keeps 12 links for n=8: double links on even ring edges, single on
    // odd edges.
    std::vector<RingLeg> a_legs;
    std::vector<RingLeg> b_legs;
    for (int i = 0; i < n; ++i) {
        const int j = (i + 1) % n;
        const std::string base = "ring.d" + std::to_string(i) + "-d"
            + std::to_string(j);
        auto edge = [&](const char *ring) {
            return topo.duplex(topo.device(i), topo.device(j),
                               base + ring + ".fwd", base + ring + ".bwd",
                               cfg.linkBandwidth, cfg.linkLatency);
        };
        const DuplexLink a = edge(".a");
        a_legs.push_back({{true, i}, {a}});
        // Odd edges have a single physical link; the second logical
        // ring multiplexes onto it (no extra graph edge).
        b_legs.push_back({{true, i}, {i % 2 == 0 ? edge(".b") : a}});
    }
    fab->addRingPair(a_legs);
    fab->addRingPair(b_legs);

    // Host attachment: numRings (=3) links per device to its socket.
    const int devices_per_socket =
        (n + cfg.numSockets - 1) / cfg.numSockets;
    const double socket_bw = cfg.socketBandwidth > 0.0
        ? cfg.socketBandwidth
        : static_cast<double>(devices_per_socket)
            * static_cast<double>(cfg.numRings) * cfg.linkBandwidth;
    std::vector<Channel *> sockets = makeSockets(*fab, cfg, socket_bw);

    for (int d = 0; d < n; ++d) {
        const int s = socketOf(d, n, cfg.numSockets);
        VmemPath path;
        for (int l = 0; l < cfg.numRings; ++l) {
            const std::string host =
                "d" + std::to_string(d) + ".host" + std::to_string(l);
            path.addLane({topo.duplex(topo.device(d), topo.hostNode(s),
                                      host + ".up", host + ".down",
                                      cfg.linkBandwidth, cfg.linkLatency,
                                      /*routable=*/false)},
                         sockets[static_cast<std::size_t>(s)]);
        }
        fab->setVmemPaths(d, {std::move(path)});
    }
    return fab;
}

} // namespace mcdla
