/**
 * @file
 * Fig 16: speedup from offloading TCP processing to a bump-in-the-wire
 * FPGA, per end-to-end service: network-processing time alone and
 * end-to-end (tail) latency.
 */

#include "bench_common.hh"
#include "workload/generators.hh"

using namespace uqsim;
using namespace uqsim::bench;

namespace {

struct Run
{
    double tcpPerReqUs = 0.0; ///< mean kernel-TCP (or FPGA-path) time
    Tick p50 = 0;
    Tick p99 = 0;
};

Run
runWith(apps::AppId id, bool fpga, double qps)
{
    apps::WorldConfig c;
    c.workerServers = 5;
    if (fpga)
        c.appConfig.fpga = net::FpgaOffloadModel::on();
    apps::World w(c);
    apps::buildApp(w, id);

    // Measure the per-request TCP-processing time directly from the
    // request accounting (the component the offload replaces).
    double tcp_total = 0.0;
    std::uint64_t done = 0;
    workload::QueryMix mix = workload::QueryMix::fromApp(*w.app);
    workload::UserPopulation users =
        workload::UserPopulation::uniform(1000);
    workload::OpenLoopGenerator gen(*w.app, mix, users, 7);
    gen.setQps(qps);
    gen.start();
    w.ctx.runFor(simTime(1.0));
    w.app->statReset();
    // Hook completions through manual injection of extra probes.
    Rng rng(3);
    for (int i = 0; i < 400; ++i) {
        w.ctx.runFor(simTime(2.0) / 400);
        w.app->inject(mix.sample(rng), users.sample(rng),
                      [&](const service::Request &req) {
                          if (!req.dropped) {
                              tcp_total += static_cast<double>(
                                  req.tcpProcTime);
                              ++done;
                          }
                      });
    }
    w.ctx.runFor(simTime(1.0));
    gen.stop();
    Run out;
    out.tcpPerReqUs = done ? tcp_total / done / 1000.0 : 0.0;
    const QuantileSketch e2e = w.app->endToEndLatency();
    out.p50 = e2e.p50();
    out.p99 = e2e.p99();
    return out;
}

} // namespace

int
main()
{
    header("Fig 16: FPGA RPC/TCP offload",
           "network processing improves 10-68x over native TCP; "
           "end-to-end tail latency improves 43% up to 2.2x");

    TextTable table({"Service", "TCP proc native(us)", "TCP proc FPGA(us)",
                     "NetProc speedup", "p99 native", "p99 FPGA",
                     "E2E speedup"});
    struct Pt
    {
        apps::AppId id;
        double qps;
    };
    for (const Pt &pt : {Pt{apps::AppId::SocialNetwork, 2000},
                         Pt{apps::AppId::MediaService, 1000},
                         Pt{apps::AppId::Ecommerce, 1000},
                         Pt{apps::AppId::Banking, 1000},
                         Pt{apps::AppId::SwarmCloud, 8},
                         Pt{apps::AppId::SwarmEdge, 3}}) {
        const Run native = runWith(pt.id, false, pt.qps);
        const Run fpga = runWith(pt.id, true, pt.qps);
        table.add(apps::appName(pt.id), fmtDouble(native.tcpPerReqUs, 0),
                  fmtDouble(fpga.tcpPerReqUs, 0),
                  fmtDouble(native.tcpPerReqUs /
                                std::max(0.1, fpga.tcpPerReqUs),
                            1) +
                      "x",
                  fmtMs(native.p99), fmtMs(fpga.p99),
                  fmtDouble(static_cast<double>(native.p99) /
                                std::max<double>(1.0,
                                                 static_cast<double>(
                                                     fpga.p99)),
                            2) +
                      "x");
    }
    table.print(std::cout);
    std::cout << "\nNote: Thrift marshalling stays on the host, so the "
                 "network-processing speedup here covers the kernel TCP "
                 "share the FPGA absorbs.\n";
    return 0;
}
