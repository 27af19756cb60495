#include "apps/profiles.hh"

namespace uqsim::apps {

namespace {

ServiceProfile
base(const std::string &name, double footprint_kb, double branch,
     double mem, double kernel, double lib, double io,
     const std::string &lang)
{
    ServiceProfile p;
    p.name = name;
    p.codeFootprintKb = footprint_kb;
    p.branchEntropy = branch;
    p.memIntensity = mem;
    p.kernelShare = kernel;
    p.libShare = lib;
    p.ioBoundFraction = io;
    p.language = lang;
    return p;
}

} // namespace

ServiceProfile
nginxProfile(const std::string &name)
{
    // Fig 11: nginx L1i MPKI ~30 => footprint ~700KB over a 32KB L1i.
    return base(name, 700.0, 0.22, 0.35, 0.55, 0.18, 0.05, "C");
}

ServiceProfile
phpFpmProfile(const std::string &name)
{
    return base(name, 900.0, 0.30, 0.40, 0.40, 0.30, 0.02, "PHP");
}

ServiceProfile
memcachedProfile(const std::string &name)
{
    // Small codebase, almost all time in kernel TCP handling.
    return base(name, 250.0, 0.15, 0.30, 0.70, 0.10, 0.02, "C");
}

ServiceProfile
mongodbProfile(const std::string &name)
{
    // I/O-bound (Fig 12: tolerates minimum frequency at max load).
    return base(name, 950.0, 0.25, 0.45, 0.45, 0.20, 0.80, "C++");
}

ServiceProfile
mysqlProfile(const std::string &name)
{
    return base(name, 1100.0, 0.28, 0.45, 0.40, 0.22, 0.65, "C++");
}

ServiceProfile
nfsProfile(const std::string &name)
{
    return base(name, 300.0, 0.12, 0.30, 0.60, 0.10, 0.90, "C");
}

ServiceProfile
cppMicroProfile(const std::string &name)
{
    // Tiny single-concern Thrift service: low MPKI, kernel-heavy
    // because most of its work is RPC handling.
    return base(name, 120.0, 0.18, 0.32, 0.42, 0.28, 0.02, "C++");
}

ServiceProfile
javaMicroProfile(const std::string &name)
{
    return base(name, 300.0, 0.22, 0.38, 0.30, 0.34, 0.02, "Java");
}

ServiceProfile
goMicroProfile(const std::string &name)
{
    return base(name, 220.0, 0.20, 0.34, 0.32, 0.26, 0.02, "Go");
}

ServiceProfile
nodejsMicroProfile(const std::string &name)
{
    // Event-driven JS: large library share (V8, libuv).
    return base(name, 380.0, 0.26, 0.40, 0.28, 0.45, 0.02, "node.js");
}

ServiceProfile
xapianProfile(const std::string &name)
{
    // Optimized for memory locality, small codebase: high IPC, high
    // retiring (Fig 10 Search outlier).
    return base(name, 160.0, 0.10, 0.15, 0.12, 0.20, 0.02, "C++");
}

ServiceProfile
recommenderProfile(const std::string &name)
{
    // ML inference: streams weights through the cache hierarchy.
    return base(name, 200.0, 0.08, 1.00, 0.10, 0.30, 0.00, "Python");
}

ServiceProfile
monolithProfile(const std::string &name)
{
    // All application functionality in one Java binary: multi-MiB
    // instruction footprint (Fig 11), low kernel share (one network
    // hop per request), slightly higher retiring than microservices.
    return base(name, 4200.0, 0.28, 0.40, 0.15, 0.30, 0.02, "Java");
}

ServiceProfile
queueProfile(const std::string &name)
{
    return base(name, 350.0, 0.18, 0.35, 0.45, 0.25, 0.10, "Erlang");
}

ServiceProfile
streamingProfile(const std::string &name)
{
    return base(name, 500.0, 0.15, 0.30, 0.60, 0.15, 0.50, "C");
}

} // namespace uqsim::apps
