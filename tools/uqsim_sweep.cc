/**
 * @file
 * uqsim_sweep: corpus emitter and batch scenario runner.
 *
 * Two modes over the scenario surface uqsim_run exposes one run at a
 * time:
 *
 *   uqsim_sweep --emit scenarios/
 *       Write the built-in corpus — every shipped (profile, seed,
 *       arrival-process) combination — as ordinary scenario JSON
 *       files. Emission is pure apps::scenarioToJson output, so
 *       regenerating the corpus is bit-identical on every platform
 *       (CI diffs a re-emission against the committed files).
 *
 *   uqsim_sweep --corpus scenarios/ [--match SUBSTR] [--qps 100,200]
 *               [--out results.json]
 *       Run every scenario file in the directory (sorted by name,
 *       optionally filtered), optionally fanning each one out over a
 *       comma-separated qps grid, and aggregate per-scenario
 *       tail-latency/goodput/digest results into one JSON document.
 *
 * Every run goes through apps::runScenario(), the same headless driver
 * sequence uqsim_run performs, so sweep digests match CLI digests.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/scenario.hh"
#include "core/json.hh"
#include "core/logging.hh"
#include "fault/fault.hh"

using namespace uqsim;

namespace {

struct CorpusEntry
{
    const char *profile;
    std::uint64_t seed;
    const char *arrival;
    double qps;
    unsigned servers;
};

/**
 * The committed corpus under scenarios/: three to five samples per
 * profile family, with at least one bursty arrival process each.
 * Poisson load points sit below each sample's saturation knee so the
 * corpus doubles as a quick regression sweep; the mmpp/flash entries
 * intentionally push their samples into transient overload — that is
 * what those arrival processes are for.
 */
constexpr CorpusEntry kCorpus[] = {
    {"single-tier", 1, "poisson", 200.0, 1},
    {"single-tier", 2, "poisson", 200.0, 1},
    {"single-tier", 1, "mmpp", 200.0, 1},
    {"social-network", 1, "poisson", 40.0, 12},
    {"social-network", 2, "poisson", 100.0, 10},
    {"social-network", 3, "poisson", 60.0, 12},
    {"social-network", 1, "mmpp", 30.0, 12},
    {"social-network", 1, "flash", 20.0, 12},
    {"media", 1, "poisson", 80.0, 10},
    {"media", 2, "poisson", 120.0, 10},
    {"media", 1, "diurnal", 50.0, 10},
    {"ecommerce", 1, "poisson", 80.0, 10},
    {"ecommerce", 2, "poisson", 120.0, 10},
    {"ecommerce", 1, "mmpp", 40.0, 10},
    {"banking", 1, "poisson", 150.0, 8},
    {"banking", 2, "poisson", 150.0, 8},
    {"banking", 1, "diurnal", 150.0, 8},
    {"swarm", 1, "poisson", 200.0, 6},
    {"swarm", 2, "poisson", 200.0, 6},
    {"swarm", 1, "flash", 120.0, 6},
};

std::string
corpusFileName(const CorpusEntry &e)
{
    return strCat(e.profile, "-s", e.seed, "-", e.arrival, ".json");
}

apps::Scenario
corpusScenario(const CorpusEntry &e)
{
    apps::Scenario s;
    s.genProfile = e.profile;
    s.genSeed = e.seed;
    s.arrival = e.arrival;
    s.qps = e.qps;
    s.servers = e.servers;
    s.durationSec = 4.0;
    s.warmupSec = 1.0;
    // Fit one whole diurnal "day" inside the measured window so the
    // long-run mean rate is observable in a 4-second run.
    if (s.arrival == std::string("diurnal"))
        s.arrivalPeriod = 4 * kTicksPerSec;
    return s;
}

struct Options
{
    std::string emitDir;
    std::string corpusDir;
    std::string match;
    std::string outPath;
    std::vector<double> qpsGrid;
};

void
usage()
{
    std::cout <<
        "uqsim_sweep - emit the scenario corpus or batch-run one\n\n"
        "  --emit DIR       write the built-in corpus into DIR, exit\n"
        "  --corpus DIR     run every scenario JSON in DIR (sorted)\n"
        "  --match SUBSTR   only run files whose name contains SUBSTR\n"
        "  --qps LIST       comma-separated qps grid: run each scenario\n"
        "                   once per value, overriding its own qps\n"
        "  --out FILE       write the results JSON (default: stdout)\n"
        "\nOptions taking a value also accept --opt=value.\n";
}

bool
parse(int argc, char **argv, Options &opt)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const std::size_t eq = a.find('=');
        if (a.rfind("--", 0) == 0 && eq != std::string::npos) {
            args.push_back(a.substr(0, eq));
            args.push_back(a.substr(eq + 1));
        } else {
            args.push_back(a);
        }
    }
    auto need = [&](std::size_t &i) -> const std::string & {
        if (i + 1 >= args.size())
            fatal(strCat("missing value for ", args[i]));
        return args[++i];
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--emit")
            opt.emitDir = need(i);
        else if (a == "--corpus")
            opt.corpusDir = need(i);
        else if (a == "--match")
            opt.match = need(i);
        else if (a == "--out")
            opt.outPath = need(i);
        else if (a == "--qps") {
            const std::string &flag = args[i], &v = need(i);
            std::stringstream ss(v);
            std::string part;
            while (std::getline(ss, part, ',')) {
                double q = 0.0;
                if (!fault::parseNumber(part, q) || !(q > 0.0))
                    fatal(strCat("bad qps '", part, "' for ", flag));
                opt.qpsGrid.push_back(q);
            }
            if (opt.qpsGrid.empty())
                fatal("--qps needs at least one value");
        } else if (a == "--help" || a == "-h") {
            usage();
            return false;
        } else {
            fatal(strCat("unknown option '", a, "' (try --help)"));
        }
    }
    if (opt.emitDir.empty() == opt.corpusDir.empty())
        fatal("exactly one of --emit or --corpus is required");
    return true;
}

int
emitCorpus(const std::string &dir)
{
    std::filesystem::create_directories(dir);
    for (const CorpusEntry &e : kCorpus) {
        const std::string name = corpusFileName(e);
        const std::filesystem::path path =
            std::filesystem::path(dir) / name;
        std::ofstream out(path);
        if (!out)
            fatal(strCat("cannot write '", path.string(), "'"));
        out << apps::scenarioToJson(corpusScenario(e));
        std::cout << name << "\n";
    }
    std::cout << std::size(kCorpus) << " scenarios emitted to " << dir
              << "\n";
    return 0;
}

std::string
digestHex(std::uint64_t digest)
{
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0') << digest;
    return out.str();
}

int
runCorpus(const Options &opt)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(opt.corpusDir)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".json")
            continue;
        const std::string name = entry.path().filename().string();
        if (!opt.match.empty() &&
            name.find(opt.match) == std::string::npos)
            continue;
        files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    if (files.empty())
        fatal(strCat("no scenario files under '", opt.corpusDir,
                     opt.match.empty()
                         ? std::string("'")
                         : strCat("' matching '", opt.match, "'")));

    json::Writer w;
    w.beginObject();
    w.beginArray("scenarios");
    for (const std::filesystem::path &path : files) {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        apps::Scenario scn;
        std::string error;
        if (!apps::parseScenarioJson(text.str(), scn, error))
            fatal(strCat("bad scenario '", path.string(), "': ",
                         error));
        std::vector<double> grid = opt.qpsGrid;
        if (grid.empty())
            grid.push_back(scn.qps);
        for (const double qps : grid) {
            scn.qps = qps;
            std::cerr << path.filename().string() << " @ " << qps
                      << " qps...\n";
            const apps::ScenarioRunResult r = apps::runScenario(scn);
            w.beginObject();
            w.field("file", path.filename().string());
            w.field("qps", qps);
            w.field("completed", r.load.completed);
            w.field("dropped", r.load.dropped);
            w.field("failed", r.failed);
            w.field("p50_ms", ticksToMs(r.load.p50));
            w.field("p95_ms", ticksToMs(r.load.p95));
            w.field("p99_ms", ticksToMs(r.load.p99));
            w.field("mean_ms", r.load.meanMs);
            w.field("achieved_qps", r.load.achievedQps);
            w.field("goodput_qps", r.load.goodputQps);
            w.field("utilization", r.load.meanUtilization);
            w.field("events", r.events);
            w.field("digest", digestHex(r.digest));
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    const std::string doc = w.str() + "\n";
    if (opt.outPath.empty()) {
        std::cout << doc;
    } else {
        std::ofstream out(opt.outPath);
        if (!out)
            fatal(strCat("cannot write '", opt.outPath, "'"));
        out << doc;
        // Echo the document so PASS_REGULAR_EXPRESSION-style smoke
        // checks (and humans) see the aggregate without a second read.
        std::cout << doc;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt))
        return 0;
    if (!opt.emitDir.empty())
        return emitCorpus(opt.emitDir);
    return runCorpus(opt);
}
