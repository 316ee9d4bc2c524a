/**
 * @file
 * The repository benchmark: functional GraphSAGE training, modeled
 * (simulated-time) training over four storage backends, and cached
 * online serving, all on the large-scale Reddit workload and all
 * through the public API.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <path>] [--git-commit <sha>]
 *
 * Every run executes all three stages, so every end-to-end metric is
 * reported on every run; the named workload's stage is measured for
 * --seconds and the other two for half as long (untraced.cc). With
 * --trace 1 each stage instead runs once at a fixed size with spans
 * around the calls into each module, and only per-layer metrics are
 * reported (traced.cc). The last stdout line is the JSON result; see
 * README.md for the metric -> layer -> workload map.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hh"
#include "provenance.hh"

namespace perfbench
{
namespace
{

const char *const kWorkloads[] = {"train-functional", "sim-train",
                                  "serve-cached"};

// ---------------------------------------------------------- provenance

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
    if (max_leaf >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return 0;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
provenanceJson(const std::string &workload, std::uint64_t seed,
               const std::string &git_commit)
{
    std::ostringstream os;
    os << "{\"cpu\": \"" << jsonEscape(cpuModel())
       << "\", \"nproc\": " << availableCpus() << ", \"compiler\": \""
       << jsonEscape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
       << jsonEscape(PERFBENCH_BUILD_TYPE) << "\", \"cxx_flags\": \""
       << jsonEscape(PERFBENCH_CXX_FLAGS) << "\", \"march_native\": "
       << (PERFBENCH_MARCH_NATIVE ? "true" : "false")
       << ", \"git_commit\": \"" << jsonEscape(git_commit)
       << "\", \"workload\": \"" << workload << "\", \"seed\": " << seed
       << "}";
    return os.str();
}

// ---------------------------------------------------------------- main

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string trace_out;
    std::string git_commit = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{train-functional|sim-train|serve-cached} --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>] "
                 "[--git-commit <sha>]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload")
            o.workload = value;
        else if (key == "--seed")
            o.seed = std::strtoull(value.c_str(), &end, 10);
        else if (key == "--seconds")
            o.seconds = std::strtod(value.c_str(), &end);
        else if (key == "--trace")
            o.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        else if (key == "--trace-out")
            o.trace_out = value;
        else if (key == "--git-commit")
            o.git_commit = value;
        else
            usage(("unknown argument " + key).c_str());
        if (end && (*end || end == value.c_str()))
            usage(("bad value for " + key).c_str());
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  o.workload) == std::end(kWorkloads))
        usage("unknown or missing --workload");
    if (!(o.seconds > 0 && o.seconds <= 600))
        usage("--seconds must be within (0, 600]");
    if (o.trace != 0 && o.trace != 1)
        usage("--trace must be 0 or 1");
    return o;
}

int
run(const Options &opt)
{
    std::string provenance =
        provenanceJson(opt.workload, opt.seed, opt.git_commit);
    std::printf("provenance %s\n", provenance.c_str());
    Report report;
    if (opt.trace)
        runTraced(opt.seed, opt.trace_out, provenance, report);
    else
        runUntraced(opt.workload, opt.seed, opt.seconds, report);
    report.print();
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
