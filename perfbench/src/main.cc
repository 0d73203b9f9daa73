/**
 * @file
 * The repository benchmark program (see perfbench/README.md):
 *
 *   hida_perfbench --root <checkout> --workload <lenet_sweep|compile_zoo|
 *                  service_mix> --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs one workload for the measurement budget and prints, as the last
 * stdout line, {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics (from spans
 * recorded around the calls into each layer) with --trace 1. A traced run
 * also writes its spans to .bench_build/run/trace_<workload>.json.
 *
 * `--print-references` prints the pinned regression digests instead
 * (references.cc).
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

extern char** environ;

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "hida_perfbench: %s\nusage: hida_perfbench --root <dir> "
                 "--workload <lenet_sweep|compile_zoo|service_mix> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseUint(const std::string& flag, const char* text)
{
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage("bad value for " + flag + ": " + text);
    return v;
}

/** Every knob the benchmark measures is pinned in code; an inherited
 * HIDA_* setting (threads, strategy, fault injection, store path...)
 * would silently change what is measured, so refuse to run. */
void
refuseHidaEnvironment()
{
    for (char** env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "HIDA_", 5) == 0) {
            std::fprintf(stderr,
                         "hida_perfbench: refusing to run with %s set; the "
                         "benchmark pins every HIDA_* setting itself\n",
                         *env);
            std::exit(2);
        }
    }
}

void
printResult(const Report& report)
{
    for (const std::string& note : report.notes)
        std::printf("# %s\n", note.c_str());
    for (const std::string& problem : report.problems)
        std::printf("# CHECK FAILED: %s\n", problem.c_str());
    const bool correct = report.problems.empty() && report.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", report.attempted, report.failed);
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const auto& [name, value] = report.metrics[i];
        const double v = std::isfinite(value.first) ? value.first : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", name.c_str(), v,
                    value.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
{
    refuseHidaEnvironment();
    RunConfig config;
    bool have_seed = false, have_seconds = false, have_trace = false;
    bool print_references = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--print-references") {
            print_references = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char* value = argv[++i];
        if (flag == "--root") {
            config.root = value;
        } else if (flag == "--workload") {
            config.workload = value;
        } else if (flag == "--seed") {
            config.seed = parseUint(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            config.seconds = static_cast<double>(parseUint(flag, value));
            have_seconds = true;
        } else if (flag == "--trace") {
            const uint64_t trace = parseUint(flag, value);
            if (trace > 1)
                usage("--trace takes 0 or 1");
            config.trace = trace == 1;
            have_trace = true;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (config.root.empty())
        usage("--root is required");

    if (print_references) {
        std::printf("// kLenetSweepDigests\n");
        printLenetReferences();
        std::printf("// kZooDigests\n");
        printZooReferences(config);
        return 0;
    }
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    if (config.seconds < 1 || config.seconds > 120)
        usage("--seconds must be within 1..120");

    config.scratch = config.root + "/.bench_build/run";
    std::error_code ec;
    std::filesystem::create_directories(config.scratch, ec);
    if (ec)
        usage("cannot create " + config.scratch);

    Report report;
    if (config.workload == "lenet_sweep")
        runLenetSweep(config, report);
    else if (config.workload == "compile_zoo")
        runCompileZoo(config, report);
    else if (config.workload == "service_mix")
        runServiceMix(config, report);
    else
        usage("unknown workload '" + config.workload + "'");

    if (config.trace) {
        const std::string path =
            config.scratch + "/trace_" + config.workload + ".json";
        if (!Tracer::get().write(path))
            report.problem("cannot write " + path);
        else
            report.notes.push_back("spans written to " + path);
    }
    printResult(report);
    return 0;
}
