// perfbench: the repository benchmark program.
//
//   perfbench --workload <live-triangles|minplus-general|ingest-serve>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>] [--trace-out <file.json>]
//
// Generates every input from the seed with the graph:: generators, drives the
// library through its public API, checks each round's result against an
// independent reference, and prints one line
//   PERFBENCH_RESULT {"correct": ..., "e2e": {...}, "layer": {...}, ...}
// that perfbench/run.py turns into the benchmark's result record. Progress
// goes to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

int main(int argc, char** argv) {
    perfbench::Options opts;
    for (int k = 1; k + 1 < argc; k += 2) {
        const std::string key = argv[k];
        const char* val = argv[k + 1];
        if (key == "--workload") opts.workload = val;
        else if (key == "--seed") opts.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds") opts.seconds = std::strtod(val, nullptr);
        else if (key == "--trace") opts.trace = std::strcmp(val, "0") != 0;
        else if (key == "--scratch") opts.scratch = val;
        else if (key == "--trace-out") opts.trace_out = val;
        else {
            std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
            return 2;
        }
    }
    if (!(opts.seconds > 0)) {
        std::fprintf(stderr, "perfbench: --seconds must be positive\n");
        return 2;
    }

    perfbench::Runner run(opts);
    try {
        if (opts.workload == "live-triangles") perfbench::live_triangles(run);
        else if (opts.workload == "minplus-general") perfbench::minplus_general(run);
        else if (opts.workload == "ingest-serve") perfbench::ingest_serve(run);
        else {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                         opts.workload.c_str());
            return 2;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    std::printf("PERFBENCH_RESULT %s\n", run.summary_json().c_str());
    return 0;
}
