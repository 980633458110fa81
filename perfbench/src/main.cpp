// perfbench_gen: the benchmark's workload generator.  One process runs
// one workload end to end and prints the result line (the last line of
// stdout); run.py builds it and passes the arguments through.
//
//   perfbench_gen --workload NAME --seed N --seconds S --trace 0|1
//                 --data DIR --work DIR --serve PATH [--trace-out FILE]
//   perfbench_gen --make-oracle THREADS   (prints data/oracle.json)
//
// Workloads: fig4_read, write_sweep, mc_yield, serve_mix (see the files
// of the same names and README.md).  --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer metrics of the outside-in traced run.
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const std::string& why)
{
    std::cerr << "perfbench_gen: " << why << "\n";
    std::exit(2);
}

} // namespace

int main(int argc, char** argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string name = argv[i];
        if (name.rfind("--", 0) != 0) usage("unexpected argument " + name);
        flags[name.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0) usage("every flag needs a value");
    const auto get = [&](const std::string& name) {
        const auto it = flags.find(name);
        if (it == flags.end()) usage("missing --" + name);
        return it->second;
    };

    try {
        if (flags.count("make-oracle") != 0) {
            mpsram::util::Json doc =
                perfbench::sweep_oracle(std::stoi(get("make-oracle")));
            doc.set("mc_yield", perfbench::mc_oracle());
            std::cout << doc.dump() << "\n";
            return 0;
        }

        perfbench::Args args;
        args.workload = get("workload");
        args.seed = std::stoull(get("seed"));
        args.seconds = std::stod(get("seconds"));
        args.trace = get("trace") == "1";
        args.data_dir = get("data");
        args.work_dir = get("work");
        args.serve_bin = get("serve");
        if (flags.count("trace-out") != 0) args.trace_out = flags["trace-out"];

        perfbench::Report report;
        if (args.workload == "fig4_read" || args.workload == "write_sweep") {
            perfbench::run_sweep(args, report);
        } else if (args.workload == "mc_yield") {
            perfbench::run_mc_yield(args, report);
        } else if (args.workload == "serve_mix") {
            perfbench::run_serve_mix(args, report);
        } else {
            usage("unknown workload " + args.workload);
        }
        std::cout << report.line() << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_gen: " << e.what() << "\n";
        return 1;
    }
}
