/**
 * @file
 * dtbench: runs one benchmark workload against the dtrank libraries
 * (and, for serve_open_loop, a dtrank_serve daemon) and writes the raw
 * report run.py analyses.
 *
 *   dtbench --workload paper_protocol --seed 1 --seconds 20 --trace 0 \
 *           --cross-check 0 --work-dir DIR --out DIR/raw.json
 */

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.h"

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    std::string out_path;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + flag);
            const std::string value = argv[++i];
            if (flag == "--workload")
                options.workload = value;
            else if (flag == "--seed")
                options.seed = std::stoull(value);
            else if (flag == "--seconds")
                options.seconds = std::stod(value);
            else if (flag == "--trace")
                options.trace = value == "1";
            else if (flag == "--cross-check")
                options.crossCheck = value == "1";
            else if (flag == "--work-dir")
                options.workDir = value;
            else if (flag == "--serve-bin")
                options.serveBin = value;
            else if (flag == "--out")
                out_path = value;
            else
                throw std::invalid_argument("unknown flag " + flag);
        }
        if (out_path.empty())
            throw std::invalid_argument("need --out");
    } catch (const std::exception &e) {
        std::cerr << "dtbench: " << e.what() << "\n";
        return 2;
    }

    Report report;
    recordHost(report);
    try {
        if (options.workload == "paper_protocol")
            runProtocol(options, false, report);
        else if (options.workload == "ragged_protocol")
            runProtocol(options, true, report);
        else if (options.workload == "scale_100k")
            runScale(options, report);
        else if (options.workload == "serve_open_loop")
            runServe(options, report);
        else
            throw std::invalid_argument("unknown workload " +
                                        options.workload);
    } catch (const std::exception &e) {
        std::cerr << "dtbench: " << e.what() << "\n";
        return 1;
    }
    if (!report.values.count("peak_rss_mib"))
        report.values["peak_rss_mib"] = peakRssMiB();

    std::ofstream out(out_path);
    out << report.toJson();
    if (!out) {
        std::cerr << "dtbench: cannot write " << out_path << "\n";
        return 1;
    }
    return 0;
}
