/**
 * @file
 * camobench — the repository benchmark runner.
 *
 *   camobench --workload NAME --seed N --seconds S --trace 0|1
 *             --daemon-bin PATH --work-dir DIR --benchmark-json PATH
 *             [--tiny]
 *
 * Workloads: busy-sweep, ga-tune, daemon-openloop (BENCHMARK.json says
 * why each exists), and leakage-verdict, which runs by name only
 * (camobench/workloads.json says why, and holds the loop type, worker
 * counts and the layer -> end-to-end map).
 *
 * stdout: informational lines prefixed "camobench:", then one JSON
 * object as the last line: {"correct", "attempted", "failed",
 * "metrics"}. Untraced runs report BENCHMARK.json's end_to_end
 * metrics; traced runs (--trace 1) report its per_layer metrics and
 * write their spans to DIR/spans-<workload>-<seed>.json.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "src/common/build_info.h"
#include "src/obs/json.h"

using namespace camobench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "camobench: %s\n"
                 "usage: camobench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --daemon-bin PATH --work-dir DIR "
                 "--benchmark-json PATH [--tiny]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed needs an unsigned integer");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0) ||
                o.seconds > 120)
                usage("--seconds needs a number in (0, 120]");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace needs 0 or 1");
            o.trace = v == "1";
        } else if (a == "--daemon-bin") {
            o.daemonBin = v;
        } else if (a == "--work-dir") {
            o.workDir = v;
        } else if (a == "--benchmark-json") {
            o.benchmarkJson = v;
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (o.workDir.empty())
        usage("--work-dir is required");
    if (o.benchmarkJson.empty())
        usage("--benchmark-json is required");
    return o;
}

using MetricList = std::vector<std::pair<std::string, std::string>>;

/** The {name, unit} pairs of BENCHMARK.json's `section`
 *  ("end_to_end" or "per_layer"): the one list of what a run reports. */
MetricList
declaredMetrics(const std::string &path, const char *section)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const auto doc = camo::obs::json::tryParse(text.str());
    const camo::obs::json::Value *list = doc ? doc->find(section) : nullptr;
    if (!list || !list->isArray())
        throw std::runtime_error(path + " has no " + section + " list");
    MetricList out;
    for (const camo::obs::json::Value &m : list->asArray()) {
        const camo::obs::json::Value *name = m.find("name");
        const camo::obs::json::Value *unit = m.find("unit");
        if (!name || !name->isString() || !unit || !unit->isString())
            throw std::runtime_error(path + ": " + section +
                                     " entry without name or unit");
        out.emplace_back(name->asString(), unit->asString());
    }
    return out;
}

/** Build provenance; timings from unoptimized or sanitized builds
 *  are flagged so nobody mistakes them for comparable numbers. */
void
printProvenance()
{
    const camo::BuildInfo &b = camo::buildInfo();
    bool optimized = true;
#ifndef __OPTIMIZE__
    optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    optimized = false;
#endif
    if (b.cxxFlags.find("-fsanitize") != std::string::npos ||
        b.cxxFlags.find("-O0") != std::string::npos ||
        (b.buildType != "Release" && b.buildType != "RelWithDebInfo"))
        optimized = false;
    const char *digest = std::getenv("CAMOBENCH_SOURCE_DIGEST");
    std::printf("camobench: provenance {\"git_sha\": \"%s\", "
                "\"git_dirty\": %s, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
                "\"source_digest\": \"%s\", \"timing_valid\": %s}\n",
                b.gitSha.c_str(), b.gitDirty ? "true" : "false",
                b.compiler.c_str(), b.buildType.c_str(),
                b.cxxFlags.c_str(), digest ? digest : "unknown",
                optimized ? "true" : "false");
    if (!optimized)
        std::printf("camobench: WARNING timings come from a "
                    "non-optimized or sanitizer build\n");
}

/** {"name": {"value": v, "unit": u}, ...} with every digit of v. */
std::string
metricsObject(const std::map<std::string, Report::Metric> &metrics)
{
    std::string out = "{";
    char buf[64];
    for (const auto &[name, m] : metrics) {
        if (out.size() > 1)
            out += ", ";
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    printProvenance();

    Report report;
    SpanLog spans(opt.trace);
    MetricList declared;
    try {
        declared = declaredMetrics(opt.benchmarkJson,
                                   opt.trace ? "per_layer" : "end_to_end");
        if (opt.workload == "busy-sweep")
            runBusySweep(opt, report, spans);
        else if (opt.workload == "leakage-verdict")
            runLeakageVerdict(opt, report, spans);
        else if (opt.workload == "ga-tune")
            runGaTune(opt, report, spans);
        else if (opt.workload == "daemon-openloop")
            runDaemonOpenLoop(opt, report, spans);
        else
            usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "camobench: %s aborted: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    if (!report.e2eMetrics().count("peak_rss_mb"))
        report.e2e("peak_rss_mb", peakRssMb(), "MB");

    if (opt.trace) {
        reportSpanLayers(spans, report);
        spans.write(opt.workDir + "/spans-" + opt.workload + "-" +
                    std::to_string(opt.seed) + ".json");
    }

    // Every figure the workload names (camobench/workloads.json), with
    // the statistics digest, ahead of the result line.
    const double attempted = static_cast<double>(report.attempted());
    report.info("failed_ratio",
                attempted > 0 ? static_cast<double>(report.failed()) /
                                    attempted
                              : 0.0,
                "ratio");
    for (const char *name : {"setup_s", "peak_rss_mb"}) {
        const auto it = report.e2eMetrics().find(name);
        if (it != report.e2eMetrics().end())
            report.info(name, it->second.value, it->second.unit);
    }
    std::printf("camobench: workload-metrics %s\n",
                metricsObject(report.infoMetrics()).c_str());
    for (const auto &[name, text] : report.notes())
        std::printf("camobench: %s %s\n", name.c_str(), text.c_str());

    // Every declared metric with its declared unit. A traced run's
    // layers that the workload does not exercise read 0; an untraced
    // run must have measured every end-to-end metric.
    const auto &measured =
        opt.trace ? report.layerMetrics() : report.e2eMetrics();
    std::map<std::string, Report::Metric> out;
    for (const auto &[name, unit] : declared) {
        const auto it = measured.find(name);
        if (it == measured.end() && !opt.trace) {
            std::fprintf(stderr, "camobench: %s did not measure %s\n",
                         opt.workload.c_str(), name.c_str());
            return 1;
        }
        if (it != measured.end() && it->second.unit != unit) {
            std::fprintf(stderr,
                         "camobench: %s reports %s in %s, "
                         "BENCHMARK.json declares %s\n",
                         opt.workload.c_str(), name.c_str(),
                         it->second.unit.c_str(), unit.c_str());
            return 1;
        }
        out[name] = it != measured.end() ? it->second
                                         : Report::Metric{0.0, unit};
    }
    for (const auto &[name, m] : measured) {
        if (!out.count(name)) {
            std::fprintf(stderr,
                         "camobench: %s reports %s, which BENCHMARK.json "
                         "does not declare\n",
                         opt.workload.c_str(), name.c_str());
            return 1;
        }
    }
    if (report.attempted() == 0) {
        std::fprintf(stderr, "camobench: no operation attempted\n");
        return 1;
    }

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                report.correct() ? "true" : "false", report.attempted(),
                report.failed(), metricsObject(out).c_str());
    return 0;
}
