// Benchmark harness entry point.
//
//   gia_perfbench --workload paper_study|system64|served_mix --seed N
//                 --seconds S --trace 0|1 [--out-dir DIR]
//   gia_perfbench --setup-probe WORKLOAD
//
// Prints one `{"detail":{...}}` line (sample counts, sizes, percentiles,
// failures) and then, as the last line, the result object:
//   {"correct":B,"attempted":N,"failed":N,"metrics":{name:{"value":V,"unit":U}}}
// The untraced run (--trace 0) reports the end-to-end metrics; the traced
// run (--trace 1) reports the per-layer metrics. Flows run at the host's
// hardware concurrency, recorded as "threads" in the detail line.
//
// --setup-probe performs one workload set-up in a fresh process, writes one
// byte to stdout when it is ready to issue its first request, then tears
// down and exits; the harness spawns it to time set-up (setup_s).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "core/json.hpp"

namespace {

namespace json = gia::core::json;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gia_perfbench: %s\nusage: gia_perfbench --workload "
               "paper_study|system64|served_mix --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               why);
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload" || k == "--setup-probe") {
      a.setup_probe = k == "--setup-probe";
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + k).c_str());
  }
  if (a.seconds < 1) usage("--seconds must be at least 1");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  if (args.setup_probe) {
    try {
      perfbench::setup_probe(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gia_perfbench: set-up failed: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  perfbench::Report rep;
  try {
    if (args.workload == "paper_study") {
      perfbench::run_paper_study(args, rep);
    } else if (args.workload == "system64") {
      perfbench::run_system64(args, rep);
    } else if (args.workload == "served_mix") {
      perfbench::run_served_mix(args, rep);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gia_perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& f : rep.failures) std::fprintf(stderr, "FAILED: %s\n", f.c_str());

  std::string detail = "{\"detail\":{\"workload\":";
  json::escape(args.workload, detail);
  detail += ",\"seed\":" + std::to_string(args.seed) + ",\"threads\":" +
            std::to_string(perfbench::flow_threads()) + ",\"trace\":" + (args.trace ? "true" : "false");
  for (const auto& [name, value] : rep.detail) {
    detail += ",";
    json::escape(name, detail);
    detail += ":" + value;
  }
  detail += ",\"failures\":" + std::to_string(rep.failures.size()) + "}}";

  std::string out = "{\"correct\":";
  out += rep.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(rep.attempted);
  out += ",\"failed\":" + std::to_string(rep.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : rep.metrics) {
    if (!first) out += ",";
    first = false;
    json::escape(name, out);
    out += ":{\"value\":";
    json::append_double(vu.first, out);
    out += ",\"unit\":";
    json::escape(vu.second, out);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n%s\n", detail.c_str(), out.c_str());
  return 0;
}
