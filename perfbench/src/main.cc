// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <bus_batch|decoy_search> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//             [--catalog <BENCHMARK.json>]
//
// Prints human-readable lines prefixed "# ", then, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
// --trace 1 its per_layer list. Exits nonzero on any answer-check or
// parity failure. See GUIDE.md.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "obs/trace_analysis.h"
#include "report.h"

namespace perfbench {

namespace {

using hematch::Result;
using hematch::Status;
using hematch::obs::JsonValue;

// Reads the metric lists (name and unit of each) of a BENCHMARK.json.
Result<Catalog> LoadCatalog(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot read the metric catalog " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  HEMATCH_ASSIGN_OR_RETURN(JsonValue doc, hematch::obs::ParseJson(text.str()));
  Catalog catalog;
  for (auto [key, list] : {std::pair{"end_to_end", &catalog.end_to_end},
                           std::pair{"per_layer", &catalog.per_layer}}) {
    const JsonValue* items = doc.Find(key);
    if (items == nullptr || items->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument(path + ": no " + key + " list");
    }
    for (const JsonValue& item : items->items) {
      const JsonValue* name = item.Find("name");
      const JsonValue* unit = item.Find("unit");
      if (name == nullptr || unit == nullptr ||
          name->kind != JsonValue::Kind::kString ||
          unit->kind != JsonValue::Kind::kString) {
        return Status::InvalidArgument(path + ": a " + key +
                                       " metric without name or unit");
      }
      list->push_back({name->text, unit->text});
    }
  }
  return catalog;
}

bool InCatalog(const Catalog& catalog, const std::string& name) {
  for (const std::vector<MetricDef>* list :
       {&catalog.end_to_end, &catalog.per_layer}) {
    for (const MetricDef& m : *list) {
      if (name == m.name) return true;
    }
  }
  return false;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Usage() {
  std::cerr << "usage: perfbench --workload <bus_batch|decoy_search> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>] "
               "[--catalog <BENCHMARK.json>]\n";
  return 2;
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  if (!InCatalog(catalog_, name)) {
    Fail("metric not in the catalog: " + name);
    return;
  }
  values_[name] = value;
}

void Report::Fail(const std::string& message) {
  errors_.push_back(message);
  std::cerr << "perfbench: " << message << "\n";
}

void Report::Info(const std::string& line) {
  std::cout << "# " << line << std::endl;
}

double PeakRssMb() {
  // VmHWM follows ResetPeakRss(); ru_maxrss is the lifetime peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  std::string catalog_path = "BENCHMARK.json";
  std::set<std::string> seen;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    seen.insert(flag);
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else if (flag == "--catalog") {
      catalog_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || seen.count("--workload") == 0 || args.seconds <= 0.0) {
    return Usage();
  }

  Result<Catalog> catalog = LoadCatalog(catalog_path);
  if (!catalog.ok()) {
    std::cerr << "perfbench: " << catalog.status().ToString() << "\n";
    return 1;
  }
  Report report(std::move(catalog).value());
  Report::Info("workload " + args.workload + ", seed " +
               std::to_string(args.seed) + ", " +
               std::to_string(args.seconds) + " s, trace " +
               (args.trace ? "1" : "0"));
  if (args.workload == "bus_batch") {
    RunBusBatch(args, report);
  } else if (args.workload == "decoy_search") {
    RunDecoySearch(args, report);
  } else {
    return Usage();
  }

  // Every catalog metric of this mode must be present and finite. A
  // per-layer metric the workload never set reads 0: that layer is not
  // on this workload's path.
  std::string metrics;
  for (const MetricDef& m : args.trace ? report.catalog().per_layer
                                       : report.catalog().end_to_end) {
    auto it = report.values().find(m.name);
    double value = 0.0;
    if (it != report.values().end()) {
      value = it->second;
    } else if (!args.trace) {
      report.Fail("end-to-end metric not measured: " + m.name);
    }
    if (!std::isfinite(value)) {
      report.Fail("metric is not finite: " + m.name);
      value = 0.0;
    }
    Report::Info(m.name + " = " + JsonNumber(value) + " " + m.unit);
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  if (report.attempted == 0) {
    report.Fail("nothing was attempted");
  }
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  if (!report.correct()) {
    std::cerr << "perfbench: " << report.errors().size()
              << " check(s) failed\n";
    return 1;
  }
  return 0;
}
