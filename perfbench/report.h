// Report lines and the final JSON result line of one xks_perfbench run.
//
// Every metric is printed as it is measured, by name with its unit and
// sample count:
//
//   metric <workload> <name> <value> <unit> n=<samples>
//
// and the metrics the run reports to its caller are repeated in the last
// stdout line, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

#ifndef XKS_PERFBENCH_REPORT_H_
#define XKS_PERFBENCH_REPORT_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// A free-form line ("# ..."), e.g. run validity.
  void Note(const std::string& line) {
    std::printf("# %s %s\n", workload_.c_str(), line.c_str());
    std::fflush(stdout);
  }

  /// Prints one metric; `in_result` also puts it in the JSON line.
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples, bool in_result) {
    if (!std::isfinite(value)) value = 0;
    std::printf("metric %s %s %.6g %s n=%zu\n", workload_.c_str(),
                name.c_str(), value, unit.c_str(), samples);
    std::fflush(stdout);
    if (in_result) result_.push_back({name, unit, value});
  }

  void Finish(bool correct, size_t attempted, size_t failed) const {
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < result_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", result_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + result_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + result_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value;
  };
  std::string workload_;
  std::vector<Entry> result_;
};

}  // namespace perfbench

#endif  // XKS_PERFBENCH_REPORT_H_
