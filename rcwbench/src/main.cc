// rcwbench — the benchmark binary (run.py builds and calls it).
//
//   rcwbench gen --seed N --out DIR
//       writes the seed's input files into the existing directory DIR
//   rcwbench run --workload explain|maintain|serve --inputs DIR
//                --seconds S --trace 0|1 --work DIR --spans FILE
//       runs one workload; the last stdout line is the JSON result, which
//       names each measured value (run.py adds the units); a traced run
//       writes its spans to FILE
//   rcwbench selftest
//       checks the self-time and percentile arithmetic
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "rcwbench/src/inputs.h"
#include "rcwbench/src/report.h"
#include "rcwbench/src/trace.h"
#include "rcwbench/src/workloads.h"

namespace rcwbench {
namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) == 0) flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rcwbench gen --seed N --out DIR\n"
               "       rcwbench run --workload explain|maintain|serve "
               "--inputs DIR --seconds S --trace 0|1 --work DIR "
               "--spans FILE\n"
               "       rcwbench selftest\n");
  return 2;
}

int Gen(const std::map<std::string, std::string>& flags) {
  if (!flags.count("seed") || !flags.count("out")) return Usage();
  const robogexp::Status s = GenerateInputs(
      std::strtoull(flags.at("seed").c_str(), nullptr, 10), flags.at("out"));
  if (!s.ok()) {
    std::fprintf(stderr, "rcwbench gen: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

int Run(const std::map<std::string, std::string>& flags) {
  for (const char* key :
       {"workload", "inputs", "seconds", "trace", "work", "spans"}) {
    if (!flags.count(key)) return Usage();
  }
  RunOptions opts;
  opts.inputs = flags.at("inputs");
  opts.seconds = std::atof(flags.at("seconds").c_str());
  opts.trace = flags.at("trace") == "1";
  opts.work = flags.at("work");
  if (opts.seconds <= 0) return Usage();
  const std::string& workload = flags.at("workload");
  RunResult result;
  if (workload == "explain") {
    result = RunExplain(opts);
  } else if (workload == "maintain") {
    result = RunMaintain(opts);
  } else if (workload == "serve") {
    result = RunServe(opts);
  } else {
    return Usage();
  }
  if (opts.trace && !WriteSpans(flags.at("spans"))) {
    std::fprintf(stderr, "rcwbench: cannot write %s\n",
                 flags.at("spans").c_str());
    return 1;
  }
  PrintResult(result);
  return 0;
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  // A parent [0, 100) with two overlapping children on other threads
  // ([10, 40) and [30, 60)), one child reaching past its end ([90, 120))
  // and a grandchild inside the first child: the children cover
  // 50 + 10 = 60 ns of the parent, so its self time is 40 ns; the first
  // child's self time is 30 - 5 = 25 ns.
  std::vector<Span> spans(5);
  spans[0] = {"p", 1, 0, 0, 0, 100, 0};
  spans[1] = {"c", 2, 1, 0, 10, 40, 0};
  spans[2] = {"c", 3, 1, 0, 30, 60, 0};
  spans[3] = {"c", 4, 1, 0, 90, 120, 0};
  spans[4] = {"g", 5, 2, 0, 20, 25, 0};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  expect(self[0] == 40, "parent self time");
  expect(self[1] == 25, "child self time");
  expect(self[4] == 5, "leaf self time");
  const SpanTotals c = TotalsFor(spans, self, "c");
  expect(c.count == 3 && std::abs(c.ms - 90e-6) < 1e-12, "totals by name");

  expect(Percentile({}, 50) == 0.0, "empty percentile");
  expect(Percentile({3, 1, 2}, 50) == 2.0, "odd median");
  expect(Percentile({4, 1, 3, 2}, 50) == 2.0, "even median, nearest rank");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(Percentile(hundred, 90) == 90.0, "p90 of 1..100");
  expect(Percentile(hundred, 99) == 99.0, "p99 of 1..100");
  expect(Percentile(hundred, 100) == 100.0, "max");
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rcwbench

int main(int argc, char** argv) {
  if (argc < 2) return rcwbench::Usage();
  const std::string cmd = argv[1];
  const auto flags = rcwbench::ParseFlags(argc, argv);
  if (cmd == "gen") return rcwbench::Gen(flags);
  if (cmd == "run") return rcwbench::Run(flags);
  if (cmd == "selftest") return rcwbench::SelfTest();
  return rcwbench::Usage();
}
