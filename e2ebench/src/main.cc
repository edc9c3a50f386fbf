// e2ebench: the repository's end-to-end benchmark (one workload class
// per stack shape).  Normally started by run.py, which builds it first:
//
//   e2ebench --workload paper-phased|hot-read|tcp-durable --seed N
//            --seconds S --trace 0|1 [--workdir DIR]
//
// Prints host facts, every metric by name with its unit, and as the last
// stdout line one JSON object {"correct", "attempted", "failed",
// "metrics"}.  Exits non-zero, printing no result, when an output check
// fails or the arguments are bad.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "common/log.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "paper-phased|hot-read|tcp-durable --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n",
               why);
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (!ParseNumber(value, &number) || number < 0) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      args.seconds = number;
    } else if (flag == "--trace") {
      args.trace = number != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  ecc::Log::SetLevel(ecc::LogLevel::kError);
  e2e::PrintHostFacts();

  try {
    std::unique_ptr<e2e::Workload> w;
    if (args.workload == "paper-phased") {
      w = e2e::MakePaperPhased(args);
    } else if (args.workload == "hot-read") {
      w = e2e::MakeHotRead(args);
    } else if (args.workload == "tcp-durable") {
      w = e2e::MakeTcpDurable(args);
    } else {
      return Usage(("unknown workload '" + args.workload + "'").c_str());
    }
    return e2e::RunBenchmark(args, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
