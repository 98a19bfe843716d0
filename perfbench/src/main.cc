// Copyright 2026 The ccr Authors.
//
// perfbench: runs one workload in this process and prints its result line.
//
//   perfbench --workload <serve_zipf|bank_contended|restart_cold>
//             --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//             [--trace-out <file.jsonl>]
//
// --trace 0 measures one phase of --seconds and reports the end-to-end
// metrics. --trace 1 measures an untraced phase and then a traced phase of
// half the time each, and reports the per-layer metrics of the traced phase
// plus overhead.<metric>, the traced minus the untraced end-to-end value.
// The last line of standard output is the JSON result; the exit code is 0
// only when every correctness gate passed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::PhaseResult;
using perfbench::RunConfig;

struct Workload {
  const char* name;
  PhaseResult (*run)(const RunConfig&);
  uint64_t trace_every;  // requests sampled 1 in N in the traced phase
};

constexpr Workload kWorkloads[] = {
    {"serve_zipf", perfbench::RunServeZipf, 4},
    {"bank_contended", perfbench::RunBankContended, 16},
    {"restart_cold", perfbench::RunRestartCold, 8},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --scratch <dir> [--trace-out <file>]\n");
  return 2;
}

void PrintPhase(const char* label, const PhaseResult& r) {
  for (const std::string& note : r.notes) {
    std::printf("# %s %s\n", label, note.c_str());
  }
  for (const std::string& error : r.errors) {
    std::printf("# %s CORRECTNESS FAILURE: %s\n", label, error.c_str());
  }
  for (const perfbench::Metric& m : r.end_to_end) {
    std::printf("# %s %s = %.6g %s\n", label, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string scratch;
  std::string trace_out;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--scratch") {
      scratch = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0 || (trace != 0 && trace != 1) ||
      scratch.empty()) {
    return Usage();
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(scratch, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", scratch.c_str());
    return 2;
  }

  // Every thread created from here on (the engine's batcher and flusher
  // included) inherits a 1 ns timer slack, so the modelled device time and
  // the engine's linger timers wake when due instead of up to 50 us late.
  perfbench::UseFineTimerSlack();

  RunConfig cfg;
  cfg.seed = seed;
  cfg.scratch = scratch;
  if (trace == 0) {
    cfg.seconds = seconds;
    const PhaseResult r = w->run(cfg);
    PrintPhase("untraced", r);
    std::printf("%s\n", perfbench::ResultJson(r.correct, r.attempted,
                                              r.failed, r.end_to_end)
                            .c_str());
    return r.correct ? 0 : 1;
  }

  cfg.seconds = seconds / 2;
  const PhaseResult plain = w->run(cfg);
  PrintPhase("untraced", plain);
  perfbench::ResetPeakRss();
  perfbench::Tracer tracer(w->trace_every);
  cfg.tracer = &tracer;
  const PhaseResult traced = w->run(cfg);
  PrintPhase("traced", traced);
  if (!trace_out.empty()) {
    const std::vector<perfbench::Span> spans = tracer.Collect();
    if (perfbench::Tracer::WriteJsonl(spans, trace_out)) {
      std::printf("# %zu spans written to %s (%llu dropped)\n", spans.size(),
                  trace_out.c_str(),
                  static_cast<unsigned long long>(tracer.dropped()));
    }
  }
  std::vector<perfbench::Metric> metrics = traced.per_layer;
  for (size_t i = 0; i < traced.end_to_end.size() &&
                     i < plain.end_to_end.size();
       ++i) {
    metrics.push_back({"overhead." + traced.end_to_end[i].name,
                       traced.end_to_end[i].value - plain.end_to_end[i].value,
                       traced.end_to_end[i].unit});
  }
  const bool correct = plain.correct && traced.correct;
  std::printf("%s\n",
              perfbench::ResultJson(correct, plain.attempted + traced.attempted,
                                    plain.failed + traced.failed, metrics)
                  .c_str());
  return correct ? 0 : 1;
}
