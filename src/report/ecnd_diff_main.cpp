// ecnd-diff: regression forensics over two run artifacts.
//
//   ecnd-diff [--tolerance <rel>] [--out <path>] <artifact-A> <artifact-B>
//   ecnd-diff --bench-history <BENCH_history.jsonl> [--out <path>]
//
// Artifact kinds are auto-detected (manifest, metrics dump, metrics_ts
// snapshot, bench baseline, sweep journal); both sides must be the same
// kind. Output is markdown (stdout by default). Exit status mirrors
// ecnd-report: 0 = no differences (after --tolerance suppression),
// 1 = numeric drift, 2 = structural mismatch / parse error / usage error.
// --bench-history renders the perf trend table instead and exits 0.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli_args.hpp"
#include "report/diff.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: ecnd-diff [--tolerance <rel>] [--out <path>] <A> <B>\n"
               "       ecnd-diff --bench-history <file.jsonl> [--out <path>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string history_path;
  double tolerance = 0.0;
  std::vector<std::string> files;

  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "ecnd-diff: %s needs a value\n", argv[i]);
      usage();
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--tolerance") == 0) {
      const char* v = next(i);
      if (!ecnd::cli::parse_double(v, tolerance) || tolerance < 0.0) {
        std::fprintf(stderr,
                     "ecnd-diff: bad --tolerance \"%s\": expected a finite "
                     "number >= 0\n",
                     v);
        usage();
        return 2;
      }
    } else if (std::strcmp(arg, "--out") == 0) {
      out_path = next(i);
    } else if (std::strcmp(arg, "--bench-history") == 0) {
      history_path = next(i);
    } else if (std::strcmp(arg, "--help") == 0) {
      usage();
      return 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "ecnd-diff: unknown option %s\n", arg);
      usage();
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  try {
    std::ofstream out_file;
    std::ostream* out = &std::cout;
    if (!out_path.empty()) {
      out_file.open(out_path);
      if (!out_file) {
        std::fprintf(stderr, "ecnd-diff: cannot write %s\n", out_path.c_str());
        return 2;
      }
      out = &out_file;
    }

    if (!history_path.empty()) {
      if (!files.empty()) {
        usage();
        return 2;
      }
      ecnd::report::write_bench_history_markdown(*out, history_path);
      return 0;
    }

    if (files.size() != 2) {
      usage();
      return 2;
    }
    const ecnd::report::DiffResult result =
        ecnd::report::diff_artifacts(files[0], files[1], tolerance);
    ecnd::report::write_markdown(*out, result);
    return static_cast<int>(result.severity());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecnd-diff: %s\n", e.what());
    return 2;
  }
}
