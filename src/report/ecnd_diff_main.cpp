// ecnd-diff: regression forensics over two run artifacts.
//
//   ecnd-diff [--tolerance <rel>] [--out <path>] <artifact-A> <artifact-B>
//
// Artifact kinds are auto-detected (manifest, metrics dump, metrics_ts
// snapshot, sweep journal); both sides must be the same kind. Output is
// markdown (stdout by default); --out is written only once both inputs have
// been read. Exit status mirrors ecnd-report: 0 = no differences (after
// --tolerance suppression), 1 = numeric drift, 2 = structural mismatch, or a
// parse or usage error (with the usage line).

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
               "usage: ecnd-diff [--tolerance <rel>] [--out <path>] <A> <B>\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
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

  if (files.size() != 2) {
    usage();
    return 2;
  }
  ecnd::report::DiffResult result;
  try {
    result = ecnd::report::diff_artifacts(files[0], files[1], tolerance);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecnd-diff: %s\n", e.what());
    usage();
    return 2;
  }
  if (out_path.empty()) {
    ecnd::report::write_markdown(std::cout, result);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "ecnd-diff: cannot write %s\n", out_path.c_str());
      usage();
      return 2;
    }
    ecnd::report::write_markdown(out, result);
  }
  return static_cast<int>(result.severity());
}
