// perfbench: runs one named workload of the repo benchmark under a seed and
// prints, as its last stdout line, one JSON object with the correctness
// verdict, attempted/failed operation counts and the metrics — end-to-end
// metrics untraced (--trace 0), per-layer metrics traced (--trace 1).
//
//   perfbench --workload ingest|query --seed N --seconds S --trace 0|1
//             --db-dir DIR --out-dir DIR
//
// `perfbench --reference N` prints N times of the host reference task; the
// benchmark starts itself that way to time the task in a fresh process.
//
// DIR for the database must be on a RAM-backed filesystem and the binary a
// Release build; otherwise the run is refused (exit 2, no result line).
// perfbench/run.py builds this binary and provides both directories.

#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr long kTmpfsMagic = 0x01021994;
constexpr long kRamfsMagic = 0x858458f6;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string db_dir;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--db-dir") {
      args->db_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->db_dir.empty() &&
         !args->out_dir.empty();
}

std::string LoadAverage() {
  std::ifstream file("/proc/loadavg");
  std::string one, five, fifteen;
  file >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

std::string FilesystemType(const std::string& dir, bool* ram_backed) {
  struct statfs fs {};
  *ram_backed = false;
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  const long type = static_cast<long>(fs.f_type);
  *ram_backed = type == kTmpfsMagic || type == kRamfsMagic;
  if (type == kTmpfsMagic) return "tmpfs";
  if (type == kRamfsMagic) return "ramfs";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", type);
  return buf;
}

int Main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--reference") {
    return PrintReferenceTimes(std::atoi(argv[2]));
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--db-dir DIR --out-dir DIR\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
#if defined(NDEBUG)
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#else
  const std::string build_type = PERFBENCH_BUILD_TYPE "+asserts";
#endif
  bool ram_backed = false;
  const std::string fs_type = FilesystemType(args.db_dir, &ram_backed);
  if (build_type != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build; gated runs need Release\n",
                 build_type.c_str());
    return 2;
  }
  if (!ram_backed) {
    std::fprintf(stderr, "perfbench: refusing database directory %s on filesystem %s; "
                 "gated runs need a RAM-backed one\n", args.db_dir.c_str(), fs_type.c_str());
    return 2;
  }

  std::string env = "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                    ", \"loadavg_start\": ";
  AppendJsonString(&env, LoadAverage());
  env += ", \"db_fs\": ";
  AppendJsonString(&env, fs_type);
  env += ", \"build_type\": ";
  AppendJsonString(&env, build_type);
  env += ", \"compiler\": ";
  AppendJsonString(&env, "g++ " __VERSION__);
  env += ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + std::to_string(args.seconds) +
         ", \"trace\": " + std::to_string(args.trace);

  MetricSet metrics;
  const std::string workdir =
      args.db_dir + "/" + args.workload + "-" + std::to_string(args.seed);
  std::filesystem::remove_all(workdir);
  BenchRun run(*spec, args.seed, workdir);
  MetricSet raw;  // The untraced rounds' end-to-end metrics, unscaled.
  if (args.trace == 0) {
    run.Run(nullptr);
    run.EndToEnd(&metrics, &raw, false);
  } else {
    // Odd rounds run traced, even rounds untraced: the ratio of their
    // end-to-end numbers is the tracing overhead.
    run.Run(&metrics);
    MetricSet untraced, traced, traced_raw;
    run.EndToEnd(&untraced, &raw, false);
    run.EndToEnd(&traced, &traced_raw, true);
    for (const char* name : {"annotate_p50_us", "batch_ann_per_s", "query_geomean_ms",
                             "lookup_p50_ms", "zoomin_hit_p50_ms", "reopen_s"}) {
      const double base = untraced.Get(name);
      metrics.Set(std::string("trace.overhead.") + name,
                  base > 0 ? traced.Get(name) / base : 0.0, "ratio");
    }
    metrics.Set("trace.spans", static_cast<double>(run.tracer().num_spans()), "count");
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!run.tracer().WriteJson(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      run.verdict().Fail("span file");
    }
  }
  std::filesystem::remove_all(workdir);
  for (const std::string& failure : run.verdict().failures()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  const bool correct = run.verdict().ok();

  env += ", \"loadavg_end\": ";
  AppendJsonString(&env, LoadAverage());
  env += "}";
  std::printf("{\"env\": %s, \"run\": %s, \"raw\": %s, \"ops\": %s}\n", env.c_str(),
              run.InfoJson().c_str(), raw.ToJson().c_str(), run.ops().ToJson().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(run.ops().attempted()),
              static_cast<unsigned long long>(run.ops().failed()), metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
