// Repository benchmark: command-line entry point.
//
//   perfbench --workload <stream_small|video_4k|cpu_photo> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload for half the time untraced and half traced (their
// difference is the tracing overhead), then probes every layer from this
// benchmark's own code and reports the per-layer metrics. Every output
// pixel is compared with a serial CpuPipeline reference computed before
// timing starts. The last stdout line is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "sharpen/env.hpp"
#include "sharpen/simd_level.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// stream_small arrival rate: about half the default service's closed-loop
/// capacity on the mixed small frames (165-185 req/s on a 4-core host).
constexpr double kStreamRateHz = 80.0;
/// Latency limits of slo_met_frac, fixed once just above each workload's
/// tail as measured on the unmodified program on a 4-core host (p99 of
/// about 40-55 ms, 1.0-1.3 s and 100-150 ms).
constexpr double kStreamSloMs = 60.0;
constexpr double kVideoSloMs = 1500.0;
constexpr double kPhotoSloMs = 250.0;
/// The open loop is invalid when the generator sends this late at p99.
constexpr double kMaxLateP99Ms = 50.0;
/// Warm-up before each measurement window: lets buffer pools, caches and
/// the allocator reach steady state (the first seconds of a fresh service
/// run measurably slower).
constexpr double kStreamWarmupS = 3.0;
constexpr double kVideoWarmupS = 3.0;
constexpr double kPhotoWarmupS = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload stream_small|video_4k|cpu_photo"
               " --seed N --seconds S --trace 0|1 [--trace-file PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + k);
    }
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-file") {
      a.trace_file = v;
    } else {
      usage("unknown argument " + k);
    }
  }
  if (a.workload != "stream_small" && a.workload != "video_4k" &&
      a.workload != "cpu_photo") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return a;
}

/// The measured program reads these knobs from the environment; a run
/// with any of them set would measure another configuration.
void refuse_knob_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SHARP_", 6) == 0 ||
        std::strncmp(*e, "SIMCL_", 6) == 0) {
      std::cerr << "perfbench: refusing to run with " << *e
                << " set; unset every SHARP_* and SIMCL_* variable\n";
      std::exit(2);
    }
  }
}

void print_config(const Args& a) {
  std::ostringstream os;
  os << "{\"config\": {\"workload\": \"" << a.workload
     << "\", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
     << ", \"trace\": " << (a.trace ? 1 : 0)
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"simcl_checked\": "
#ifdef SIMCL_CHECKED
     << "true"
#else
     << "false"
#endif
     << ", \"compiler\": \"" << PERFBENCH_CXX_COMPILER
     << "\", \"simd_level\": \""
     << sharp::to_string(sharp::native_simd_level())
     << "\", \"host_threads\": " << std::thread::hardware_concurrency()
     << ", \"env_knobs\": {";
  bool first = true;
  for (const sharp::env::Knob& k : sharp::env::knobs()) {
    os << (first ? "" : ", ") << "\"" << k.name << "\": \"unset\"";
    first = false;
  }
  os << "}}}";
  std::cout << os.str() << "\n";
}

/// One workload's seeded inputs with their references, plus the inputs its
/// traced run probes the layers with.
struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<Frame> frames;  ///< stream_small / video_4k request pool
  std::vector<Photo> photos;  ///< cpu_photo pool
  sharp::ServiceConfig service;     ///< the service the workload (or its
                                    ///< GPU-layer probes) runs on
  double slo_ms = 0.0;              ///< slo_met_frac latency limit
  std::vector<Frame> gpu_frames;    ///< simcl and FrameRunner probe inputs
  std::vector<std::size_t> replay;  ///< FrameRunner replay order
  Frame cpu_frame;                  ///< CPU-layer probe input
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "stream_small") {
    w.slo_ms = kStreamSloMs;
    w.frames = stream_small_pool(seed);
    w.gpu_frames = w.frames;
    // The first requests of the workload's own schedule.
    const Schedule s = poisson_schedule(seed, kStreamRateHz, 0.6, w.frames.size());
    w.replay = s.frame;
    w.cpu_frame = w.frames[4];
  } else if (name == "video_4k") {
    // One worker whose simulated device spreads work-groups over one
    // engine thread per core, up to four. With the default single engine
    // thread the run's speed is that of whichever core the thread lands
    // on: on a shared 4-core VM the run-to-run spread of mpx_per_s was
    // 0.27-0.39 of the median, against about 0.1 with four threads.
    w.service.workers = 1;
    w.service.execution.engine_threads = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1U, 4U));
    w.slo_ms = kVideoSloMs;
    w.frames = video_4k_pool(seed);
    w.gpu_frames = w.frames;
    w.replay = {0, 1, 2, 0};
    w.cpu_frame = w.frames[0];
  } else {
    w.slo_ms = kPhotoSloMs;
    w.photos = cpu_photo_pool(seed);
    // The GPU layers see this workload's 12 Mpx photos.
    w.gpu_frames = {w.photos[0].frame, w.photos[2].frame};
    w.replay = {0, 1};
    w.cpu_frame = w.photos[0].frame;
  }
  return w;
}

void end_to_end_metrics(const Workload& w, const Phase& p, double setup_s,
                        double rss_mb, double modeled_us, Metrics& out) {
  double met = 0.0;
  for (double ms : p.latency_ms) {
    met += ms <= w.slo_ms ? 1.0 : 0.0;
  }
  out.set("e2e_p50_ms", median(p.latency_ms), "ms");
  out.set("slo_met_frac",
          p.measured > 0 ? met / static_cast<double>(p.measured) : 0.0,
          "fraction");
  out.set("mpx_per_s", p.mpx_per_s(), "Mpx/s");
  out.set("modeled_us_per_frame", modeled_us, "modeled_us");
  out.set("ok_frac",
          p.attempted > 0 ? static_cast<double>(p.attempted - p.failed) /
                                static_cast<double>(p.attempted)
                          : 0.0,
          "fraction");
  out.set("setup_s", setup_s, "s");
  out.set("peak_rss_mb", rss_mb, "MB");
}

/// Runs one end-to-end phase of `w`: `setup_reps` timed setups, a warm-up,
/// then `seconds` of measurement. Fills `out` with the end-to-end metrics.
Phase run_phase(const Workload& w, double seconds, int setup_reps,
                Metrics& out) {
  Phase p;
  double setup = 0.0;
  double modeled = 0.0;
  RssSampler rss;  // inputs and references already exist
  if (w.name == "stream_small") {
    const Schedule sch = poisson_schedule(
        w.seed, kStreamRateHz, kStreamWarmupS + seconds, w.frames.size());
    std::unique_ptr<sharp::SharpenService> svc;
    // Setup always serves the 512x512 default-parameter frame.
    setup = service_setup_s(w.service, w.frames[4], setup_reps, svc);
    p = run_open_loop(*svc, w.frames, sch, kStreamWarmupS);
    svc.reset();
    const double late99 = quantile(p.late_ms, 0.99);
    if (late99 > kMaxLateP99Ms) {
      mark_invalid("load generator fell behind (p99 late " +
                   std::to_string(late99) + " ms)");
    }
    // Service-reported modeled latency depends on how requests happened to
    // overlap, so this workload reports each measured request at the
    // modeled cost of its frame served alone.
    const std::vector<double> alone =
        standalone_modeled_us(w.frames, w.service);
    double sum = 0.0;
    double n = 0.0;
    for (std::size_t i = 0; i < sch.due_s.size(); ++i) {
      if (sch.due_s[i] >= kStreamWarmupS) {
        sum += alone[sch.frame[i]];
        n += 1.0;
      }
    }
    modeled = n > 0.0 ? sum / n : 0.0;
  } else if (w.name == "video_4k") {
    std::unique_ptr<sharp::SharpenService> svc;
    setup = service_setup_s(w.service, w.frames[0], setup_reps, svc);
    // Depth-2 pipeline; three frames in flight keep its queue non-empty,
    // which keeps the modeled timeline of every steady frame identical.
    p = run_closed_loop(*svc, w.frames, kVideoWarmupS, seconds, 3);
    svc.reset();
    if (p.modeled_us.empty()) {
      mark_invalid("video_4k: no steady-state frame completed in the run");
    }
    modeled = median(p.modeled_us);
  } else {
    setup = photo_setup_s(w.photos, setup_reps);
    modeled = photo_modeled_us(w.photos);
    p = run_photo_loop(w.photos, kPhotoWarmupS, seconds);
  }
  end_to_end_metrics(w, p, setup, rss.peak_growth_mb(), modeled, out);
  return p;
}

/// Traced run: half the time untraced, half traced, then every layer.
void traced_run(const Workload& w, double seconds, const std::string& file,
                Phase& total, Metrics& out) {
  Metrics untraced;
  Metrics traced;
  const Phase pu = run_phase(w, seconds / 2, 1, untraced);
  tracer().enable(true);
  const Phase pt = run_phase(w, seconds / 2, 1, traced);
  total.attempted = pu.attempted + pt.attempted;
  total.failed = pu.failed + pt.failed;

  Phase svc_side = pt;
  if (w.name == "cpu_photo") {
    // This workload bypasses the service; probe it with the same photos.
    sharp::SharpenService svc(w.service);
    svc_side = run_closed_loop(svc, w.gpu_frames, 0.0, 0.0, 2);
    total.attempted += svc_side.attempted;
    total.failed += svc_side.failed;
  }
  out.set("service.queue_wait_p50_ms", svc_side.queue_wait_p50_ms, "ms");
  out.set("service.queue_wait_p99_ms", svc_side.queue_wait_p99_ms, "ms");
  out.set("service.exec_p50_ms", svc_side.exec_p50_ms, "ms");
  out.set("service.queue_depth_hwm", svc_side.queue_depth_hwm, "count");
  out.set("service.failed",
          svc_side.service_failed + static_cast<double>(svc_side.failed),
          "count");
  out.set("loadgen.late_p99_ms", quantile(pt.late_ms, 0.99), "ms");
  out.set("loadgen.e2e_p99_ms", quantile(pt.latency_ms, 0.99), "ms");

  const std::vector<double> kernel_wall =
      simcl_layer(w.gpu_frames, w.service, out);
  frame_runner_layer(w.gpu_frames, w.replay, kernel_wall, w.service, out);
  cpu_layers(w.cpu_frame, out);

  for (const char* layer : {"loadgen", "service", "frame_runner", "simcl",
                            "cpu_pipeline", "simd", "image"}) {
    out.set(std::string("trace.self_ms.") + layer, tracer().self_ms(layer),
            "ms");
  }
  out.set("trace.overhead.e2e_p50_ms",
          traced.get("e2e_p50_ms") - untraced.get("e2e_p50_ms"), "ms");
  out.set("trace.overhead.mpx_per_s", pt.mpx_per_s() - pu.mpx_per_s(),
          "Mpx/s");
  if (!file.empty()) {
    tracer().write(file);
  }
  std::cout << "end-to-end metrics, untraced half:\n" << untraced.table()
            << "end-to-end metrics, traced half:\n" << traced.table()
            << "per-layer metrics (" << w.name << "):\n" << out.table();
}

int run(const Args& a) {
  preflight(a.seed);
  const Workload w = make_workload(a.workload, a.seed);
  Metrics out;
  Phase total;
  if (!a.trace) {
    // Setup is repeated and reported as a median: one 4K frame takes about
    // 0.3 s, the other workloads' first responses a few tens of ms.
    total = run_phase(w, a.seconds, a.workload == "video_4k" ? 5 : 15, out);
    // e2e_p99_ms is printed but not part of the result: on a shared host
    // its run-to-run spread exceeds any usable bound (stream_small: 0.29
    // and 0.62 of the median over ten runs); slo_met_frac gates the tail.
    const std::size_t n = total.latency_ms.size();
    std::cout << "end-to-end metrics (" << a.workload << ", tracing off):\n"
              << out.table() << "  e2e_p99_ms = "
              << quantile(total.latency_ms, 0.99) << " ms (" << n
              << " samples, " << n / 100 << " beyond p99)\n"
              << "  failed_frac = " << total.failed << " / "
              << total.attempted << "\n";
  } else {
    traced_run(w, a.seconds, a.trace_file, total, out);
  }
  const std::int64_t attempted = total.attempted;
  const std::int64_t failed = total.failed;

  const std::vector<std::string> invalid = invalid_reasons();
  for (const std::string& why : invalid) {
    std::cout << "invalid run: " << why << "\n";
  }
  const bool correct = invalid.empty() && failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << out.json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  perfbench::refuse_knob_env();
  perfbench::print_config(args);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
