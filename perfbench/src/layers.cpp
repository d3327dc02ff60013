// Per-layer probes of traced runs. Each one calls a layer's public
// functions directly from here, times the call as a span and reads the
// layer's own exact counters.
#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>

#include "image/generate.hpp"
#include "image/pnm.hpp"
#include "sharpen/cpu_parallel.hpp"
#include "sharpen/cpu_pipeline.hpp"
#include "sharpen/execution.hpp"
#include "sharpen/gpu/kernels.hpp"
#include "sharpen/gpu/launch_plan.hpp"
#include "sharpen/service/frame_runner.hpp"
#include "sharpen/stages.hpp"
#include "simcl/warp.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using sharp::gpu::grid1d;
using sharp::gpu::grid2d;

/// Slab count the service worker of `cfg` splits this frame's upload into.
int slices_for(const sharp::ServiceConfig& cfg, const sharp::img::ImageU8& im) {
  const auto px = static_cast<std::int64_t>(im.width()) * im.height();
  return px >= cfg.slice_threshold_pixels ? cfg.slice_count : 1;
}

/// A benchmark-owned copy of one service worker's device: context, the two
/// in-order queues, buffer pool and frame runner (depth 2, two slots).
struct Worker {
  explicit Worker(const sharp::Execution& exec)
      : ctx(exec.device, exec.host, exec.engine_threads),
        comp(ctx),
        xfer(ctx),
        pool(ctx),
        runner(ctx, pool, comp, xfer, exec.options, 2) {}
  simcl::Context ctx;
  simcl::CommandQueue comp;
  simcl::CommandQueue xfer;
  sharp::gpu::BufferPool pool;
  sharp::service::FrameRunner runner;
};

void check_engine(simcl::Context& ctx, const char* where) {
  if (ctx.engine().warp_fallback_launches() > 0) {
    mark_invalid(std::string(where) +
                 ": simcl fell back from warp bodies to scalar bodies");
  }
}

std::size_t sz(std::int64_t v) { return static_cast<std::size_t>(v); }

/// A pipeline kernel at one geometry: its launches (several for a sliced
/// Sobel) and whether the frame pipeline launches it at that geometry.
struct KernelCase {
  const char* name;
  std::vector<std::pair<simcl::Kernel, simcl::LaunchConfig>> launches;
  bool in_pipeline = true;
};

struct KernelSample {
  double wall_s = 0.0;
  double modeled_us = 0.0;
  double bytes = 0.0;
  double misses = 0.0;
  double items = 0.0;
};

constexpr const char* kKernelNames[] = {"downscale",     "border", "center",
                                        "sobel",         "reduce_stage1",
                                        "sharpness"};

}  // namespace

void preflight(std::uint64_t seed) {
  Frame f;
  f.image = sharp::img::make_natural(256, 256, seed);
  compute_reference(f);
  Worker w(sharp::ServiceConfig{}.execution);
  const auto ticket = w.runner.begin_frame(f.image, true);
  if (w.runner.finish_frame(ticket, f.params).output != f.expected) {
    mark_invalid("preflight: FrameRunner pixels differ from reference");
  }
  check_engine(w.ctx, "preflight");
}

std::vector<double> standalone_modeled_us(const std::vector<Frame>& frames,
                                          const sharp::ServiceConfig& cfg) {
  std::vector<double> us;
  for (const Frame& f : frames) {
    Worker w(cfg.execution);
    const auto ticket = w.runner.begin_frame(f.image, false, 0, 0,
                                             slices_for(cfg, f.image));
    us.push_back(w.runner.finish_frame(ticket, f.params).total_modeled_us);
    check_engine(w.ctx, "standalone modeled frame");
  }
  return us;
}

std::vector<double> simcl_layer(const std::vector<Frame>& frames,
                                const sharp::ServiceConfig& svc,
                                Metrics& out) {
  const sharp::Execution& exec = svc.execution;
  const sharp::PipelineOptions& opt = exec.options;
  const sharp::gpu::KernelEnv env = sharp::gpu::KernelEnv::from(opt);
  std::map<std::string, KernelSample> total;
  std::map<std::pair<int, int>, double> pipeline_wall_s;

  for (const Frame& f : frames) {
    const int w = f.image.width();
    const int h = f.image.height();
    if (pipeline_wall_s.count({w, h}) != 0) {
      continue;
    }
    const int dw = w / sharp::kScale;
    const int dh = h / sharp::kScale;
    const std::int64_t n = static_cast<std::int64_t>(w) * h;
    const int pw = w + 2;
    simcl::Context ctx(exec.device, exec.host, exec.engine_threads);
    simcl::CommandQueue q(ctx);
    simcl::Buffer padded = ctx.create_buffer("padded", sz(pw) * sz(h + 2));
    {
      // Replicate-padded input, as FrameRunner's upload lays it out.
      std::vector<std::uint8_t> host(sz(pw) * sz(h + 2));
      for (int y = -1; y <= h; ++y) {
        const int sy = std::clamp(y, 0, h - 1);
        for (int x = -1; x <= w; ++x) {
          const int sx = std::clamp(x, 0, w - 1);
          host[sz(y + 1) * sz(pw) + sz(x + 1)] =
              f.image.data()[sz(sy) * sz(w) + sz(sx)];
        }
      }
      (void)q.enqueue_write(padded, host.data(), host.size());
      q.reset();
    }
    const sharp::gpu::SrcView view{&padded, pw, pw + 1};
    simcl::Buffer down = ctx.create_buffer("down", sz(dw) * sz(dh) * sizeof(float));
    simcl::Buffer up = ctx.create_buffer("up", sz(n) * sizeof(float));
    simcl::Buffer edge = ctx.create_buffer("edge", sz(n) * sizeof(std::int32_t));
    simcl::Buffer final_out = ctx.create_buffer("final", sz(n));
    const int g = opt.reduction_group_size;
    const int ipt = opt.reduction_items_per_thread;
    const std::int64_t groups = (n + std::int64_t{g} * ipt - 1) / (std::int64_t{g} * ipt);
    simcl::Buffer partials =
        ctx.create_buffer("partials", sz(groups) * sizeof(std::int32_t));
    const float inv_mean = sharp::stages::inverse_mean_edge(
        std::llround(f.mean_edge * static_cast<double>(n)), n, f.params);

    std::vector<KernelCase> cases;
    cases.push_back({"downscale",
                     {{sharp::gpu::make_downscale(view, down, dw, dh, env),
                       grid2d(sz(dw), sz(dh))}}});
    cases.push_back({"border",
                     {{sharp::gpu::make_border(down, dw, dh, up, w, h, env),
                       grid1d(sz(4 * w + 4 * (h - 4)))}},
                     w >= opt.border_gpu_threshold});
    cases.push_back({"center",
                     {{sharp::gpu::make_center_vec4(down, dw, dh, up, w, h, env),
                       grid2d(sz(dw - 1), sz(h - 4))}}});
    KernelCase sobel{"sobel", {}};
    if (slices_for(svc, f.image) > 1) {
      for (const sharp::gpu::SlabRange& s :
           sharp::gpu::slice_rows(h, slices_for(svc, f.image))) {
        sobel.launches.emplace_back(
            sharp::gpu::make_sobel_slab_vec4(view, edge, w, h, s.y0, s.rows, env),
            grid2d(sz(w / 4), sz(s.rows)));
      }
    } else {
      sobel.launches.emplace_back(sharp::gpu::make_sobel_vec4(view, edge, w, h, env),
                                  grid2d(sz(w / 4), sz(h)));
    }
    cases.push_back(std::move(sobel));
    cases.push_back({"reduce_stage1",
                     {{sharp::gpu::make_reduce_stage1(edge, n, partials, g, ipt,
                                                      opt.unroll, env),
                       {.global = simcl::NDRange(sz(groups * g)),
                        .local = simcl::NDRange(sz(g))}}}});
    cases.push_back({"sharpness",
                     {{sharp::gpu::make_sharpness_fused_vec4(
                           view, up, edge, inv_mean, f.params, final_out, w, h,
                           env),
                       grid2d(sz(w / 4), sz(h))}}});

    // One warm-up pass, then timed passes in pipeline order so every
    // kernel reads what its producer wrote.
    const int timed = n > 2'000'000 ? 2 : 5;
    std::map<std::string, std::vector<double>> walls;
    std::map<std::string, KernelSample> last;
    for (int pass = 0; pass <= timed; ++pass) {
      for (const KernelCase& kc : cases) {
        KernelSample s;
        Scoped span(std::string("simcl.") + kc.name);
        for (const auto& [kernel, cfg] : kc.launches) {
          const double t0 = now_s();
          const simcl::Event ev = q.enqueue_kernel(kernel, cfg);
          s.wall_s += now_s() - t0;
          s.modeled_us += ev.duration_us();
          s.bytes += static_cast<double>(ev.stats.global_load_bytes +
                                         ev.stats.global_store_bytes);
          s.misses += static_cast<double>(ev.stats.l1_miss_lines);
          s.items += static_cast<double>(ev.stats.work_items);
        }
        if (pass > 0) {
          walls[kc.name].push_back(s.wall_s);
          last[kc.name] = s;
        }
      }
      q.reset();
    }
    check_engine(ctx, "simcl layer");
    double frame_wall = 0.0;
    for (const KernelCase& kc : cases) {
      KernelSample s = last[kc.name];
      s.wall_s = median(walls[kc.name]);
      KernelSample& t = total[kc.name];
      t.wall_s += s.wall_s;
      t.modeled_us += s.modeled_us;
      t.bytes += s.bytes;
      t.misses += s.misses;
      t.items += s.items;
      if (kc.in_pipeline) {
        frame_wall += s.wall_s;
      }
    }
    pipeline_wall_s[{w, h}] = frame_wall;
  }

  // Summed over one launch at each distinct geometry of the workload.
  for (const char* k : kKernelNames) {
    const KernelSample& t = total[k];
    const std::string p = std::string("simcl.") + k + ".";
    out.set(p + "wall_ms", t.wall_s * 1e3, "ms");
    out.set(p + "ns_per_item", t.items > 0 ? t.wall_s * 1e9 / t.items : 0.0, "ns");
    out.set(p + "modeled_us", t.modeled_us, "modeled_us");
    out.set(p + "bytes", t.bytes, "B");
    out.set(p + "l1_miss_lines", t.misses, "count");
  }

  {
    // Fixed cost of one launch: a single 64-item group with empty bodies.
    simcl::Context ctx(exec.device, exec.host, exec.engine_threads);
    simcl::CommandQueue q(ctx);
    const simcl::Kernel empty{.name = "perfbench_empty",
                              .body = [](simcl::WorkItem&) {},
                              .body_warp = [](simcl::WarpItem&) {},
                              .contract = {}};
    const simcl::LaunchConfig cfg = grid1d(64, 64);
    std::vector<double> us;
    Scoped span("simcl.empty_launch");
    for (int i = 0; i < 400; ++i) {
      const double t0 = now_s();
      (void)q.enqueue_kernel(empty, cfg);
      if (i >= 20) {
        us.push_back((now_s() - t0) * 1e6);
      }
    }
    span.end();
    check_engine(ctx, "simcl empty launch");
    out.set("simcl.empty_launch_us", median(us), "us");
  }

  std::vector<double> per_frame;
  per_frame.reserve(frames.size());
  for (const Frame& f : frames) {
    per_frame.push_back(pipeline_wall_s[{f.image.width(), f.image.height()}]);
  }
  return per_frame;
}

void frame_runner_layer(const std::vector<Frame>& frames,
                        const std::vector<std::size_t>& sequence,
                        const std::vector<double>& simcl_wall_s,
                        const sharp::ServiceConfig& svc, Metrics& out) {
  Worker w(svc.execution);
  sharp::service::FrameRunner& runner = w.runner;
  struct InFlight {
    std::size_t frame;
    sharp::service::FrameRunner::Ticket ticket;
  };
  std::deque<InFlight> ring;
  std::vector<double> begin_ms;
  std::vector<double> finish_ms;
  std::vector<double> modeled;
  std::vector<double> overhead_ms;
  double wall_sum_s = 0.0;
  double modeled_sum_us = 0.0;
  const std::size_t created0 = w.pool.created();

  const auto finish_oldest = [&] {
    InFlight inf = std::move(ring.front());
    ring.pop_front();
    const Frame& f = frames[inf.frame];
    Scoped span("frame_runner.finish", 0, inf.ticket.request_id);
    const double t0 = now_s();
    const sharp::PipelineResult r = runner.finish_frame(inf.ticket, f.params);
    const double wall = now_s() - t0;
    span.end();
    if (r.output != f.expected) {
      mark_invalid("frame_runner layer: pixels differ from reference");
    }
    finish_ms.push_back(wall * 1e3);
    modeled.push_back(r.total_modeled_us);
    overhead_ms.push_back((wall - simcl_wall_s[inf.frame]) * 1e3);
    wall_sum_s += wall;
    modeled_sum_us += r.total_modeled_us;
  };

  int slot = 0;
  for (std::size_t k = 0; k < sequence.size(); ++k) {
    const Frame& f = frames[sequence[k]];
    Scoped span("frame_runner.begin", 0, k + 1);
    const double t0 = now_s();
    auto ticket = runner.begin_frame(f.image, k == 0, slot, k + 1,
                                     slices_for(svc, f.image));
    const double wall = now_s() - t0;
    span.end();
    begin_ms.push_back(wall * 1e3);
    wall_sum_s += wall;
    slot = (slot + 1) % runner.slots();
    ring.push_back({sequence[k], std::move(ticket)});
    while (ring.size() > 1) {
      finish_oldest();
    }
  }
  while (!ring.empty()) {
    finish_oldest();
  }
  check_engine(w.ctx, "frame_runner layer");

  std::size_t launches = 0;
  std::size_t lut_uploads = 0;
  for (const simcl::CommandQueue* q : {&w.comp, &w.xfer}) {
    for (const simcl::Event& ev : q->events()) {
      launches += ev.kind == simcl::CommandKind::kKernel ? 1 : 0;
      lut_uploads += ev.kind == simcl::CommandKind::kWrite &&
                             ev.name.find("strength_lut") != std::string::npos
                         ? 1
                         : 0;
    }
  }
  const auto frames_run = static_cast<double>(sequence.size());
  out.set("frame_runner.begin_wall_ms", median(begin_ms), "ms");
  out.set("frame_runner.finish_wall_ms", median(finish_ms), "ms");
  out.set("frame_runner.modeled_us", median(modeled), "modeled_us");
  out.set("frame_runner.wall_per_modeled",
          modeled_sum_us > 0 ? wall_sum_s * 1e6 / modeled_sum_us : 0.0,
          "ratio");
  out.set("frame_runner.launches_per_frame",
          static_cast<double>(launches) / frames_run, "count");
  out.set("frame_runner.lut_uploads_per_frame",
          static_cast<double>(lut_uploads) / frames_run, "count");
  out.set("frame_runner.host_overhead_ms", median(overhead_ms), "ms");
  out.set("buffer_pool.creates_per_frame",
          static_cast<double>(w.pool.created() - created0) / frames_run,
          "count");
}

void cpu_layers(const Frame& f, Metrics& out) {
  namespace st = sharp::stages;
  const sharp::img::ImageU8& im = f.image;
  const double n = static_cast<double>(im.width()) * im.height();
  const int reps = std::clamp(static_cast<int>(3e7 / n), 3, 40);
  const sharp::Execution exec = sharp::Execution::max_throughput(3);

  // cpu_pipeline: sweep totals are measured; their per-stage split is not.
  const sharp::ParallelCpuPipeline par(exec.cpu_threads, exec.host, exec.options);
  const sharp::CpuPipeline ser(exec.host, exec.options);
  std::vector<double> down_ms;
  std::vector<double> sweep1_ms;
  std::vector<double> sweep2_ms;
  std::vector<double> par_s;
  std::vector<double> ser_s;
  for (int r = 0; r <= reps; ++r) {
    Scoped sp("cpu_pipeline.parallel");
    double t0 = now_s();
    const sharp::PipelineResult pr = par.run(im, f.params);
    const double pwall = now_s() - t0;
    sp.end();
    Scoped ss("cpu_pipeline.serial");
    t0 = now_s();
    const sharp::PipelineResult sr = ser.run(im, f.params);
    const double swall = now_s() - t0;
    ss.end();
    if (pr.output != f.expected || sr.output != f.expected) {
      mark_invalid("cpu_pipeline layer: pixels differ from reference");
    }
    if (r == 0) {
      continue;  // warm-up
    }
    double d = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    for (const sharp::StageTiming& t : pr.stages) {
      if (t.stage == sharp::stage::kDownscale) {
        d += t.wall_us;
      } else if (t.stage == sharp::stage::kSobel ||
                 t.stage == sharp::stage::kReduction) {
        s1 += t.wall_us;
      } else {
        s2 += t.wall_us;
      }
    }
    down_ms.push_back(d / 1e3);
    sweep1_ms.push_back(s1 / 1e3);
    sweep2_ms.push_back(s2 / 1e3);
    par_s.push_back(pwall);
    ser_s.push_back(swall);
  }
  out.set("cpu_pipeline.downscale_ms", median(down_ms), "ms");
  out.set("cpu_pipeline.sweep1_ms", median(sweep1_ms), "ms");
  out.set("cpu_pipeline.sweep2_ms", median(sweep2_ms), "ms");
  out.set("cpu_pipeline.parallel_speedup", median(ser_s) / median(par_s), "ratio");

  // simd: the public stage functions dispatch to the SIMD row kernels.
  const auto time_ns_per_px = [&](const char* name, auto&& fn) {
    std::vector<double> ns;
    for (int r = 0; r <= reps; ++r) {
      Scoped span(std::string("simd.") + name);
      const double t0 = now_s();
      fn();
      if (r > 0) {
        ns.push_back((now_s() - t0) * 1e9 / n);
      }
    }
    out.set(std::string("simd.") + name + "_ns_per_px", median(ns), "ns");
  };
  const st::ImageF32 down = st::downscale(im);
  const st::ImageF32 up = st::upscale(down, im.width(), im.height());
  const st::ImageF32 error = st::difference(im, up);
  const st::ImageI32 edge = st::sobel(im);
  const float inv_mean = st::inverse_mean_edge(
      st::reduce_sum(edge), static_cast<std::int64_t>(n), f.params);
  const st::ImageF32 prelim = st::preliminary(up, error, edge, inv_mean, f.params);
  if (st::overshoot_control(im, prelim, f.params) != f.expected) {
    mark_invalid("simd layer: stage pixels differ from reference");
  }
  time_ns_per_px("downscale", [&] { (void)st::downscale(im); });
  time_ns_per_px("sobel", [&] { (void)st::sobel(im); });
  time_ns_per_px("upscale", [&] { (void)st::upscale(down, im.width(), im.height()); });
  time_ns_per_px("preliminary",
                 [&] { (void)st::preliminary(up, error, edge, inv_mean, f.params); });
  time_ns_per_px("overshoot",
                 [&] { (void)st::overshoot_control(im, prelim, f.params); });

  // image: the PNM codec on an in-memory stream.
  std::vector<double> enc;
  std::vector<double> dec;
  for (int r = 0; r <= reps; ++r) {
    std::ostringstream os;
    Scoped se("image.encode");
    double t0 = now_s();
    sharp::img::write_pgm(os, im);
    const double e = now_s() - t0;
    se.end();
    std::istringstream is(std::move(os).str());
    Scoped sd("image.decode");
    t0 = now_s();
    const sharp::img::ImageU8 back = sharp::img::read_pgm(is);
    const double d = now_s() - t0;
    sd.end();
    if (back != im) {
      mark_invalid("image layer: PGM round trip changed pixels");
    }
    if (r > 0) {
      enc.push_back(e * 1e3 / (n / 1e6));
      dec.push_back(d * 1e3 / (n / 1e6));
    }
  }
  out.set("image.encode_ms_per_mpx", median(enc), "ms/Mpx");
  out.set("image.decode_ms_per_mpx", median(dec), "ms/Mpx");
}

}  // namespace perfbench
