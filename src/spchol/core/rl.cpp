// RL: the right-looking method (§II.A) and its GPU acceleration (§III).
//
// Per supernode J: DPOTRF on the diagonal block, DTRSM on the rectangular
// part, one DSYRK producing the whole update matrix in scratch, then
// scatter-assembly into the ancestors via generalized relative indices.
//
// GPU path (paper §III): H2D(J) → device POTRF → device TRSM → async
// D2H(factored J) on the copy stream, overlapped with the device SYRK on
// the compute stream → synchronous D2H(update matrix) → parallel CPU
// assembly. Small supernodes (entries < threshold) stay on the CPU.
//
// Parallel path (ctx.scheduled): the driver is a thin EXECUTOR over the
// shared ExecutionPlan (symbolic/exec_plan.*). The plan's COMPUTE nodes
// map to panel factorization + SYRK into a per-supernode update buffer,
// SCATTER nodes to the ancestor assembly, and BATCH nodes to fused
// compute+scatter sweeps over a run of small sibling subtrees (one fused
// batched device launch pair when the members are independent leaves
// whose combined entries cross the GPU threshold). The plan's edges are
// the supernodal-etree readiness edges plus the per-target ascending
// scatter chains, which simultaneously (a) make every target's storage
// single-writer without locks and (b) reproduce the sequential
// accumulation order, so results are bitwise identical to kCpuSerial for
// every worker/stream/batch setting.
//
// Fan-both (FactorOptions::fan_both, PlanShape::kFanBoth): heavily
// shared targets trade their scatter chain for per-group AGGREGATE
// gathers into private (offset, value) slabs — executed concurrently —
// plus a short chain of sequential APPLY replays whose concatenation IS
// the serial accumulation order (bitwise identity preserved). BATCH
// nodes decouple into compute + in-batch assembly here and separate
// BATCHSCATTER nodes per out-of-batch target. Update buffers become
// multi-consumer and are freed by reference count instead of the single
// scatter's eager swap.
//
// In kGpuHybrid the above-threshold COMPUTE tasks run the §III device
// pipeline on a slot drawn from a bounded pool: each in-flight GPU
// supernode gets its OWN compute/copy stream pair and device panel+update
// buffers, so independent subtree supernodes overlap on the device (not
// just against the CPU workers). A scheduler resource token caps in-flight
// GPU tasks at the pool size, and slot-reuse hazards are resolved with
// device-side stream waits — scheduled tasks never advance the shared
// modeled host clock to a stream tail, so the post-drain fold of deferred
// CPU-task time keeps makespan = max(host, stream tails), not their sum.
// Only supernodes the plan's data flow leaves independent may overlap: a
// PlanClock records every node's modeled finish (a CPU node: its
// predecessors' latest finish plus its own modeled seconds; a device
// node: its last device event), and a device node's first operation
// waits on its predecessors' latest finish — so a GPU supernode's H2D
// never starts before its children's update D2H and assembly have
// finished. The latest CPU-node finish joins the makespan after the
// drain.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "spchol/core/internal.hpp"
#include "spchol/symbolic/exec_plan.hpp"

namespace spchol::detail {

namespace {

/// Buffer requirements, computed in std::size_t so a wide supernode's
/// below² can never wrap a narrower intermediate type.
struct RlSizes {
  std::size_t host_update_max = 0;  // CPU-side update scratch (entries)
  std::size_t gpu_panel_max = 0;    // device panel buffer (entries)
  std::size_t gpu_update_max = 0;   // device update buffer (entries)
};

RlSizes rl_sizes(FactorContext& ctx, bool gpu_enabled) {
  const SymbolicFactor& symb = ctx.symb;
  RlSizes sz;
  for (index_t s = 0; s < symb.num_supernodes(); ++s) {
    const std::size_t below = static_cast<std::size_t>(symb.sn_below(s));
    sz.host_update_max = std::max(sz.host_update_max, below * below);
    if (gpu_enabled && ctx.on_gpu(s)) {
      sz.gpu_panel_max = std::max(
          sz.gpu_panel_max, static_cast<std::size_t>(symb.sn_entries(s)));
      sz.gpu_update_max = std::max(sz.gpu_update_max, below * below);
    }
  }
  return sz;
}

/// One in-flight GPU supernode's device resources: a compute/copy stream
/// pair plus panel and update buffers sized for the largest GPU supernode.
struct RlGpuSlot {
  gpu::Stream compute;
  gpu::Stream copy;
  gpu::DeviceBuffer panel;
  gpu::DeviceBuffer update;

  RlGpuSlot(gpu::Device& dev, std::size_t panel_entries,
            std::size_t update_entries)
      : compute(dev), copy(dev) {
    if (panel_entries > 0) panel = gpu::DeviceBuffer(dev, panel_entries);
    if (update_entries > 0) update = gpu::DeviceBuffer(dev, update_entries);
  }
};

/// Time of the last device event on either stream of a leased slot: the
/// finish of the plan node that just ran on it.
double last_event(const RlGpuSlot& slot) {
  return std::max(slot.compute.tail(), slot.copy.tail());
}

/// The paper-§III device pipeline for one supernode, including the final
/// CPU assembly. Callers guarantee exclusivity of the streams/buffers
/// (the sequential loop). Host-clock semantics are sequential: the host
/// genuinely waits for the update transfer before assembling.
void rl_gpu_supernode(FactorContext& ctx, index_t s, gpu::Stream& compute,
                      gpu::Stream& copy, gpu::DeviceBuffer& panel_dev,
                      gpu::DeviceBuffer& update_dev, double* u_host) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t w = symb.sn_width(s);
  const index_t r = symb.sn_nrows(s);
  const index_t below = r - w;
  double* panel = ctx.sn_values(s);
  // Element COUNT of the update matrix (not bytes; transfers and memsets
  // below scale by sizeof(double) where needed).
  const std::size_t ucount =
      static_cast<std::size_t>(below) * static_cast<std::size_t>(below);

  ctx.count_gpu_supernode();
  // The panel buffer is reused: wait out the previous async D2H.
  copy.synchronize();
  const std::size_t entries = static_cast<std::size_t>(r) * w;
  gpu::copy_h2d(ctx.dev, compute, panel_dev, 0, panel, entries,
                /*async=*/true);
  try {
    gpu::potrf_lower(ctx.dev, compute, w, panel_dev, 0, r);
  } catch (const NotPositiveDefinite& e) {
    throw NotPositiveDefinite(symb.sn_begin(s) + e.column());
  }
  if (below > 0) {
    gpu::trsm_right_lower_trans(ctx.dev, compute, below, w, panel_dev, 0,
                                r, w, r);
  }
  // Asynchronous D2H of the factored supernode: the CPU does not need it
  // yet, so it overlaps the update SYRK (paper §III).
  copy.wait(compute.record());
  gpu::copy_d2h(ctx.dev, copy, panel, panel_dev, 0, entries,
                /*async=*/true);
  if (below > 0) {
    gpu::syrk_lower_nt_beta0(ctx.dev, compute, below, w, panel_dev, w, r,
                             update_dev, 0, below);
    gpu::copy_d2h(ctx.dev, compute, u_host, update_dev, 0, ucount,
                  /*async=*/false);
    ctx.account_assembly(rl_assemble(ctx, s, u_host));
  }
}

/// The scheduled-path device pipeline for one supernode: same §III
/// operation sequence, but (a) the update matrix lands in the
/// per-supernode buffer `u` consumed by a separate SCATTER task, and
/// (b) every synchronization is DEVICE-side (stream waits on events) —
/// a scheduled task must never advance the shared modeled host clock to a
/// stream tail, or the post-drain fold of deferred CPU-task time would
/// count the overlapped transfer wait twice. `dev` is the device the
/// planner assigned this supernode to (the slot's owner); `dev_ord` its
/// effective ordinal, recorded for the per-device stats breakdown.
void rl_gpu_compute(FactorContext& ctx, gpu::Device& dev, index_t dev_ord,
                    index_t s, RlGpuSlot& slot, std::vector<double>& u) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t w = symb.sn_width(s);
  const index_t r = symb.sn_nrows(s);
  const index_t below = r - w;
  double* panel = ctx.sn_values(s);
  const std::size_t ucount =
      static_cast<std::size_t>(below) * static_cast<std::size_t>(below);

  ctx.count_gpu_supernode(dev_ord);
  // Slot-reuse hazard: the previous occupant's async panel D2H is still
  // draining the copy stream; chain behind it on the device timeline.
  slot.compute.wait(slot.copy.record());
  const std::size_t entries = static_cast<std::size_t>(r) * w;
  gpu::copy_h2d(dev, slot.compute, slot.panel, 0, panel, entries,
                /*async=*/true);
  try {
    gpu::potrf_lower(dev, slot.compute, w, slot.panel, 0, r);
  } catch (const NotPositiveDefinite& e) {
    throw NotPositiveDefinite(symb.sn_begin(s) + e.column());
  }
  if (below > 0) {
    gpu::trsm_right_lower_trans(dev, slot.compute, below, w, slot.panel,
                                0, r, w, r);
  }
  slot.copy.wait(slot.compute.record());
  gpu::copy_d2h(dev, slot.copy, panel, slot.panel, 0, entries,
                /*async=*/true);
  if (below > 0) {
    gpu::syrk_lower_nt_beta0(dev, slot.compute, below, w, slot.panel, w,
                             r, slot.update, 0, below);
    // Into the per-supernode buffer: the update-buffer reuse hazard is
    // covered by FIFO order on the compute stream (the next occupant's
    // SYRK queues behind this transfer).
    u.resize(ucount);
    gpu::copy_d2h(dev, slot.compute, u.data(), slot.update, 0, ucount,
                  /*async=*/true);
  }
}

/// Cooperative device pipeline for one SPINE supernode (plan device
/// ordinal -1): the wide separator panels near the root that no single
/// device shard can absorb without serializing the critical path. The
/// numerics run once, on device 0 (the owner) — the identical §III call
/// sequence, so factors stay bitwise independent of the device count —
/// while the modeled timeline block-distributes the POTRF trailing
/// updates, the TRSM, and the SYRK across ALL devices of the registry
/// via gpu::coop_panel_factor / coop_syrk_update_d2h (p2p panel
/// broadcast, phase barriers, per-device D2H update slices). Every
/// stream of the mesh waits on `after` (the latest finish of the plan
/// predecessors) before its first operation; returns the time of the
/// last device event across the mesh.
double rl_gpu_compute_coop(FactorContext& ctx, gpu::Device& dev,
                           gpu::Stream& coop_s, index_t s, RlGpuSlot& slot,
                           std::vector<double>& u,
                           std::span<const gpu::CoopPeer> peers,
                           gpu::Event after) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t w = symb.sn_width(s);
  const index_t r = symb.sn_nrows(s);
  const index_t below = r - w;
  double* panel = ctx.sn_values(s);
  const std::size_t ucount =
      static_cast<std::size_t>(below) * static_cast<std::size_t>(below);

  ctx.count_gpu_supernode(0);
  ctx.count_coop_supernode();
  // The owner's share of the cooperative timeline rides `coop_s`, a
  // dedicated device-0 stream — NOT the slot's compute stream — so the
  // all-to-all phase fences never capture an unrelated supernode that
  // later reuses a pool slot. Only the slot's copy stream touches the
  // mesh: the buffer-reuse hazard against the previous coop occupant's
  // panel download, and this occupant's own async panel download.
  coop_s.wait(slot.copy.record());
  coop_s.wait(after);
  for (const gpu::CoopPeer& p : peers) p.stream->wait(after);
  const std::size_t entries = static_cast<std::size_t>(r) * w;
  gpu::coop_copy_h2d(dev, coop_s, peers, slot.panel, 0, panel, entries);
  try {
    gpu::coop_panel_factor(dev, coop_s, peers, w, slot.panel, 0, r);
  } catch (const NotPositiveDefinite& e) {
    throw NotPositiveDefinite(symb.sn_begin(s) + e.column());
  }
  slot.copy.wait(coop_s.record());
  gpu::coop_copy_d2h(dev, slot.copy, peers, panel, slot.panel, 0, entries);
  if (below > 0) {
    u.resize(ucount);
    gpu::coop_syrk_update_d2h(dev, coop_s, peers, below, w, slot.panel, w,
                              r, slot.update, u.data());
  }
  double last = std::max(coop_s.tail(), slot.copy.tail());
  for (const gpu::CoopPeer& p : peers) {
    last = std::max({last, p.stream->tail(), p.copy->tail()});
  }
  return last;
}

/// Fused batched device pipeline for a BATCH of small, mutually
/// independent leaf supernodes [first, last]: ONE packed H2D of every
/// member panel, one fused batched POTRF+TRSM launch, one packed D2H of
/// the factored panels, one fused batched SYRK launch into a packed
/// update buffer, one packed D2H, then CPU assembly in ascending member
/// order — the sequential per-target accumulation order, so results stay
/// bitwise identical to the unbatched path. The launch latency and
/// transfer latency are paid once per batch instead of once per
/// supernode (gpu::perf_model batched-kernel cost). Synchronization is
/// device-side only, like rl_gpu_compute.
///
/// Fan-both (`ubuf_out` != nullptr): the batch is DECOUPLED — each
/// member's update matrix is kept in (*ubuf_out)[member] for the separate
/// BATCHSCATTER/AGGREGATE consumers, and only in-batch targets are
/// assembled here (device-eligible batches are independent leaves, so
/// that range is empty). Same kernels in the same order either way.
void rl_gpu_batch(FactorContext& ctx, gpu::Device& dev, index_t dev_ord,
                  index_t first, index_t last, RlGpuSlot& slot,
                  std::vector<std::vector<double>>* ubuf_out = nullptr) {
  const SymbolicFactor& symb = ctx.symb;
  std::vector<gpu::BatchedPanel> panels;
  panels.reserve(static_cast<std::size_t>(last - first + 1));
  std::size_t panel_total = 0, update_total = 0;
  for (index_t s = first; s <= last; ++s) {
    const index_t w = symb.sn_width(s);
    const index_t r = symb.sn_nrows(s);
    const std::size_t below = static_cast<std::size_t>(r - w);
    panels.push_back({w, r, panel_total, update_total, symb.sn_begin(s)});
    panel_total += static_cast<std::size_t>(r) * w;
    update_total += below * below;
    ctx.count_gpu_supernode(dev_ord);
  }

  // Pack the member panels into one staging area: one transfer for the
  // whole batch (the staging memcpy is a simulation detail, like the
  // eager data movement of the async copies).
  std::vector<double> stage(panel_total);
  for (std::size_t i = 0; i < panels.size(); ++i) {
    const gpu::BatchedPanel& p = panels[i];
    std::memcpy(stage.data() + p.panel_off,
                ctx.sn_values(first + static_cast<index_t>(i)),
                static_cast<std::size_t>(p.r) * p.w * sizeof(double));
  }
  // Slot-reuse hazard: chain behind the previous occupant's async D2H.
  slot.compute.wait(slot.copy.record());
  gpu::copy_h2d(dev, slot.compute, slot.panel, 0, stage.data(),
                panel_total, /*async=*/true);
  gpu::batched_panel_factor(dev, slot.compute, panels, slot.panel);
  ctx.count_fused_launch();
  slot.copy.wait(slot.compute.record());
  gpu::copy_d2h(dev, slot.copy, stage.data(), slot.panel, 0,
                panel_total, /*async=*/true);
  for (std::size_t i = 0; i < panels.size(); ++i) {
    const gpu::BatchedPanel& p = panels[i];
    std::memcpy(ctx.sn_values(first + static_cast<index_t>(i)),
                stage.data() + p.panel_off,
                static_cast<std::size_t>(p.r) * p.w * sizeof(double));
  }
  if (update_total == 0) return;

  gpu::batched_syrk_update(dev, slot.compute, panels, slot.panel,
                           slot.update);
  ctx.count_fused_launch();
  std::vector<double> ustage(update_total);
  gpu::copy_d2h(dev, slot.compute, ustage.data(), slot.update, 0,
                update_total, /*async=*/true);
  double entries = 0.0;
  for (std::size_t i = 0; i < panels.size(); ++i) {
    const gpu::BatchedPanel& p = panels[i];
    if (p.r == p.w) continue;
    const index_t m = first + static_cast<index_t>(i);
    const double* u = ustage.data() + p.update_off;
    if (ubuf_out != nullptr) {
      const std::size_t below = static_cast<std::size_t>(p.r - p.w);
      (*ubuf_out)[m].assign(u, u + below * below);
      entries += rl_assemble_range(ctx, m, u, first, last);
    } else {
      entries += rl_assemble(ctx, m, u);
    }
  }
  ctx.account_assembly(entries);  // one fused assembly region per batch
}

void run_rl_sequential(FactorContext& ctx) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t ns = symb.num_supernodes();
  const FactorOptions& opts = ctx.opts;
  const bool gpu_enabled = opts.exec == Execution::kGpuHybrid ||
                           opts.exec == Execution::kGpuOnly;

  // Host scratch for the update matrix, preallocated at the largest size
  // (the paper preallocates "so that it can store the largest update
  // matrix during the factorization").
  const RlSizes sz = rl_sizes(ctx, gpu_enabled);
  std::vector<double> u_host(sz.host_update_max);

  // Device buffers are preallocated once; this is where RL fails on the
  // nlpkkt120 class (update matrix larger than device memory).
  gpu::Stream compute(ctx.dev);
  gpu::Stream copy(ctx.dev);
  gpu::DeviceBuffer panel_dev;
  gpu::DeviceBuffer update_dev;
  if (sz.gpu_panel_max > 0) {
    panel_dev = gpu::DeviceBuffer(ctx.dev, sz.gpu_panel_max);
    ctx.gpu_stream_pairs = 1;
  }
  if (sz.gpu_update_max > 0) {
    update_dev = gpu::DeviceBuffer(ctx.dev, sz.gpu_update_max);
  }

  for (index_t s = 0; s < ns; ++s) {
    if (!ctx.on_gpu(s)) {
      const index_t w = symb.sn_width(s);
      const index_t r = symb.sn_nrows(s);
      const index_t below = r - w;
      const std::size_t ucount =
          static_cast<std::size_t>(below) * static_cast<std::size_t>(below);
      cpu_factor_panel(ctx, s);
      if (below > 0) {
        std::memset(u_host.data(), 0, ucount * sizeof(double));
        ctx.cpu_syrk(below, w, ctx.sn_values(s) + w, r, u_host.data(),
                     below);
        ctx.account_assembly(rl_assemble(ctx, s, u_host.data()));
      }
      continue;
    }
    rl_gpu_supernode(ctx, s, compute, copy, panel_dev, update_dev,
                     u_host.data());
  }
  ctx.dev.synchronize();
}

void run_rl_scheduled(FactorContext& ctx) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t ns = symb.num_supernodes();
  const bool hybrid = ctx.opts.exec == Execution::kGpuHybrid;
  const ExecutionResources* res = ctx.res;

  // Scheduler: the injected per-session one (reset and rebuilt each
  // run), or a per-call local — identical semantics either way.
  TaskScheduler own_sched;
  TaskScheduler& sched =
      (res != nullptr && res->sched != nullptr) ? *res->sched : own_sched;
  if (&sched != &own_sched) sched.reset();

  // The shared task-graph shape: COMPUTE/SCATTER/BATCH nodes + readiness
  // and per-target chain edges, with small sibling subtrees coalesced
  // into BATCH nodes (see symbolic/exec_plan.*), plus the
  // subtree-partitioned ready-queue assignment. Served from the service's
  // pattern cache when injected, built per call otherwise — the same
  // build_planned_graph either way, so both paths execute the same graph.
  std::optional<PlannedGraph> own_plan;
  const PlannedGraph* pg =
      (res != nullptr && res->planned != nullptr)
          ? res->planned
          : &own_plan.emplace(
                build_planned_graph(symb, ctx.opts, ctx.workers));
  sched.set_partitions(pg->partitions);
  const ExecutionPlan& plan = pg->plan;
  const auto nodes = plan.nodes();
  ctx.batches_formed = plan.batches_formed();
  ctx.supernodes_batched = plan.supernodes_batched();

  // Packed buffer needs of one batch (panel entries, update entries).
  auto batch_needs = [&](const PlanNode& n) {
    std::size_t p = 0, u = 0;
    for (index_t s = n.batch_first; s <= n.batch_last; ++s) {
      const std::size_t below = static_cast<std::size_t>(symb.sn_below(s));
      p += static_cast<std::size_t>(symb.sn_entries(s));
      u += below * below;
    }
    return std::pair<std::size_t, std::size_t>{p, u};
  };
  // Device-batch decision, deterministic from the plan and options alone:
  // a batch of independent leaves goes to the device when its COMBINED
  // entries cross the hybrid threshold — individually its members were
  // GPU-hostile, but one fused launch pair amortizes the latency the
  // threshold exists to avoid. (Bitwise identity is unaffected: the
  // device runs the same deterministic kernels in the same order.)
  std::vector<char> batch_on_dev(nodes.size(), 0);

  // Effective ordinal a plan-node device assignment resolves to on THIS
  // run (mod-folded when the plan was built for more devices than the
  // registry provides).
  const std::size_t ndev = hybrid ? ctx.ndev : 1;
  auto ord = [&ctx](index_t dv) {
    return static_cast<std::size_t>(ctx.device_ordinal(dv));
  };

  // Per-device, per-GPU-task buffer needs (supernodes AND device
  // batches), ranked descending: slot k only has to host the k-th
  // largest panel / update among CONCURRENTLY in-flight GPU tasks on
  // that device, so N slots cost far less than N copies of the largest —
  // that is what lets several pairs fit under a tight device memory cap.
  // Needs never mix devices, so one device's pool sizing cannot be
  // inflated by another shard's supernodes.
  // Cooperative spine supernodes (plan ordinal -1, with more than one
  // device engaged) bypass the pools entirely: they get ONE dedicated
  // slot sized for the largest coop panel/update, so the all-to-all
  // fences of the cooperative mesh never couple into pool-slot reuse by
  // unrelated supernodes. With one device the -1 clamps to ordinal 0 and
  // they run the plain pipeline from the ordinary pool.
  const bool coop_run = hybrid && ndev > 1;
  std::size_t coop_panel_max = 0, coop_update_max = 0;
  std::vector<std::vector<std::size_t>> panel_need(ndev), update_need(ndev);
  if (hybrid) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const PlanNode& n = nodes[i];
      if (n.kind == PlanNodeKind::kCompute && n.on_gpu) {
        const std::size_t below =
            static_cast<std::size_t>(symb.sn_below(n.sn));
        if (coop_run && n.device < 0) {
          coop_panel_max = std::max(
              coop_panel_max,
              static_cast<std::size_t>(symb.sn_entries(n.sn)));
          coop_update_max = std::max(coop_update_max, below * below);
          continue;
        }
        panel_need[ord(n.device)].push_back(
            static_cast<std::size_t>(symb.sn_entries(n.sn)));
        update_need[ord(n.device)].push_back(below * below);
      } else if (n.kind == PlanNodeKind::kBatch && n.device_eligible) {
        const auto [p, u] = batch_needs(n);
        if (static_cast<offset_t>(p) < ctx.opts.gpu_threshold_rl) continue;
        batch_on_dev[i] = 1;
        panel_need[ord(n.device)].push_back(p);
        update_need[ord(n.device)].push_back(u);
      }
    }
    for (std::size_t d = 0; d < ndev; ++d) {
      std::sort(panel_need[d].rbegin(), panel_need[d].rend());
      std::sort(update_need[d].rbegin(), update_need[d].rend());
    }
  }

  // Device-resident factor storage (opt-in): the paper's multi-GPU
  // runs keep each shard's factor panels resident on its device for the
  // whole factorization, so one device must hold the SUM of its assigned
  // GPU panels — the 40 GB bound a nlpkkt120-class factor breaks on one
  // device and fits when two devices each hold half. Modeled as one
  // held reservation per engaged device; DeviceOutOfMemory propagates
  // exactly where the real allocation would fail.
  std::vector<gpu::DeviceBuffer> resident;
  if (hybrid && ctx.opts.device_resident_factor) {
    const std::span<const index_t> devof = pg->device_of;
    std::vector<std::size_t> resident_entries(ndev, 0);
    for (index_t s = 0; s < ns; ++s) {
      if (!ctx.on_gpu(s)) continue;
      // Cooperative spine supernodes (ordinal -1) have no single home;
      // their resident panels are charged block-cyclically so the spine
      // weight spreads across the registry instead of piling onto the
      // owner.
      const std::size_t d =
          devof.empty() ? 0
          : devof[s] < 0 ? static_cast<std::size_t>(s) % ndev
                         : ord(devof[s]);
      resident_entries[d] += static_cast<std::size_t>(symb.sn_entries(s));
    }
    for (std::size_t d = 0; d < ndev; ++d) {
      if (resident_entries[d] == 0) continue;
      resident.emplace_back(ctx.device(static_cast<index_t>(d)),
                            resident_entries[d]);
    }
  }

  // Bounded per-device slot pools: one compute/copy stream pair + device
  // buffers per in-flight GPU task, on the device the planner assigned.
  // A pool shrinks (down to one pair) when its device cannot fit every
  // slot; if not even one fits, the DeviceOutOfMemory (with its
  // available-byte report) propagates rather than leaving GPU tasks
  // waiting on an empty pool forever. With an injected arena each pool
  // is cached under the pattern+options key MIXED with its device
  // ordinal, so cached slots can never migrate across devices; ordinal 0
  // keeps the legacy key, so single-device sessions rehit their old
  // pools. Each device also gets its own scheduler counting resource, so
  // one saturated device never blocks another's issue.
  using RlSlotPool = gpu::SlotPool<RlGpuSlot>;
  constexpr std::uint64_t kRlPoolTag = 0x524c2d504f4f4cull;  // "RL-POOL"
  constexpr std::uint64_t kDevKeyMix = 0x9e3779b97f4a7c15ull;

  // Cooperative spine support: when the plan marks supernodes with
  // device ordinal -1 (and more than one device is engaged), their
  // kernels are block-distributed across the whole registry. Device 0
  // (the owner, where the numerics run) gets one dedicated stream for
  // its share of the cooperative timeline, every peer device one more;
  // the coop chain's buffers live in a dedicated single-slot pool
  // (arena-cached under its own tag) with its own scheduler resource —
  // the spine is a chain, so one in-flight coop task is the natural cap.
  // Allocated BEFORE the per-device pools: the coop slot is mandatory
  // (no smaller fallback exists for the spine), so the shrinkable pools
  // below must size themselves around it, not the other way round —
  // otherwise a run that fits on one device could OOM on four.
  const bool has_coop = coop_run && coop_panel_max > 0;
  std::vector<std::unique_ptr<gpu::Stream>> coop_streams;
  std::vector<gpu::CoopPeer> coop_peers;
  std::shared_ptr<RlSlotPool> coop_pool;
  std::size_t coop_res = TaskScheduler::kNoResource;
  if (has_coop) {
    for (std::size_t d = 0; d < ndev; ++d) {
      gpu::Device& dv = ctx.device(static_cast<index_t>(d));
      coop_streams.push_back(std::make_unique<gpu::Stream>(dv));
      if (d > 0) {
        gpu::Stream* mesh = coop_streams.back().get();
        coop_streams.push_back(std::make_unique<gpu::Stream>(dv));
        coop_peers.push_back(
            {&dv, mesh, coop_streams.back().get(), static_cast<int>(d)});
      }
    }
    constexpr std::uint64_t kCoopPoolTag = 0x434f4f502d534c54ull;  // "COOP"
    auto make_coop_pool = [&] {
      return std::make_shared<RlSlotPool>(1, [&](std::size_t) {
        return std::make_unique<RlGpuSlot>(ctx.device(0), coop_panel_max,
                                           coop_update_max);
      });
    };
    coop_pool = (res != nullptr && res->arena != nullptr)
                    ? res->arena->pool<RlSlotPool>(
                          res->pool_key ^ kCoopPoolTag, make_coop_pool)
                    : make_coop_pool();
    coop_res = sched.add_resource(1);
  }

  std::vector<std::shared_ptr<RlSlotPool>> pools(ndev);
  std::vector<std::size_t> gpu_res(ndev, TaskScheduler::kNoResource);
  std::size_t pool_slots = 0;
  for (std::size_t d = 0; d < ndev; ++d) {
    const std::size_t num_gpu = panel_need[d].size();
    if (num_gpu == 0) continue;
    gpu::Device& dv = ctx.device(static_cast<index_t>(d));
    const std::size_t want = std::min(ctx.gpu_slot_budget(), num_gpu);
    auto make_pool = [&] {
      return std::make_shared<RlSlotPool>(want, [&, d](std::size_t k) {
        return std::make_unique<RlGpuSlot>(dv, panel_need[d][k],
                                           update_need[d][k]);
      });
    };
    const std::uint64_t key =
        res != nullptr ? res->pool_key ^ kRlPoolTag ^ (kDevKeyMix * d) : 0;
    try {
      pools[d] = (res != nullptr && res->arena != nullptr)
                     ? res->arena->pool<RlSlotPool>(key, make_pool)
                     : make_pool();
    } catch (const gpu::DeviceOutOfMemory&) {
      // Device 0 under extreme pressure: the mandatory coop slot left no
      // room for even one regular slot. When the coop slot also covers
      // device 0's largest regular need, share it — regular tasks and
      // the spine serialize on the one slot (acquire blocks), degrading
      // throughput instead of failing a run that fits on fewer devices.
      if (d != 0 || !has_coop || coop_panel_max < panel_need[0][0] ||
          coop_update_max < update_need[0][0]) {
        throw;
      }
      pools[0] = coop_pool;
      gpu_res[0] = sched.add_resource(1);
      continue;
    }
    gpu_res[d] = sched.add_resource(pools[d]->size());
    pool_slots += pools[d]->size();
  }
  ctx.gpu_stream_pairs = static_cast<index_t>(pool_slots);
  if (has_coop) ctx.gpu_stream_pairs += 1;

  // Per-supernode update buffers: allocated by COMPUTE (the device path
  // fills them through its final D2H), consumed and released by SCATTER.
  // Batches carry their own transient scratch instead.
  std::vector<std::vector<double>> ubuf(static_cast<std::size_t>(ns));

  // --- fan-both support --------------------------------------------------
  const bool fan_both = plan.fan_both();
  const std::span<const index_t> devof = pg->device_of;

  // One cross-device assembly hop: `entries` produced on effective
  // ordinal `src`, assembled into a target panel on `dst`. The hops are
  // deterministic from the plan, so they are priced at build time; with
  // a link topology each pair charges its actual src→dst link.
  struct CrossHop {
    index_t src = 0;
    index_t dst = 0;
    double entries = 0.0;
  };
  // Cross-device separator assembly of s's update slice aimed at target
  // `only_t` (or at EVERY off-device GPU target when only_t < 0):
  // entries whose contributor was produced on one device while the
  // target panel lives on another pay an explicit modeled hop, returned
  // per destination ordinal (src is fixed — s's device). Cooperative
  // supernodes (ordinal -1) assemble on the host from their per-device
  // D2H slices, so neither side of a coop pair pays the hop.
  auto cross_slice = [&](index_t s,
                         index_t only_t) -> std::vector<CrossHop> {
    std::vector<CrossHop> hops;
    if (ndev <= 1 || devof.empty() || !ctx.on_gpu(s) || devof[s] < 0) {
      return hops;
    }
    const index_t w = symb.sn_width(s);
    const index_t below = symb.sn_below(s);
    const auto rows = symb.sn_rows(s);
    const std::size_t sd = ord(devof[s]);
    index_t b0 = 0;
    while (b0 < below) {
      const index_t target = symb.col_to_sn(rows[w + b0]);
      index_t b1 = b0;
      while (b1 < below && symb.col_to_sn(rows[w + b1]) == target) ++b1;
      if ((only_t < 0 || target == only_t) && ctx.on_gpu(target) &&
          devof[target] >= 0 && ord(devof[target]) != sd) {
        const index_t td = static_cast<index_t>(ord(devof[target]));
        const double xe = 0.5 * static_cast<double>(b1 - b0) *
                          static_cast<double>((below - b0) +
                                              (below - b1 + 1));
        bool merged = false;
        for (CrossHop& h : hops) {
          if (h.dst == td) {
            h.entries += xe;
            merged = true;
            break;
          }
        }
        if (!merged) {
          hops.push_back({static_cast<index_t>(sd), td, xe});
        }
      }
      b0 = b1;
    }
    return hops;
  };
  // Charges every hop of a build-time-priced list (captured by value in
  // the task lambdas).
  const auto account_hops = [&ctx](const std::vector<CrossHop>& hops) {
    for (const CrossHop& h : hops) {
      ctx.account_cross_device(h.src, h.dst, h.entries);
    }
  };

  // Fan-both splits one supernode's assembly across several consumer
  // tasks (per-target scatters, batch-scatters, aggregation groups), so
  // ubuf release moves from the single scatter's eager swap to a
  // reference count: one reference per consumer task per member, plus
  // one held by a batch task itself for each of its members (covering
  // members whose every target is in-batch). The last consumer frees.
  std::vector<std::atomic<index_t>> uref(
      fan_both ? static_cast<std::size_t>(ns) : 0);
  if (fan_both) {
    for (const PlanNode& n : nodes) {
      if (n.kind == PlanNodeKind::kScatter && n.target >= 0) {
        uref[n.sn].fetch_add(1, std::memory_order_relaxed);
      } else if (n.kind == PlanNodeKind::kBatchScatter ||
                 n.kind == PlanNodeKind::kBatch) {
        for (index_t m = n.batch_first; m <= n.batch_last; ++m) {
          uref[m].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    for (index_t g = 0; g < plan.num_aggs(); ++g) {
      for (const index_t m : plan.agg_members(g)) {
        uref[m].fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  auto unref = [&uref, &ubuf](index_t s) {
    if (uref[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::vector<double>().swap(ubuf[s]);
    }
  };

  // Aggregation slabs: (offset, value) pair storage per group, allocated
  // by AGGREGATE, replayed and freed by APPLY.
  std::vector<std::vector<offset_t>> slab_offs(
      fan_both ? static_cast<std::size_t>(plan.num_aggs()) : 0);
  std::vector<std::vector<double>> slab_vals(
      fan_both ? static_cast<std::size_t>(plan.num_aggs()) : 0);

  // Device-fused aggregation: when EVERY member of a group runs on the
  // same device, the gather is one fused batched device kernel over the
  // members' update buffers (already resident there) followed by one
  // D2H of the slab — modeled on a dedicated per-device aggregation
  // stream so gathers overlap the compute pipeline. The numerics still
  // run host-side (the device executes eagerly on host memory anyway),
  // so the bits never depend on where the gather was priced.
  std::vector<std::unique_ptr<gpu::Stream>> agg_streams(
      fan_both && hybrid ? ndev : 0);
  auto agg_fused_device = [&](index_t g) -> index_t {
    if (!fan_both || !hybrid) return -1;
    index_t d = -1;
    for (const index_t m : plan.agg_members(g)) {
      if (!ctx.on_gpu(m)) return -1;
      index_t md = 0;
      if (!devof.empty()) {
        if (devof[m] < 0) return -1;
        md = static_cast<index_t>(ord(devof[m]));
      }
      if (d < 0) {
        d = md;
      } else if (d != md) {
        return -1;
      }
    }
    return d;
  };

  // Every node records its modeled finish; a device node's first
  // operation waits on its data-flow predecessors' latest finish, so
  // only nodes the plan's data flow leaves independent overlap on the
  // modeled timeline.
  PlanClock clock(plan, symb, ctx.makespan0);

  // --- map plan nodes to scheduler tasks ---------------------------------
  std::vector<std::size_t> task_of(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& n = nodes[i];
    switch (n.kind) {
      case PlanNodeKind::kCompute: {
        const index_t s = n.sn;
        const index_t w = symb.sn_width(s);
        const index_t r = symb.sn_nrows(s);
        const index_t below = r - w;
        if (n.on_gpu) {
          // Device COMPUTE: acquires a slot big enough for this
          // supernode from ITS OWN device's pool, runs the §III pipeline
          // there, leaves the update matrix in ubuf[s]. The per-device
          // resource token caps in-flight GPU tasks at that pool's size,
          // so waiting for a FITTING slot is rare and always bounded
          // (slot 0 fits everything).
          const std::size_t need_panel = static_cast<std::size_t>(r) * w;
          const std::size_t need_update =
              static_cast<std::size_t>(below) *
              static_cast<std::size_t>(below);
          const std::size_t dord = ord(n.device);
          if (has_coop && n.device < 0) {
            task_of[i] = sched.add_task(
                n.priority,
                clock.device_task(
                    ctx, i,
                    [&ctx, &coop_pool, &coop_streams, &coop_peers, &ubuf,
                     s](gpu::Event after) {
                      auto lease = coop_pool->acquire(
                          [](const RlGpuSlot&) { return true; });
                      return rl_gpu_compute_coop(
                          ctx, ctx.device(0), *coop_streams[0], s, *lease,
                          ubuf[s], coop_peers, after);
                    }),
                coop_res, n.queue);
            break;
          }
          task_of[i] = sched.add_task(
              n.priority,
              clock.device_task(
                  ctx, i,
                  [&ctx, &pools, &ubuf, s, need_panel, need_update,
                   dord](gpu::Event after) {
                    auto lease = pools[dord]->acquire(
                        [&](const RlGpuSlot& slot) {
                          return slot.panel.size() >= need_panel &&
                                 slot.update.size() >= need_update;
                        });
                    lease->compute.wait(after);
                    rl_gpu_compute(ctx,
                                   ctx.device(static_cast<index_t>(dord)),
                                   static_cast<index_t>(dord), s, *lease,
                                   ubuf[s]);
                    return last_event(*lease);
                  }),
              gpu_res[dord], n.queue);
        } else {
          task_of[i] = sched.add_task(
              n.priority,
              clock.host_task(ctx, i, [&ctx, &ubuf, s, w, r, below] {
                cpu_factor_panel(ctx, s);
                if (below > 0) {
                  const std::size_t ucount =
                      static_cast<std::size_t>(below) *
                      static_cast<std::size_t>(below);
                  ubuf[s].assign(ucount, 0.0);
                  ctx.cpu_syrk(below, w, ctx.sn_values(s) + w, r,
                               ubuf[s].data(), below);
                }
              }),
              TaskScheduler::kNoResource, n.queue);
        }
        break;
      }
      case PlanNodeKind::kScatter: {
        const index_t s = n.sn;
        // Cross-device separator assembly: the slice of s's update
        // matrix aimed at GPU targets on OTHER devices pays an explicit
        // D2H→H2D hop (cross_slice; deterministic from the plan, so
        // priced here at build time). The assembly itself still runs on
        // the host in the plan's fixed per-target ascending order — the
        // hop changes the modeled timeline, never the bits.
        if (fan_both && n.target >= 0) {
          // Fan-both per-target split: assemble ONLY this target's
          // segment, then drop one ubuf reference.
          const index_t t = n.target;
          const std::vector<CrossHop> xhops = cross_slice(s, t);
          task_of[i] = sched.add_task(
              n.priority,
              clock.host_task(ctx, i,
                              [&ctx, &ubuf, unref, account_hops, s, t,
                               xhops] {
                                account_hops(xhops);
                                ctx.account_assembly(rl_assemble_range(
                                    ctx, s, ubuf[s].data(), t, t));
                                unref(s);
                              }),
              TaskScheduler::kNoResource, n.queue);
          break;
        }
        const std::vector<CrossHop> xhops = cross_slice(s, -1);
        task_of[i] = sched.add_task(
            n.priority,
            clock.host_task(ctx, i, [&ctx, &ubuf, account_hops, s, xhops] {
              account_hops(xhops);
              ctx.account_assembly(rl_assemble(ctx, s, ubuf[s].data()));
              std::vector<double>().swap(ubuf[s]);  // free eagerly
            }),
            TaskScheduler::kNoResource, n.queue);
        break;
      }
      case PlanNodeKind::kBatch: {
        const index_t first = n.batch_first;
        const index_t last = n.batch_last;
        if (batch_on_dev[i]) {
          const auto [need_panel, need_update] = batch_needs(n);
          const std::size_t dord = ord(n.device);
          task_of[i] = sched.add_task(
              n.priority,
              clock.device_task(
                  ctx, i,
                  [&ctx, &pools, &ubuf, unref, first, last, need_panel,
                   need_update, dord, fan_both](gpu::Event after) {
                    auto lease = pools[dord]->acquire(
                        [&](const RlGpuSlot& slot) {
                          return slot.panel.size() >= need_panel &&
                                 slot.update.size() >= need_update;
                        });
                    lease->compute.wait(after);
                    rl_gpu_batch(ctx,
                                 ctx.device(static_cast<index_t>(dord)),
                                 static_cast<index_t>(dord), first, last,
                                 *lease, fan_both ? &ubuf : nullptr);
                    if (fan_both) {
                      for (index_t m = first; m <= last; ++m) unref(m);
                    }
                    return last_event(*lease);
                  }),
              gpu_res[dord], n.queue);
          break;
        }
        // Fused CPU sweep: compute then assemble each member in
        // ascending order — exactly the sequential driver's pattern
        // (shared scratch, memset per member), so the bits match it.
        // BatchScope gathers the members' modeled costs and charges the
        // batch as one fused call group + one fused assembly region.
        // Fan-both decouples the batch: each member's update matrix goes
        // to ubuf[member] (kept for the out-of-batch BATCHSCATTER and
        // AGGREGATE consumers) and only in-batch targets are assembled
        // here — the same entries in the same order the plain sweep
        // would have applied them.
        task_of[i] = sched.add_task(
            n.priority,
            clock.host_task(ctx, i, [&ctx, &ubuf, unref, first, last,
                                     fan_both] {
              FactorContext::BatchScope batch(ctx);
              const SymbolicFactor& sb = ctx.symb;
              std::vector<double> u;
              if (!fan_both) {
                std::size_t umax = 0;
                for (index_t s = first; s <= last; ++s) {
                  const std::size_t below =
                      static_cast<std::size_t>(sb.sn_below(s));
                  umax = std::max(umax, below * below);
                }
                u.resize(umax);
              }
              for (index_t s = first; s <= last; ++s) {
                const index_t w = sb.sn_width(s);
                const index_t r = sb.sn_nrows(s);
                const index_t below = r - w;
                cpu_factor_panel(ctx, s);
                if (below > 0) {
                  const std::size_t ucount =
                      static_cast<std::size_t>(below) *
                      static_cast<std::size_t>(below);
                  if (fan_both) {
                    ubuf[s].assign(ucount, 0.0);
                    ctx.cpu_syrk(below, w, ctx.sn_values(s) + w, r,
                                 ubuf[s].data(), below);
                    ctx.account_assembly(rl_assemble_range(
                        ctx, s, ubuf[s].data(), first, last));
                  } else {
                    std::memset(u.data(), 0, ucount * sizeof(double));
                    ctx.cpu_syrk(below, w, ctx.sn_values(s) + w, r,
                                 u.data(), below);
                    ctx.account_assembly(rl_assemble(ctx, s, u.data()));
                  }
                }
              }
              if (fan_both) {
                for (index_t s = first; s <= last; ++s) unref(s);
              }
            }),
            TaskScheduler::kNoResource, n.queue);
        break;
      }
      case PlanNodeKind::kBatchScatter: {
        // Fan-both decoupled batch assembly: every batch member's slice
        // into ONE out-of-batch target, in ascending member order — the
        // contiguous run of the target's contributor chain the batch
        // replaced. Each member drops one ubuf reference.
        const index_t first = n.batch_first;
        const index_t last = n.batch_last;
        const index_t t = n.target;
        // Members of one batch may live on different devices: merge
        // their hops per (src,dst) pair so each pair charges its link.
        std::vector<CrossHop> xhops;
        for (index_t m = first; m <= last; ++m) {
          for (const CrossHop& h : cross_slice(m, t)) {
            bool merged = false;
            for (CrossHop& o : xhops) {
              if (o.src == h.src && o.dst == h.dst) {
                o.entries += h.entries;
                merged = true;
                break;
              }
            }
            if (!merged) xhops.push_back(h);
          }
        }
        task_of[i] = sched.add_task(
            n.priority,
            clock.host_task(ctx, i, [&ctx, &ubuf, unref, account_hops,
                                     first, last, t, xhops] {
              account_hops(xhops);
              double entries = 0.0;
              for (index_t m = first; m <= last; ++m) {
                if (!ubuf[m].empty()) {
                  entries +=
                      rl_assemble_range(ctx, m, ubuf[m].data(), t, t);
                }
                unref(m);
              }
              ctx.account_assembly(entries);
            }),
            TaskScheduler::kNoResource, n.queue);
        break;
      }
      case PlanNodeKind::kAggregate: {
        // Fan-both gather: every group member's update slice for the
        // target streams into a private (offset, value) slab in the
        // exact serial per-entry order. Groups of one target run
        // CONCURRENTLY — this is the parallelizable half of the
        // assembly the per-target chain used to serialize.
        const index_t g = n.agg;
        const index_t t = n.target;
        const offset_t total = plan.agg_entries(g);
        const index_t fd = agg_fused_device(g);
        if (fd >= 0 && !agg_streams[static_cast<std::size_t>(fd)]) {
          agg_streams[static_cast<std::size_t>(fd)] =
              std::make_unique<gpu::Stream>(ctx.device(fd));
        }
        gpu::Stream* astream =
            fd >= 0 ? agg_streams[static_cast<std::size_t>(fd)].get()
                    : nullptr;
        const std::size_t bytes = static_cast<std::size_t>(total) *
                                  (sizeof(offset_t) + sizeof(double));
        auto gather = [&ctx, &plan, &ubuf, &slab_offs, &slab_vals, unref, g,
                       t, total, bytes] {
          slab_offs[g].resize(static_cast<std::size_t>(total));
          slab_vals[g].resize(static_cast<std::size_t>(total));
          ctx.note_agg_alloc(bytes);
          offset_t k = 0;
          for (const index_t m : plan.agg_members(g)) {
            if (!ubuf[m].empty()) {
              k += rl_gather_target(ctx, m, ubuf[m].data(), t,
                                    slab_offs[g].data() + k,
                                    slab_vals[g].data() + k);
            }
            unref(m);
          }
          SPCHOL_CHECK(k == total, "aggregation slab entry count mismatch");
        };
        if (astream == nullptr) {
          task_of[i] = sched.add_task(
              n.priority, clock.host_task(ctx, i, [&ctx, gather, total] {
                gather();
                ctx.account_aggregation(static_cast<double>(total));
              }),
              TaskScheduler::kNoResource, n.queue);
          break;
        }
        // Every member's update buffer already lives on device fd: model
        // the gather as one fused batched kernel plus one slab D2H on the
        // device's aggregation stream. The host-side gather IS the
        // numerics (the simulated device computes on host memory), so
        // only the price moves to the device timeline.
        task_of[i] = sched.add_task(
            n.priority,
            clock.device_task(
                ctx, i,
                [&ctx, &plan, gather, g, total, bytes, fd,
                 astream](gpu::Event after) {
                  gather();
                  gpu::Device& dv = ctx.device(fd);
                  const auto& pm = dv.model();
                  const double kt = pm.gpu_batched_kernel_seconds(
                      static_cast<double>(total), plan.agg_members(g).size());
                  astream->wait(after);
                  dv.enqueue(*astream, kt, static_cast<double>(total));
                  dv.note_kernel(kt);
                  const double dt = pm.d2h_seconds(static_cast<double>(bytes));
                  dv.enqueue(*astream, dt);
                  dv.note_d2h(bytes, dt);
                  ctx.count_fused_launch();
                  ctx.account_aggregation(0.0);  // count the buffer only
                  return astream->tail();
                }),
            TaskScheduler::kNoResource, n.queue);
        break;
      }
      case PlanNodeKind::kApply: {
        // Fan-both replay: fold one slab into the target panel
        // sequentially — `panel[offs[k]] += vals[k]` in slab order, so
        // the APPLY chain concatenation reproduces the serial ascending
        // accumulation bit for bit. Per-position fold order is all that
        // determinism needs, so the modeled cost may still assume the
        // standard parallel assembly region (partition by panel offset).
        const index_t g = n.agg;
        const index_t t = n.target;
        const offset_t total = plan.agg_entries(g);
        // One aggregated cross-device hop PER SOURCE DEVICE replaces the
        // per-contributor hops: the pre-folded slab ships each distinct
        // panel offset once per producing device, so every source
        // ordinal's price is the UNION footprint of ITS cross-device
        // members' slices — bounded above by the trapezoid of the union
        // row set (computed below against the target's panel rows), by
        // the per-member sum (disjoint members), and by the panel
        // itself. Sibling subtree contributors into a shared separator
        // overlap heavily, which is exactly where this beats the
        // per-contributor pricing — and the per-source split lets each
        // hop charge its actual src→dst link.
        struct SrcUnion {
          index_t src = 0;
          double sum = 0.0;
          std::vector<char> in_col, in_row;
        };
        std::vector<SrcUnion> unions;
        for (const index_t m : plan.agg_members(g)) {
          const std::vector<CrossHop> ch = cross_slice(m, t);
          if (ch.empty()) continue;  // only_t fixed: at most one hop
          const auto trows = symb.sn_rows(t);
          SrcUnion* su = nullptr;
          for (SrcUnion& u : unions) {
            if (u.src == ch[0].src) {
              su = &u;
              break;
            }
          }
          if (su == nullptr) {
            unions.push_back({ch[0].src,
                              0.0,
                              std::vector<char>(trows.size(), 0),
                              std::vector<char>(trows.size(), 0)});
            su = &unions.back();
          }
          su->sum += ch[0].entries;
          const index_t wm = symb.sn_width(m);
          const index_t below = symb.sn_below(m);
          const auto mrows = symb.sn_rows(m);
          index_t b0 = 0;
          while (b0 < below && symb.col_to_sn(mrows[wm + b0]) != t) ++b0;
          index_t b1 = b0;
          while (b1 < below && symb.col_to_sn(mrows[wm + b1]) == t) ++b1;
          // Map m's rows from the segment start onward into panel
          // positions (both lists ascending): positions of the segment
          // itself are slab columns, everything from the segment start
          // is a slab row.
          std::size_t p = 0;
          for (index_t a = b0; a < below; ++a) {
            while (p < trows.size() && trows[p] != mrows[wm + a]) ++p;
            if (p >= trows.size()) break;
            su->in_row[p] = 1;
            if (a < b1) su->in_col[p] = 1;
          }
        }
        std::vector<CrossHop> xhops;
        const index_t tord =
            devof.empty() || devof[t] < 0
                ? 0
                : static_cast<index_t>(ord(devof[t]));
        for (const SrcUnion& u : unions) {
          const index_t wt = symb.sn_width(t);
          double tail = 0.0, union_bound = 0.0;
          for (std::size_t p = u.in_row.size(); p-- > 0;) {
            tail += static_cast<double>(u.in_row[p]);
            if (static_cast<index_t>(p) < wt && u.in_col[p] != 0) {
              union_bound += tail;
            }
          }
          const double xe =
              std::min({u.sum, union_bound,
                        static_cast<double>(symb.sn_entries(t))});
          if (xe > 0.0) xhops.push_back({u.src, tord, xe});
        }
        task_of[i] = sched.add_task(
            n.priority,
            clock.host_task(ctx, i, [&ctx, &slab_offs, &slab_vals,
                                     account_hops, g, t, total, xhops] {
              account_hops(xhops);
              double* panel = ctx.sn_values(t);
              const offset_t* offs = slab_offs[g].data();
              const double* vals = slab_vals[g].data();
              for (offset_t k = 0; k < total; ++k) {
                panel[offs[k]] += vals[k];
              }
              ctx.account_assembly(static_cast<double>(total));
              ctx.count_apply();
              const std::size_t bytes =
                  static_cast<std::size_t>(total) *
                  (sizeof(offset_t) + sizeof(double));
              std::vector<offset_t>().swap(slab_offs[g]);
              std::vector<double>().swap(slab_vals[g]);
              ctx.note_agg_free(bytes);
            }),
            TaskScheduler::kNoResource, n.queue);
        break;
      }
    }
  }
  {
    const auto edges = plan.edges();
    const auto echain = plan.edge_chain();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      sched.add_edge(task_of[edges[e].first], task_of[edges[e].second],
                     echain[e] != 0);
    }
  }

  // Memory throttle: at most ~K update buffers in flight. The edge
  // target's compute may not start until the K-back scatter has freed
  // its buffer. Plain RL has one SCATTER per source in ascending order,
  // so all edges go forward in supernode order and no cycle can form;
  // fan-both has SEVERAL consumers per source (per-target scatters,
  // batch-scatters), so an edge is added only when the window spans
  // strictly increasing source supernodes — every ancestor of a
  // consumer task involves supernodes <= its source, so a forward-only
  // edge can never close a cycle. AGGREGATE/APPLY don't participate:
  // their slabs are tracked by the aggregation-bytes counters and freed
  // by the APPLY chain regardless.
  struct ThrottleEntry {
    std::size_t consumer_task;
    std::size_t compute_task;
    index_t src;
  };
  std::vector<ThrottleEntry> throttled;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    index_t src;
    if (nodes[i].kind == PlanNodeKind::kScatter) {
      src = nodes[i].sn;
    } else if (nodes[i].kind == PlanNodeKind::kBatchScatter) {
      src = nodes[i].batch_first;
    } else {
      continue;
    }
    throttled.push_back({task_of[i], task_of[plan.compute_node(src)], src});
  }
  const std::size_t kWindow = 2 * ctx.workers + 2 + pool_slots;
  for (std::size_t j = kWindow; j < throttled.size(); ++j) {
    if (throttled[j - kWindow].src < throttled[j].src) {
      sched.add_edge(throttled[j - kWindow].consumer_task,
                     throttled[j].compute_task);
    }
  }

  // Drain on the injected persistent crew (caller participates as one
  // extra worker) or on per-call dedicated threads. Execution-order
  // freedom is bitwise-neutral by construction, so both produce the same
  // factors.
  ctx.sched_stats = (res != nullptr && res->crew != nullptr)
                        ? sched.run_on(*res->crew)
                        : sched.run(ctx.workers);
  // Task-graph makespans replayed from the measured per-task durations:
  // the order-independent basis for comparing plan SHAPES (the deferred
  // host-clock fold below is a shape-blind sum).
  ctx.modeled_task_serial_seconds = sched.modeled_makespan(1);
  ctx.modeled_task_parallel_seconds = sched.modeled_makespan(ctx.workers);
  ctx.flush_deferred();
  ctx.dev.wait_event({clock.latest_host()});
  for (std::size_t d = 0; d < ndev; ++d) {
    ctx.device(static_cast<index_t>(d)).synchronize();
  }
}

}  // namespace

void run_rl(FactorContext& ctx) {
  if (ctx.scheduled) {
    run_rl_scheduled(ctx);
  } else {
    run_rl_sequential(ctx);
  }
}

}  // namespace spchol::detail
