// Simulated device runtime: memory accounting + OOM, stream FIFO
// semantics, event ordering, async overlap, transfer data integrity,
// device BLAS numerics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "spchol/dense/kernels.hpp"
#include "spchol/dense/reference.hpp"
#include "spchol/gpu/blas.hpp"
#include "spchol/support/rng.hpp"

namespace spchol::gpu {
namespace {

DeviceConfig small_config() {
  DeviceConfig cfg;
  cfg.memory_bytes = 1 << 20;  // 1 MiB
  return cfg;
}

TEST(DeviceMemory, AccountsAllocationsAndPeak) {
  Device dev(small_config());
  EXPECT_EQ(dev.mem_used(), 0u);
  {
    DeviceBuffer a(dev, 1000);
    EXPECT_EQ(dev.mem_used(), 8000u);
    {
      DeviceBuffer b(dev, 2000);
      EXPECT_EQ(dev.mem_used(), 24000u);
    }
    EXPECT_EQ(dev.mem_used(), 8000u);
  }
  EXPECT_EQ(dev.mem_used(), 0u);
  EXPECT_EQ(dev.mem_peak(), 24000u);
}

TEST(DeviceMemory, ThrowsOnExhaustionWithDetail) {
  Device dev(small_config());
  DeviceBuffer a(dev, 100000);  // 800 KB
  try {
    DeviceBuffer b(dev, 50000);  // 400 KB: over 1 MiB
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    EXPECT_EQ(e.requested(), 400000u);
    EXPECT_EQ(e.in_use(), 800000u);
    EXPECT_EQ(e.capacity(), std::size_t{1} << 20);
  }
  // The failed allocation must not leak accounting.
  EXPECT_EQ(dev.mem_used(), 800000u);
}

TEST(DeviceMemory, MoveTransfersOwnership) {
  Device dev(small_config());
  DeviceBuffer a(dev, 64);
  DeviceBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(dev.mem_used(), 64 * 8u);
  b.release();
  EXPECT_EQ(dev.mem_used(), 0u);
}

TEST(Stream, FifoOrderingAccumulatesTime) {
  Device dev;
  Stream s(dev);
  const double t1 = dev.model().h2d_seconds(8000);
  DeviceBuffer buf(dev, 1000);
  std::vector<double> host(1000, 1.0);
  copy_h2d(dev, s, buf, 0, host.data(), 1000, /*async=*/true);
  copy_h2d(dev, s, buf, 0, host.data(), 1000, /*async=*/true);
  // Two ops on one stream serialize: tail ≥ 2 transfer durations.
  EXPECT_GE(s.tail(), 2 * t1 - 1e-12);
  // Async issue barely advances the host.
  EXPECT_LT(dev.host_time(), t1);
  s.synchronize();
  EXPECT_GE(dev.host_time(), s.tail() - 1e-15);
}

TEST(Stream, IndependentStreamsOverlap) {
  Device dev;
  Stream s1(dev), s2(dev);
  DeviceBuffer b1(dev, 100000), b2(dev, 100000);
  std::vector<double> host(100000, 2.0);
  copy_h2d(dev, s1, b1, 0, host.data(), 100000, /*async=*/true);
  copy_h2d(dev, s2, b2, 0, host.data(), 100000, /*async=*/true);
  const double dur = dev.model().h2d_seconds(800000);
  // Both finish ≈ one transfer after their (nearly identical) issue times.
  EXPECT_LT(std::abs(s1.tail() - s2.tail()),
            2 * dev.model().issue_overhead + 1e-12);
  EXPECT_LT(dev.makespan(), 2 * dur);
}

TEST(Stream, EventMakesStreamsWait) {
  Device dev;
  Stream compute(dev), copy(dev);
  DeviceBuffer buf(dev, 4096);
  // A long kernel on compute; copy must start only after it.
  zero_fill(dev, compute, buf, 0, 4096);
  const Event e = compute.record();
  copy.wait(e);
  std::vector<double> host(4096);
  copy_d2h(dev, copy, host.data(), buf, 0, 4096, /*async=*/true);
  EXPECT_GE(copy.tail(),
            e.time + dev.model().d2h_seconds(4096 * 8) - 1e-12);
}

TEST(Transfers, RoundTripPreservesData) {
  Device dev;
  Stream s(dev);
  Rng rng(5);
  std::vector<double> src(5000);
  for (auto& v : src) v = rng.uniform(-10, 10);
  DeviceBuffer buf(dev, 6000);
  copy_h2d(dev, s, buf, 500, src.data(), 5000, /*async=*/false);
  std::vector<double> dst(5000, 0.0);
  copy_d2h(dev, s, dst.data(), buf, 500, 5000, /*async=*/false);
  EXPECT_EQ(src, dst);
}

TEST(Transfers, OutOfRangeThrows) {
  Device dev;
  Stream s(dev);
  DeviceBuffer buf(dev, 10);
  std::vector<double> host(20, 0.0);
  EXPECT_THROW(copy_h2d(dev, s, buf, 5, host.data(), 6, false), Error);
  EXPECT_THROW(copy_d2h(dev, s, host.data(), buf, 8, 3, false), Error);
}

TEST(Transfers, StatsAccumulate) {
  Device dev;
  Stream s(dev);
  DeviceBuffer buf(dev, 100);
  std::vector<double> host(100, 1.0);
  copy_h2d(dev, s, buf, 0, host.data(), 100, false);
  copy_d2h(dev, s, host.data(), buf, 0, 50, false);
  EXPECT_EQ(dev.stats().num_h2d, 1u);
  EXPECT_EQ(dev.stats().num_d2h, 1u);
  EXPECT_EQ(dev.stats().h2d_bytes, 800u);
  EXPECT_EQ(dev.stats().d2h_bytes, 400u);
  EXPECT_GT(dev.stats().h2d_seconds, 0.0);
}

TEST(DeviceBlas, KernelsMatchHostKernels) {
  Device dev;
  Stream s(dev);
  Rng rng(9);
  const index_t n = 60, k = 40;
  std::vector<double> a(static_cast<std::size_t>(n) * k);
  for (auto& v : a) v = rng.uniform(-1, 1);
  std::vector<double> c_host(static_cast<std::size_t>(n) * n, 0.0);
  std::vector<double> c_dev(c_host);

  dense::syrk_lower_nt(n, k, a.data(), n, c_host.data(), n);

  DeviceBuffer abuf(dev, a.size());
  DeviceBuffer cbuf(dev, c_dev.size());
  copy_h2d(dev, s, abuf, 0, a.data(), a.size(), false);
  zero_fill(dev, s, cbuf, 0, c_dev.size());
  syrk_lower_nt(dev, s, n, k, abuf, 0, n, cbuf, 0, n);
  copy_d2h(dev, s, c_dev.data(), cbuf, 0, c_dev.size(), false);

  for (std::size_t i = 0; i < c_dev.size(); ++i) {
    EXPECT_EQ(c_dev[i], c_host[i]);  // bitwise: same deterministic kernels
  }
  EXPECT_EQ(dev.stats().num_kernels, 2u);  // zero_fill + syrk
  EXPECT_GT(dev.stats().kernel_seconds, 0.0);
}

TEST(DeviceBlas, PotrfThrowsOnIndefinite) {
  Device dev;
  Stream s(dev);
  std::vector<double> a = {4.0, 2.0, 2.0, -9.0};  // 2x2, indefinite
  DeviceBuffer buf(dev, 4);
  copy_h2d(dev, s, buf, 0, a.data(), 4, false);
  EXPECT_THROW(potrf_lower(dev, s, 2, buf, 0, 2), NotPositiveDefinite);
}

TEST(DeviceBlas, FullFactorPanelOnDevice) {
  // potrf + trsm on a device panel reproduces the host result bitwise.
  Rng rng(11);
  const index_t w = 30, r = 90;
  std::vector<double> panel(static_cast<std::size_t>(r) * w);
  for (auto& v : panel) v = rng.uniform(-1, 1);
  for (index_t j = 0; j < w; ++j) panel[j + static_cast<std::size_t>(j) * r] = 50.0;
  std::vector<double> host_panel(panel);

  dense::potrf_lower(w, host_panel.data(), r);
  dense::trsm_right_lower_trans(r - w, w, host_panel.data(), r,
                                host_panel.data() + w, r);

  Device dev;
  Stream s(dev);
  DeviceBuffer buf(dev, panel.size());
  copy_h2d(dev, s, buf, 0, panel.data(), panel.size(), false);
  potrf_lower(dev, s, w, buf, 0, r);
  trsm_right_lower_trans(dev, s, r - w, w, buf, 0, r, w, r);
  std::vector<double> out(panel.size());
  copy_d2h(dev, s, out.data(), buf, 0, out.size(), false);
  EXPECT_EQ(out, host_panel);
}

TEST(Device, MakespanJoinsHostAndStreams) {
  Device dev;
  Stream s(dev);
  DeviceBuffer buf(dev, 1 << 16);
  std::vector<double> host(1 << 16, 0.5);
  copy_h2d(dev, s, buf, 0, host.data(), host.size(), /*async=*/true);
  EXPECT_GT(s.tail(), dev.host_time());
  EXPECT_DOUBLE_EQ(dev.makespan(), s.tail());
  dev.advance_host(10.0);
  EXPECT_DOUBLE_EQ(dev.makespan(), dev.host_time());
}

TEST(Device, DestroyedStreamsRetireTheirWork) {
  // Regression: streams are short-lived per-task objects in the pooled
  // hybrid drivers. Destroying one must deregister it from the device
  // (no dangling pointer for synchronize()/makespan() to walk) while its
  // enqueued work stays in the retired-tail watermark.
  Device dev;
  std::vector<double> host(4096, 1.0);
  double tail = 0.0;
  {
    Stream s(dev);
    DeviceBuffer buf(dev, 4096);
    copy_h2d(dev, s, buf, 0, host.data(), 4096, /*async=*/true);
    tail = s.tail();
    EXPECT_GT(tail, 0.0);
    EXPECT_EQ(dev.num_live_streams(), 1u);
  }
  EXPECT_EQ(dev.num_live_streams(), 0u);
  // Churn more streams (created and destroyed before the device-level
  // synchronize), as the per-task pipeline does.
  for (int i = 0; i < 8; ++i) {
    Stream t(dev);
    (void)t;
  }
  EXPECT_EQ(dev.num_live_streams(), 0u);
  EXPECT_DOUBLE_EQ(dev.makespan(), tail);
  dev.synchronize();  // must not walk destroyed streams
  EXPECT_GE(dev.host_time(), tail);
}

TEST(Device, MakespanIsMaxOfHostAndStreamTailsNotSum) {
  // The kGpuHybrid accounting folds the modeled time of scheduler-run CPU
  // tasks into the host clock only after the task graph drains. CPU work
  // that overlapped device transfers must JOIN the stream tails in the
  // makespan, never add on top of them.
  Device dev;
  Stream s1(dev), s2(dev);
  DeviceBuffer b1(dev, 1 << 15), b2(dev, 1 << 15);
  std::vector<double> host(1 << 15, 1.0);
  copy_h2d(dev, s1, b1, 0, host.data(), host.size(), /*async=*/true);
  copy_h2d(dev, s2, b2, 0, host.data(), host.size(), /*async=*/true);
  const double tails = std::max(s1.tail(), s2.tail());

  // CPU-task time smaller than the transfer tails: fully hidden.
  dev.advance_host(0.25 * tails);
  ASSERT_LT(dev.host_time(), tails);
  EXPECT_DOUBLE_EQ(dev.makespan(), tails);
  dev.synchronize();
  EXPECT_DOUBLE_EQ(dev.host_time(), tails);  // joined, not summed

  // CPU-task time larger than the tails: the host dominates.
  dev.advance_host(2.0 * tails);
  EXPECT_DOUBLE_EQ(dev.makespan(), dev.host_time());
}

TEST(Device, OverlapSecondsAccumulateAcrossStreams) {
  Device dev;
  Stream s1(dev), s2(dev);
  DeviceBuffer b1(dev, 1 << 15), b2(dev, 1 << 15);
  std::vector<double> host(1 << 15, 1.0);
  copy_h2d(dev, s1, b1, 0, host.data(), host.size(), /*async=*/true);
  EXPECT_DOUBLE_EQ(dev.stats().overlap_seconds, 0.0);  // nothing else live
  copy_h2d(dev, s2, b2, 0, host.data(), host.size(), /*async=*/true);
  // The second transfer ran while the first stream still had work.
  EXPECT_GT(dev.stats().overlap_seconds, 0.0);
  EXPECT_LE(dev.stats().overlap_seconds, dev.stats().h2d_seconds);
}

TEST(Device, ConcurrentKernelsShareComputeThroughput) {
  // Two streams are one device: two saturating kernels issued together
  // cannot both run at the peak rate.
  Device dev;
  const PerfModel& m = dev.model();
  Stream s1(dev), s2(dev);
  const double flops = 1e10;
  const double start = dev.enqueue(s1, m.gpu_kernel_seconds(flops), flops);
  dev.enqueue(s2, m.gpu_kernel_seconds(flops), flops);
  EXPECT_GE(std::max(s1.tail(), s2.tail()) - start,
            2 * flops / (m.gpu_peak_gflops * 1e9));
}

TEST(Device, SmallKernelsStillOverlapAcrossStreams) {
  // Latency-bound kernels barely draw on the throughput budget, so their
  // launch and half-performance latency still overlap across streams.
  Device dev;
  const PerfModel& m = dev.model();
  Stream s1(dev), s2(dev);
  const double flops = 1e4;
  dev.enqueue(s1, m.gpu_kernel_seconds(flops), flops);
  dev.enqueue(s2, m.gpu_kernel_seconds(flops), flops);
  EXPECT_LT(dev.makespan(), 2 * m.gpu_kernel_seconds(flops));
}

namespace {

/// Minimal pool slot: one device allocation.
struct TestSlot {
  DeviceBuffer buf;
  TestSlot(Device& dev, std::size_t count) : buf(dev, count) {}
};

}  // namespace

TEST(SlotPool, DegradesGracefullyUnderMemoryPressure) {
  DeviceConfig cfg;
  cfg.memory_bytes = 100'000;  // fits 3 slots of 4000 doubles (32 KB each)
  Device dev(cfg);
  SlotPool<TestSlot> pool(8, [&](std::size_t) {
    return std::make_unique<TestSlot>(dev, 4000);
  });
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(dev.mem_used(), 3u * 4000 * sizeof(double));
}

TEST(SlotPool, ThrowsWhenNotEvenOneSlotFits) {
  // A zero-slot pool would hang every acquire() forever; the
  // DeviceOutOfMemory (with its available-bytes report) must escape.
  DeviceConfig cfg;
  cfg.memory_bytes = 1 << 10;
  Device dev(cfg);
  try {
    SlotPool<TestSlot> pool(4, [&](std::size_t) {
      return std::make_unique<TestSlot>(dev, 4000);
    });
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    EXPECT_EQ(e.requested(), 4000 * sizeof(double));
    EXPECT_EQ(e.available(), std::size_t{1} << 10);
  }
}

TEST(SlotPool, LeasesHandOutDistinctSlotsAndRecycle) {
  Device dev;
  SlotPool<TestSlot> pool(2, [&](std::size_t) {
    return std::make_unique<TestSlot>(dev, 16);
  });
  ASSERT_EQ(pool.size(), 2u);
  TestSlot* first = nullptr;
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    EXPECT_NE(&*a, &*b);
    first = &*a;
  }
  // Both leases returned; the pool serves again.
  auto c = pool.acquire();
  auto d = pool.acquire();
  EXPECT_TRUE(&*c == first || &*d == first);
}

TEST(SlotPool, RankedSlotsServeTheSmallestAdequateRotation) {
  // Ranked capacities (8, 4, 2): a small request may land on any fitting
  // slot, a large one must wait for slot 0. Consecutive small requests
  // rotate across the fitting slots rather than re-chaining onto one.
  Device dev;
  const std::size_t caps[3] = {8, 4, 2};
  SlotPool<TestSlot> pool(3, [&](std::size_t k) {
    return std::make_unique<TestSlot>(dev, caps[k]);
  });
  ASSERT_EQ(pool.size(), 3u);
  auto fits = [](std::size_t need) {
    return [need](const TestSlot& s) { return s.buf.size() >= need; };
  };
  {
    auto a = pool.acquire(fits(3));  // slot 0 or 1
    auto b = pool.acquire(fits(3));  // the other of {0, 1}
    EXPECT_NE(&*a, &*b);
    EXPECT_GE(a->buf.size(), 3u);
    EXPECT_GE(b->buf.size(), 3u);
    auto c = pool.acquire(fits(1));  // only slot 2 is left
    EXPECT_EQ(c->buf.size(), 2u);
  }
  auto big = pool.acquire(fits(8));  // only slot 0 qualifies
  EXPECT_EQ(big->buf.size(), 8u);
}

}  // namespace
}  // namespace spchol::gpu
