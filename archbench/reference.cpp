#include "reference.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace archbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRounds = 6000;  // about 18 us on an unshared core
constexpr int kRuns = 5;

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

volatile std::uint32_t g_sink;
volatile std::uint32_t g_seed = 0x6a09e667u;

/// SHA-256 compression rounds over register-generated message words: a
/// throughput-bound integer mix that touches no memory, so it leaves the
/// caches of the call it brackets alone.
double run_once_us() {
  std::uint32_t a = g_seed, b = 0xbb67ae85u, c = 0x3c6ef372u, d = 0xa54ff53au,
                e = 0x510e527fu, f = 0x9b05688cu, g = 0x1f83d9abu,
                h = 0x5be0cd19u, w = g_seed;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kRounds; ++i) {
    w = w * 0x9e3779b9u + 0x7f4a7c15u;
    const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                             ((e & f) ^ (~e & g)) + w + 0x428a2f98u;
    const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                             ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  g_sink = a ^ e;
  return us;
}

}  // namespace

double reference_us() {
  double runs[kRuns];
  for (double& r : runs) r = run_once_us();
  std::nth_element(runs, runs + kRuns / 2, runs + kRuns);
  return runs[kRuns / 2];
}

}  // namespace archbench
