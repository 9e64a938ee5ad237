// archbench: one repetition of one archival benchmark workload.
//
//   archbench --workload <cloud_rw|lincos_refresh|live_migrate> --seed N
//             [--rep R] [--scale F] [--trace 0|1] [--trace-out FILE]
//             [--tamper-digest]
//
// Each repetition is its own process: one client thread driving a closed
// loop of public Archive / MigrationEngine / Doctor calls over generated
// inputs that depend only on (seed, rep). It prints one JSON object on
// stdout holding the per-call samples, the phase sums and the per-layer
// counts; run.py pools repetitions into the reported metrics. Call times
// are scaled to the reference host speed (reference.h).
//
// --trace 1 wraps every public call in a benchmark-owned span, then runs
// the layer probes on this repetition's own objects and writes all spans
// as a Chrome trace (--trace-out). --tamper-digest corrupts one put-time
// digest so the correctness gate must fire (the smoke test's check).
//
// Exit codes: 0 ok, 2 bad arguments, 3 correctness gate, 1 other error.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "archive/doctor.h"
#include "archive/migration.h"
#include "archive/workload.h"
#include "bench_util.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"
#include "obs/export.h"
#include "probes.h"
#include "reference.h"

namespace archbench {
namespace {

using aegis::Bytes;
using aegis::ObjectId;

// Taken during static initialization: setup_s runs from here (process
// start) to the first timed call, and is scaled by the reference measured
// here and at the end of set-up.
const Clock::time_point g_process_start = Clock::now();
const double g_process_start_ref_us = reference_us();

/// Wall time `raw_ms` scaled to the reference host speed, given the
/// reference kernel's time measured before and after it (reference.h).
double scale_to_reference(double raw_ms, double ref_before_us,
                          double ref_after_us) {
  return raw_ms * kReferenceNominalUs / ((ref_before_us + ref_after_us) / 2);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned rep = 0;
  double scale = 1.0;
  bool trace = false;
  std::string trace_out;
  bool tamper_digest = false;
};

/// Per-repetition input seed: the same (seed, rep) always yields the same
/// objects, fault timeline and op order (splitmix64 finalizer).
std::uint64_t rep_seed(std::uint64_t seed, unsigned rep) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + rep + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

unsigned scaled(unsigned n, double scale) {
  const double v = n * scale;
  return v < 1 ? 1u : static_cast<unsigned>(v);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  return 0.0;
}

/// One archive over one cluster plus everything the benchmark measures
/// about the calls made against it.
class Harness {
 public:
  Harness(const Options& opt, const aegis::ArchivalPolicy& policy,
          std::uint64_t seed, aegis::Tracer* tracer)
      : span_prefix_("bench." + opt.workload + "."),
        cluster_(12, policy.channel, seed),
        rng_(seed ^ 0xa5a5a5a5ULL),
        tsa_(rng_),
        archive_(cluster_, policy, registry_, tsa_, rng_),
        uploads_(cluster_.obs().metrics().counter("cluster.upload.count")),
        downloads_(cluster_.obs().metrics().counter("cluster.download.count")),
        tracer_(tracer) {
    // Benchmark spans carry this cluster's virtual epoch while it lives.
    if (tracer_) tracer_->set_epoch_source([this] { return cluster_.now(); });
  }
  ~Harness() {
    if (tracer_) tracer_->set_epoch_source(nullptr);
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  aegis::Cluster& cluster() { return cluster_; }
  aegis::Archive& archive() { return archive_; }
  const std::vector<ObjectId>& stored() const { return stored_; }
  void set_faults_on(bool on) { faults_on_ = on; }

  /// Marks the end of set-up; the next call is the first timed one.
  void begin_timed_phase() {
    const double raw_ms = ms_since(g_process_start);
    setup_s_ = scale_to_reference(raw_ms, g_process_start_ref_us,
                                  reference_us()) / 1e3;
    virtual0_ = cluster_.simulated_ms();
    spans0_ = cluster_.obs().tracer().started();
  }
  void end_timed_phase() {
    virtual_ms_ = cluster_.simulated_ms() - virtual0_;
  }

  /// Untimed put (set-up preload). A failure here is an error.
  void preload(const aegis::WorkloadItem& item) {
    archive_.put(item.id, item.data);
    remember(item);
  }

  // Every attempted call, failed or not, adds its wall and virtual time
  // to its samples and sums, so that a call which fails fast after
  // retrying never reads as a speed-up. Only completed calls add bytes.
  // Wall times are scaled to the reference host speed (see call()).

  void put(const aegis::WorkloadItem& item) {
    const std::uint64_t conv0 = conversations();
    const std::size_t tap0 = cluster_.wiretap().size();
    const double v0 = cluster_.simulated_ms();
    double ms = 0;
    const bool ok = call("put", [&] { archive_.put(item.id, item.data); }, &ms);
    put_ms_.push_back(ms);
    put_vms_.push_back(cluster_.simulated_ms() - v0);
    put_conversations_ += conversations() - conv0;
    const auto& tap = cluster_.wiretap();
    for (std::size_t i = tap0; i < tap.size(); ++i)
      for (const Bytes& frame : tap[i].transcript.frames)
        put_wire_bytes_ += frame.size();
    if (!ok) {
      ++put_failed_;
      return;
    }
    put_bytes_ += item.data.size();
    remember(item);
  }

  /// Timed get; the SHA-256 check against the put-time digest is inside
  /// the timed region.
  void get(const ObjectId& id) {
    const std::uint64_t conv0 = conversations();
    const double v0 = cluster_.simulated_ms();
    bool match = false;
    std::size_t size = 0;
    double ms = 0;
    const bool ok = call("get", [&] {
      const Bytes out = archive_.get(id);
      size = out.size();
      match = aegis::ct_equal(aegis::Sha256::hash(out), digests_.at(id));
    }, &ms);
    get_ms_.push_back(ms);
    get_vms_.push_back(cluster_.simulated_ms() - v0);
    get_conversations_ += conversations() - conv0;
    if (!ok) {
      ++get_failed_;
      return;
    }
    if (!match) throw GateFailure("get returned wrong bytes for " + id);
    get_bytes_ += size;
  }

  /// One maintenance call (refresh, migration step). Returns false when
  /// it failed under faults.
  template <class Fn>
  bool maintain(const char* op, Fn&& fn) {
    const double v0 = cluster_.simulated_ms();
    double ms = 0;
    const bool ok = call(op, fn, &ms);
    maint_ms_.push_back(ms);
    maint_virtual_ms_ += cluster_.simulated_ms() - v0;
    return ok;
  }

  /// One doctor slice; returns true when it completed a pass.
  bool doctor_step(aegis::Doctor& doctor) {
    double ms = 0;
    bool wrapped = false;
    call("doctor_step", [&] { wrapped = doctor.step().pass_completed; }, &ms);
    doctor_ms_.push_back(ms);
    return wrapped;
  }

  /// One whole doctor pass; counted as maintenance when it is the
  /// workload's only maintenance.
  void doctor_pass(aegis::Doctor& doctor, bool is_maintenance) {
    const double v0 = cluster_.simulated_ms();
    const std::size_t n0 = doctor_ms_.size();
    while (!doctor_step(doctor)) {
    }
    if (!is_maintenance) return;
    maint_ms_.insert(maint_ms_.end(), doctor_ms_.begin() + n0,
                     doctor_ms_.end());
    maint_virtual_ms_ += cluster_.simulated_ms() - v0;
  }

  void advance_epoch() {
    auto span = span_for("advance_epoch");
    cluster_.advance_epoch();
  }

  /// Final durability gate: every stored object reads back intact.
  void verify_all() {
    for (const ObjectId& id : stored_) {
      Bytes out;
      try {
        out = archive_.get(id);
      } catch (const aegis::Error& e) {
        throw GateFailure("object " + id + " is stranded: " + e.what());
      }
      if (!aegis::ct_equal(aegis::Sha256::hash(out), digests_.at(id)))
        throw GateFailure("final read-back of " + id + " returned wrong bytes");
    }
  }

  void set_maint_logical_bytes(std::uint64_t b) { maint_logical_bytes_ = b; }
  std::uint64_t logical_bytes() const {
    return archive_.storage_report().logical_bytes;
  }

  /// Per-layer counts read from the program's own counters.
  void layer(const std::string& name, double v) { layers_.emplace_back(name, v); }

  JsonObject report(const aegis::Doctor& doctor) {
    const auto& stats = cluster_.stats();
    const auto& io = archive_.io_stats();
    const aegis::MetricsSnapshot snap = cluster_.obs().metrics().snapshot();
    auto counter = [&](const char* name) {
      const auto* e = snap.find(name);
      return e ? e->value : 0.0;
    };
    const aegis::StorageReport storage = archive_.storage_report();
    const double ops = static_cast<double>(attempted_);

    layer("node.conversations_per_put",
          put_ms_.empty() ? 0.0 : double(put_conversations_) / put_ms_.size());
    layer("node.conversations_per_get",
          get_ms_.empty() ? 0.0 : double(get_conversations_) / get_ms_.size());
    layer("node.wire_bytes_per_user_byte",
          put_bytes_ ? double(put_wire_bytes_) / put_bytes_ : 0.0);
    layer("node.wiretap_records", double(cluster_.wiretap().size()));
    layer("node.transfer.dropped", counter("cluster.transfer.dropped"));
    layer("node.transfer.corrupted", counter("cluster.transfer.corrupted"));
    layer("node.breaker.quarantines", counter("cluster.breaker.quarantines"));
    layer("node.virtual_ms", virtual_ms_);
    layer("archive.put.virtual_ms_p50", percentile(put_vms_, 0.5));
    layer("archive.get.virtual_ms_p50", percentile(get_vms_, 0.5));
    layer("archive.io.upload_retries", double(io.upload_retries));
    layer("archive.io.download_retries", double(io.download_retries));
    layer("archive.io.upload_failures", double(io.upload_failures));
    layer("archive.io.download_failures", double(io.download_failures));
    layer("archive.storage_overhead", storage.overhead());
    layer("maint.virtual_share",
          virtual_ms_ > 0 ? maint_virtual_ms_ / virtual_ms_ : 0.0);
    layer("migrate.stalls", counter("archive.migrate.stalls"));
    layer("doctor.shards_repaired", double(doctor.state().shards_repaired));
    layer("doctor.unrecoverable", double(doctor.state().unrecoverable));
    layer("protocol.refresh_messages", double(stats.refresh_messages));
    layer("protocol.refresh_bytes", double(stats.refresh_bytes));
    layer("obs.spans_per_op",
          ops ? double(cluster_.obs().tracer().started() - spans0_) / ops : 0.0);
    layer("obs.metric_series", double(snap.entries.size()));
    layer("obs.ledger_records", double(cluster_.obs().ledger().size()));

    JsonObject layers;
    for (const auto& [name, v] : layers_) layers.num(name, v);

    double doctor_total = 0;
    for (double ms : doctor_ms_) doctor_total += ms;
    double maint_total = 0;
    for (double ms : maint_ms_) maint_total += ms;
    double put_total = 0, get_total = 0;
    for (double ms : put_ms_) put_total += ms;
    for (double ms : get_ms_) get_total += ms;

    JsonObject out;
    out.num("attempted", attempted_)
        .num("host_slowdown", scaled_ms_ > 0 ? raw_ms_ / scaled_ms_ : 1.0)
        .num("failed", failed_)
        .num("put_failed", put_failed_)
        .num("get_failed", get_failed_)
        .num("setup_s", setup_s_)
        .num("peak_rss_mb", peak_rss_mb())
        .array("put_ms", put_ms_)
        .array("get_ms", get_ms_)
        .array("maint_ms", maint_ms_)
        .array("doctor_ms", doctor_ms_)
        .num("put_bytes", put_bytes_)
        .num("put_s", put_total / 1e3)
        .num("get_bytes", get_bytes_)
        .num("get_s", get_total / 1e3)
        .num("maint_bytes", maint_logical_bytes_)
        .num("maint_s", maint_total / 1e3)
        .num("scrub_objects", doctor.state().objects_scanned)
        .num("scrub_s", doctor_total / 1e3)
        .num("virtual_ms", virtual_ms_)
        .num("logical_bytes", std::uint64_t{storage.logical_bytes})
        .raw("layers", layers.str());
    return out;
  }

  /// Corrupts one recorded digest: the next read of that object must trip
  /// the gate.
  void tamper_digest() {
    if (!digests_.empty()) digests_.begin()->second[0] ^= 0x01;
  }

 private:
  std::unique_ptr<aegis::TraceSpan> span_for(const char* op) {
    if (!tracer_) return nullptr;
    return std::make_unique<aegis::TraceSpan>(*tracer_, span_prefix_ + op);
  }

  /// Runs one public call, timed and (when tracing) inside a span; sets
  /// *ms whether or not it succeeds. A program error on a fault-free
  /// workload is a gate failure; under injected faults it counts as a
  /// failed op.
  ///
  /// *ms is the call's wall time scaled to the reference host speed: the
  /// reference kernel runs right before and right after the call, outside
  /// the timed region, and the call's time is multiplied by the nominal
  /// reference time over the mean of the two.
  template <class Fn>
  bool call(const char* op, Fn&& fn, double* ms) {
    ++attempted_;
    auto span = span_for(op);
    const double ref0 = reference_us();
    const Clock::time_point t0 = Clock::now();
    bool ok = true;
    try {
      fn();
    } catch (const aegis::Error& e) {
      if (!faults_on_)
        throw GateFailure(std::string(op) + " failed without faults: " +
                          e.what());
      ok = false;
    }
    const double raw = ms_since(t0);
    *ms = scale_to_reference(raw, ref0, reference_us());
    raw_ms_ += raw;
    scaled_ms_ += *ms;
    if (!ok) ++failed_;
    return ok;
  }

  void remember(const aegis::WorkloadItem& item) {
    digests_[item.id] = aegis::Sha256::hash(item.data);
    stored_.push_back(item.id);
  }

  std::uint64_t conversations() const {
    return uploads_.value() + downloads_.value();
  }

  const std::string span_prefix_;  // bench.<workload>.
  aegis::Cluster cluster_;
  aegis::SchemeRegistry registry_;
  aegis::ChaChaRng rng_;
  aegis::TimestampAuthority tsa_;
  aegis::Archive archive_;
  aegis::Counter& uploads_;
  aegis::Counter& downloads_;
  aegis::Tracer* tracer_;  // null unless tracing
  bool faults_on_ = false;

  std::map<ObjectId, Bytes> digests_;
  std::vector<ObjectId> stored_;

  std::uint64_t attempted_ = 0, failed_ = 0, put_failed_ = 0, get_failed_ = 0;
  double setup_s_ = 0;
  double raw_ms_ = 0, scaled_ms_ = 0;  // every call, unscaled and scaled
  double virtual0_ = 0, virtual_ms_ = 0, maint_virtual_ms_ = 0;
  std::uint64_t spans0_ = 0;
  std::vector<double> put_ms_, get_ms_, put_vms_, get_vms_, maint_ms_,
      doctor_ms_;
  std::uint64_t put_bytes_ = 0, get_bytes_ = 0, put_wire_bytes_ = 0;
  std::uint64_t put_conversations_ = 0, get_conversations_ = 0;
  std::uint64_t maint_logical_bytes_ = 0;
  std::vector<std::pair<std::string, double>> layers_;
};

template <class T>
void shuffle(std::vector<T>& v, aegis::SimRng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.uniform(i)]);
}

/// Object-size distribution of a workload: log-normal, clamped.
struct SizeMix {
  double median;
  double sigma;
  std::size_t max;
};
constexpr SizeMix kSmallObjects{16 * 1024, 1.0, 256 * 1024};
constexpr SizeMix kLargeObjects{64 * 1024, 0.8, 1 << 20};

/// Standard normal quantile, by bisection on erfc.
double normal_quantile(double p) {
  double lo = -10, hi = 10;
  for (int i = 0; i < 80; ++i) {
    const double mid = (lo + hi) / 2;
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
  }
  return (lo + hi) / 2;
}

/// `n` objects with ids wl-<first>.. in put order. Sizes are a stratified
/// sample of the log-normal: one seeded draw from each of n
/// equal-probability strata, so every repetition carries the whole
/// distribution, tail included, instead of a random handful of its
/// giants. Alternate strata hold structured (text-like) and random
/// content. WorkloadGenerator makes each object's bytes; the put order is
/// a seeded shuffle.
std::vector<aegis::WorkloadItem> generate(const SizeMix& mix, unsigned n,
                                          unsigned first, std::uint64_t seed) {
  aegis::SimRng rng(seed);
  std::vector<aegis::WorkloadItem> items;
  for (unsigned i = 0; i < n; ++i) {
    const double p = (i + rng.uniform_double()) / n;
    const double size = std::clamp(
        mix.median * std::exp(mix.sigma * normal_quantile(p)), 64.0,
        static_cast<double>(mix.max));
    aegis::WorkloadConfig cfg;
    cfg.object_count = 1;
    cfg.median_size = size;
    cfg.size_sigma = 0;
    cfg.min_size = cfg.max_size = static_cast<std::size_t>(size);
    cfg.text_fraction = i % 2 == 0 ? 1.0 : 0.0;
    cfg.seed = rng.next_u64();
    items.push_back(aegis::WorkloadGenerator(cfg).next());
  }
  shuffle(items, rng);
  for (unsigned i = 0; i < n; ++i) items[i].id = "wl-" + std::to_string(first + i);
  return items;
}

/// The objects' ids in a seeded shuffled order (the read order).
std::vector<ObjectId> read_order(const std::vector<aegis::WorkloadItem>& items,
                                 std::uint64_t seed) {
  std::vector<ObjectId> ids;
  for (const auto& item : items) ids.push_back(item.id);
  aegis::SimRng rng(seed);
  shuffle(ids, rng);
  return ids;
}

/// The workload's probe inputs: a prefix of its objects, capped so the
/// probes stay a small fraction of the traced run.
std::vector<Bytes> probe_objects(const std::vector<aegis::WorkloadItem>& items) {
  constexpr std::uint64_t kBudget = 4u << 20;
  std::vector<Bytes> out;
  std::uint64_t total = 0;
  for (const auto& item : items) {
    if (total >= kBudget) break;
    total += item.data.size();
    out.push_back(item.data);
  }
  return out;
}

struct Outcome {
  JsonObject result;
  ProbeInputs probes;
};

// --------------------------------------------------------------- cloud_rw
// CloudBaseline (AES-256-CTR, RS(6,9), TLS, client vault, hash-chain
// stamps) on 12 nodes, no faults: put every object, one doctor scrub
// pass, then read every object once in shuffled order.
Outcome cloud_rw(const Options& opt, std::uint64_t seed,
                 aegis::Tracer* tracer) {
  const auto items = generate(kSmallObjects, scaled(200, opt.scale), 0, seed);
  const auto order = read_order(items, seed + 1);

  const aegis::ArchivalPolicy policy = aegis::ArchivalPolicy::CloudBaseline();
  Harness h(opt, policy, seed, tracer);
  aegis::Doctor doctor(h.archive());
  h.begin_timed_phase();
  for (const auto& item : items) h.put(item);
  if (opt.tamper_digest) h.tamper_digest();
  h.set_maint_logical_bytes(h.logical_bytes());
  h.doctor_pass(doctor, true);
  for (const ObjectId& id : order) h.get(id);
  h.end_timed_phase();
  return {h.report(doctor),
          {probe_objects(items), policy, policy.ciphers, seed}};
}

// --------------------------------------------------------- lincos_refresh
// Lincos (Shamir(3,5) over QKD, Pedersen stamps, proactive refresh): put
// every object, one refresh() pass, one doctor scrub pass, then read
// every object back.
Outcome lincos_refresh(const Options& opt, std::uint64_t seed,
                       aegis::Tracer* tracer) {
  const auto items = generate(kLargeObjects, scaled(64, opt.scale), 0, seed);
  const auto order = read_order(items, seed + 1);

  const aegis::ArchivalPolicy policy = aegis::ArchivalPolicy::Lincos();
  Harness h(opt, policy, seed, tracer);
  aegis::Doctor doctor(h.archive());
  h.begin_timed_phase();
  for (const auto& item : items) h.put(item);
  if (opt.tamper_digest) h.tamper_digest();
  h.set_maint_logical_bytes(h.logical_bytes());
  h.maintain("refresh", [&] { h.archive().refresh(); });
  h.doctor_pass(doctor, false);
  for (const ObjectId& id : order) h.get(id);
  h.end_timed_phase();
  return {h.report(doctor), {probe_objects(items), policy, {}, seed}};
}

// ----------------------------------------------------------- live_migrate
// CloudBaseline over a preloaded archive under seeded link faults and
// bit-rot. Each epoch: advance_epoch, one MigrationEngine::step()
// (AES-256-CTR -> ChaCha20 re-encryption) until the run is done, one
// Doctor::step(), 8 gets dealt from a seeded shuffle of the stored objects
// and 4 puts of new ones.
// Runs a fixed number of epochs past the migration's completion.
Outcome live_migrate(const Options& opt, std::uint64_t seed,
                     aegis::Tracer* tracer) {
  constexpr unsigned kGetsPerEpoch = 8, kPutsPerEpoch = 4;
  const unsigned preload = scaled(96, opt.scale);
  const unsigned post_epochs = scaled(12, opt.scale);
  aegis::ArchivalPolicy policy = aegis::ArchivalPolicy::CloudBaseline();
  policy.migrate_batch = 8;
  policy.scrub_batch = 8;
  // Room for the migration to take twice its fault-free step count.
  const unsigned max_epochs =
      2 * (preload / policy.migrate_batch + 2) + post_epochs;

  // The foreground puts: a stratified block sized for a fault-free run,
  // then a reserve in case faults stretch the migration.
  const unsigned expected_epochs =
      preload / policy.migrate_batch + 2 + post_epochs;
  const auto items = generate(kSmallObjects, preload, 0, seed);
  auto fresh = generate(kSmallObjects, expected_epochs * kPutsPerEpoch,
                        preload, seed + 3);
  const auto reserve = generate(
      kSmallObjects, (max_epochs - expected_epochs) * kPutsPerEpoch,
      preload + static_cast<unsigned>(fresh.size()), seed + 4);
  fresh.insert(fresh.end(), reserve.begin(), reserve.end());

  Harness h(opt, policy, seed, tracer);
  for (const auto& item : items) h.preload(item);
  if (opt.tamper_digest) h.tamper_digest();
  aegis::LinkFaults link;
  link.drop_prob = 0.02;
  link.corrupt_prob = 0.01;
  h.cluster().faults().set_link_faults(link);
  h.cluster().faults().set_bitrot(0.02);
  h.set_faults_on(true);
  const std::uint64_t migrated_bytes = h.logical_bytes();
  h.set_maint_logical_bytes(migrated_bytes);
  aegis::MigrationEngine migration(
      h.archive(), aegis::MigrationSpec{aegis::MigrationKind::kReencrypt,
                                        {aegis::SchemeId::kChaCha20}});
  aegis::Doctor doctor(h.archive());
  aegis::SimRng pick(seed + 2);
  std::vector<ObjectId> deck;

  h.begin_timed_phase();
  unsigned post = 0, step_failures = 0, next_fresh = 0;
  for (unsigned epoch = 0; epoch < max_epochs && post < post_epochs; ++epoch) {
    h.advance_epoch();
    if (migration.done()) {
      ++post;
    } else if (!h.maintain("migrate_step", [&] { migration.step(); })) {
      ++step_failures;
    }
    h.doctor_step(doctor);
    for (unsigned g = 0; g < kGetsPerEpoch; ++g) {
      // Reads deal from a seeded shuffle of everything stored, reshuffled
      // when spent, so every object is read about equally often.
      if (deck.empty()) {
        deck = h.stored();
        shuffle(deck, pick);
      }
      h.get(deck.back());
      deck.pop_back();
    }
    for (unsigned p = 0; p < kPutsPerEpoch; ++p) h.put(fresh[next_fresh++]);
  }
  h.end_timed_phase();
  if (!migration.done())
    throw GateFailure("migration did not complete within " +
                      std::to_string(max_epochs) + " epochs");

  // Durability gate: with the link faults off, every object reads back.
  h.cluster().faults().set_link_faults(aegis::LinkFaults{});
  h.verify_all();

  h.layer("migrate.io_multiple",
          double(migration.state().bytes_moved) / double(migrated_bytes));
  h.layer("migrate.step_failures", step_failures);
  return {h.report(doctor),
          {probe_objects(items), policy,
           {aegis::SchemeId::kAes256Ctr, aegis::SchemeId::kChaCha20}, seed}};
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--rep") o.rep = static_cast<unsigned>(std::stoul(value()));
    else if (a == "--scale") o.scale = std::stod(value());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--tamper-digest") o.tamper_digest = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.scale <= 0) throw std::invalid_argument("--scale must be positive");
  return o;
}

int run(const Options& opt) {
  const std::uint64_t seed = rep_seed(opt.seed, opt.rep);
  std::unique_ptr<aegis::Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<aegis::Tracer>(1 << 16);
  Outcome outcome;
  if (opt.workload == "cloud_rw")
    outcome = cloud_rw(opt, seed, tracer.get());
  else if (opt.workload == "lincos_refresh")
    outcome = lincos_refresh(opt, seed, tracer.get());
  else if (opt.workload == "live_migrate")
    outcome = live_migrate(opt, seed, tracer.get());
  else
    throw std::invalid_argument("unknown workload " + opt.workload);

  if (tracer) {
    // Probes run after the workload, so they never perturb its timings.
    JsonObject probes;
    for (const auto& [name, v] :
         run_probes(outcome.probes, *tracer, "bench." + opt.workload + "."))
      probes.num(name, v);
    outcome.result.raw("probes", probes.str());
    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out);
      out << aegis::to_chrome_trace(tracer->snapshot());
      if (!out) throw std::runtime_error("cannot write " + opt.trace_out);
    }
  }
  std::printf("%s\n", outcome.result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace archbench

int main(int argc, char** argv) {
  archbench::Options opt;
  try {
    opt = archbench::parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "archbench: %s\n", e.what());
    return 2;
  }
  try {
    return archbench::run(opt);
  } catch (const archbench::GateFailure& e) {
    std::fprintf(stderr, "archbench: CORRECTNESS GATE FAILED: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "archbench: error: %s\n", e.what());
    return 1;
  }
}
