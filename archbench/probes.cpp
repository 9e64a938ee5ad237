#include "probes.h"

#include <memory>
#include <optional>

#include "bench_util.h"
#include "channel/qkd_channel.h"
#include "channel/tls_channel.h"
#include "crypto/chacha20.h"
#include "crypto/cipher.h"
#include "crypto/sha256.h"
#include "erasure/codec_cache.h"
#include "integrity/merkle.h"
#include "integrity/timestamp.h"
#include "sharing/proactive.h"
#include "sharing/shamir.h"
#include "util/entropy.h"

namespace archbench {
namespace {

using aegis::Bytes;
using aegis::ByteView;

constexpr unsigned kHandshakes = 64;

double mb_s(std::uint64_t bytes, double ms) {
  return ms > 0 ? static_cast<double>(bytes) / 1e6 / (ms / 1e3) : 0.0;
}

class Probes {
 public:
  Probes(const ProbeInputs& in, aegis::Tracer& tracer, std::string prefix)
      : in_(in),
        tracer_(tracer),
        prefix_(std::move(prefix)),
        rng_(in.seed),
        sharing_(in.policy.encoding == aegis::EncodingKind::kShamir) {
    for (const Bytes& o : in_.objects) logical_ += o.size();
  }

  /// Runs the probes of the layers the policy uses: TLS or QKD transport;
  /// cipher + RS, or Shamir + refresh; hashing, stamps and entropy always.
  std::vector<std::pair<std::string, double>> run() {
    shards();  // shard sets first: the channel, hash and Merkle probes use them
    if (in_.policy.channel == aegis::ChannelKind::kTls) tls();
    if (in_.policy.channel == aegis::ChannelKind::kQkd) qkd();
    if (sharing_) {
      sharing();
    } else {
      cipher();
      erasure();
    }
    sha256();
    integrity();
    entropy();
    return std::move(out_);
  }

 private:
  /// Times fn() inside a probe span; returns wall ms.
  template <class Fn>
  double timed(const char* layer, Fn&& fn) {
    aegis::TraceSpan span(tracer_, prefix_ + "probe." + layer);
    const Clock::time_point t0 = Clock::now();
    fn();
    return ms_since(t0);
  }
  void emit(const char* name, double v) { out_.emplace_back(name, v); }

  // One put's shard set per object, in the workload's own geometry.
  void shards() {
    for (const Bytes& o : in_.objects) {
      std::vector<Bytes> set;
      if (sharing_) {
        for (auto& s : aegis::shamir_split(o, t(), n(), rng_))
          set.push_back(std::move(s.data));
      } else {
        set = aegis::rs_codec(k(), n()).encode(o);
      }
      for (const Bytes& s : set) shard_bytes_ += s.size();
      shard_sets_.push_back(std::move(set));
    }
  }

  void tls() {
    std::vector<double> us;
    for (unsigned i = 0; i < kHandshakes; ++i)
      us.push_back(1e3 * timed("tls.handshake", [&] {
        (void)aegis::TlsChannel::handshake(rng_);
      }));
    emit("channel.tls.handshake_us", percentile(us, 0.5));

    auto [client, server] = aegis::TlsChannel::handshake(rng_);
    const double ms = timed("tls.seal_open", [&] {
      for (const auto& set : shard_sets_)
        for (const Bytes& s : set) check(server->open(client->seal(s)) == s);
    });
    emit("channel.tls.seal_open_mb_s", mb_s(shard_bytes_, ms));
  }

  void qkd() {
    const double ms = timed("qkd.conversation", [&] {
      for (const auto& set : shard_sets_)
        for (const Bytes& s : set) {
          auto pair = aegis::QkdChannel::establish(s.size() + 64, rng_);
          check(pair.right->open(pair.left->seal(s)) == s);
        }
    });
    emit("channel.qkd.conv_mb_s", mb_s(shard_bytes_, ms));
  }

  void cipher() {
    std::vector<std::pair<aegis::SecureBytes, Bytes>> keys;
    for (aegis::SchemeId c : in_.ciphers)
      keys.emplace_back(aegis::generate_key(c, rng_),
                        aegis::generate_iv(c, rng_));
    const double ms = timed("cipher", [&] {
      for (const Bytes& o : in_.objects)
        for (std::size_t i = 0; i < in_.ciphers.size(); ++i) {
          const auto& [key, iv] = keys[i];
          Bytes ct = aegis::cipher_apply(
              in_.ciphers[i], ByteView(key.data(), key.size()), iv, o);
          check(ct.size() == o.size());
        }
    });
    emit("crypto.cipher.mb_s", mb_s(logical_, ms));
  }

  void sha256() {
    const double ms = timed("sha256", [&] {
      for (const auto& set : shard_sets_)
        for (const Bytes& s : set) check(aegis::Sha256::hash(s).size() == 32);
    });
    emit("crypto.sha256.mb_s", mb_s(shard_bytes_, ms));
  }

  void erasure() {
    const aegis::ReedSolomon& rs = aegis::rs_codec(k(), n());
    std::vector<std::vector<Bytes>> encoded;
    const double enc = timed("rs_encode", [&] {
      for (const Bytes& o : in_.objects) encoded.push_back(rs.encode(o));
    });
    // Decode with the first n-k shards lost, so every data row is rebuilt
    // from parity.
    const double dec = timed("rs_decode", [&] {
      for (std::size_t i = 0; i < encoded.size(); ++i) {
        std::vector<std::optional<Bytes>> have(encoded[i].begin(),
                                               encoded[i].end());
        for (unsigned j = 0; j < n() - k(); ++j) have[j].reset();
        check(rs.decode(have, in_.objects[i].size()) == in_.objects[i]);
      }
    });
    emit("erasure.rs_encode.mb_s", mb_s(logical_, enc));
    emit("erasure.rs_decode.mb_s", mb_s(logical_, dec));
  }

  /// Shamir split and recover; proactive refresh when the policy runs it.

  void sharing() {
    std::vector<std::vector<aegis::Share>> split;
    const double sp = timed("shamir_split", [&] {
      for (const Bytes& o : in_.objects)
        split.push_back(aegis::shamir_split(o, t(), n(), rng_));
    });
    const double rc = timed("shamir_recover", [&] {
      for (std::size_t i = 0; i < split.size(); ++i) {
        const std::vector<aegis::Share> last(split[i].end() - t(),
                                             split[i].end());
        check(aegis::shamir_recover(last, t()) == in_.objects[i]);
      }
    });
    emit("sharing.shamir_split.mb_s", mb_s(logical_, sp));
    emit("sharing.shamir_recover.mb_s", mb_s(logical_, rc));
    if (!in_.policy.proactive_refresh) return;
    const double rf = timed("proactive_refresh", [&] {
      for (const auto& shares : split)
        check(aegis::proactive_refresh(shares, t(), rng_).size() == n());
    });
    emit("sharing.refresh.mb_s", mb_s(logical_, rf));
  }

  void integrity() {
    aegis::TimestampAuthority tsa(rng_);
    std::vector<double> stamp_us, merkle_us;
    for (std::size_t i = 0; i < in_.objects.size(); ++i) {
      const Bytes& o = in_.objects[i];
      stamp_us.push_back(1e3 * timed("stamp", [&] {
        if (in_.policy.pedersen_timestamps) {
          (void)aegis::commit_and_stamp(tsa, o, 0, rng_);
        } else {
          (void)aegis::TimestampChain::begin(tsa, aegis::Sha256::hash(o),
                                             aegis::SchemeId::kSha256, 0);
        }
      }));
      merkle_us.push_back(1e3 * timed("merkle", [&] {
        check(aegis::MerkleTree(shard_sets_[i]).root().size() == 32);
      }));
    }
    emit("integrity.stamp_us", percentile(stamp_us, 0.5));
    emit("integrity.merkle_us", percentile(merkle_us, 0.5));
  }

  void entropy() {
    double sink = 0;
    const double ms = timed("entropy", [&] {
      for (const Bytes& o : in_.objects)
        sink += aegis::estimate_entropy_per_byte(o);
    });
    check(sink >= 0);
    emit("util.entropy_mb_s", mb_s(logical_, ms));
  }

  unsigned n() const { return in_.policy.n; }
  unsigned k() const { return in_.policy.k; }
  unsigned t() const { return in_.policy.t; }

  // A probe that computes a wrong answer measured nothing.
  static void check(bool ok) {
    if (!ok) throw GateFailure("a layer probe computed a wrong result");
  }

  const ProbeInputs& in_;
  aegis::Tracer& tracer_;
  std::string prefix_;
  aegis::ChaChaRng rng_;
  const bool sharing_;  // Shamir shares, else RS over the ciphertext
  std::uint64_t logical_ = 0;
  std::uint64_t shard_bytes_ = 0;
  std::vector<std::vector<Bytes>> shard_sets_;
  std::vector<std::pair<std::string, double>> out_;
};

}  // namespace

std::vector<std::pair<std::string, double>> run_probes(
    const ProbeInputs& in, aegis::Tracer& tracer,
    const std::string& span_prefix) {
  return Probes(in, tracer, span_prefix).run();
}

}  // namespace archbench
