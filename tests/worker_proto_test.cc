// Wire-format property tests for the dispatcher protocol
// (src/exec/worker_proto.h): randomized round-trips must be fixed points,
// and every malformed input — truncated, corrupted, version-skewed,
// NaN-carrying, over-long — must latch a clean error, never crash.

#include "src/exec/worker_proto.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/workload/app_profile.h"

namespace xnuma {
namespace {

// Deterministic SplitMix64 so every property failure reproduces exactly.
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  int Int(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

  bool Bool() { return (Next() & 1) != 0; }

  // Finite, NaN-free double with a wide dynamic range (negative and
  // fractional values included — the wire must not care about plausibility).
  double Finite() {
    const double mant = static_cast<double>(static_cast<int64_t>(Next() % 2000001) - 1000000);
    return mant / 997.0;
  }

  std::string Str(int max_len) {
    const int len = Int(0, max_len);
    std::string s(static_cast<size_t>(len), '\0');
    for (char& c : s) {
      c = static_cast<char>(' ' + static_cast<char>(Next() % 95));
    }
    return s;
  }

 private:
  uint64_t state_;
};

RunSpec RandomSpec(Rand& rng) {
  const std::vector<AppProfile> apps = AllApps();
  RunSpec spec;
  spec.app = apps[static_cast<size_t>(rng.Int(0, static_cast<int>(apps.size()) - 1))];
  spec.label = rng.Str(64);
  spec.app.name = rng.Str(32);
  spec.app.cpu_cycles_per_access = rng.Finite();
  spec.app.nominal_seconds = rng.Finite();
  for (RegionSpec& region : spec.app.regions) {
    region.footprint_mb = rng.Finite();
    region.access_share = rng.Finite();
    region.hot_fraction = rng.Finite();
    region.min_pages = static_cast<int64_t>(rng.Next());
  }
  spec.stack = rng.Bool() ? XenPlusStack() : LinuxStack();
  spec.stack.label = rng.Str(48);
  spec.stack.policy.placement = static_cast<StaticPolicy>(rng.Int(0, 2));
  spec.stack.policy.carrefour = rng.Bool();
  spec.stack.queue_batch = rng.Int(1, 4096);
  spec.stack.p2m_max_order = static_cast<PageOrder>(rng.Int(0, 2));
  spec.stack.ft_superpage = rng.Bool();
  spec.stack.p2m_replication = rng.Bool();
  spec.stack.walk_orchestrator = rng.Bool();
  spec.options.threads = rng.Int(1, 48);
  spec.options.seed = rng.Next();
  spec.options.engine.epoch_seconds = rng.Finite();
  spec.options.engine.utilization_damping = rng.Finite();
  spec.options.engine.max_sim_seconds = rng.Finite();
  spec.options.engine.seed = rng.Next();
  spec.options.engine.fault.enabled = rng.Bool();
  spec.options.engine.fault.seed = rng.Next();
  spec.options.engine.fault.frame_alloc_rate = rng.Finite();
  spec.options.engine.fault.hypercall_delay_seconds = rng.Finite();
  spec.options.engine.carrefour.hot_pages_per_tick = rng.Int(1, 64);
  spec.options.engine.carrefour.mc_overload_util = rng.Finite();
  spec.options.engine.carrefour.replicate_translation = rng.Bool();
  spec.options.engine.price_walks = rng.Bool();
  spec.options.engine.auto_selector.sample_pages = rng.Int(1, 4096);
  spec.options.engine.auto_selector.dwell_windows = rng.Int(1, 16);
  return spec;
}

RunOutcome RandomOutcome(Rand& rng) {
  RunOutcome out;
  out.label = rng.Str(64);
  out.ok = rng.Bool();
  out.error = out.ok ? "" : rng.Str(128);
  out.result.app = rng.Str(32);
  out.result.domain = rng.Int(0, 15);
  out.result.finished = rng.Bool();
  out.result.completion_seconds = rng.Finite();
  out.result.init_seconds = rng.Finite();
  out.result.compute_seconds = rng.Finite();
  out.result.imbalance_pct = rng.Finite();
  out.result.interconnect_pct = rng.Finite();
  out.result.avg_mc_util_pct = rng.Finite();
  out.result.avg_latency_cycles = rng.Finite();
  out.result.observed_disk_mb_per_s = rng.Finite();
  out.result.observed_ctx_switches_per_s = rng.Finite();
  out.result.hv_page_faults = static_cast<int64_t>(rng.Next() >> 1);
  out.result.carrefour_migrations = static_cast<int64_t>(rng.Next() >> 1);
  out.result.final_policy = {static_cast<StaticPolicy>(rng.Int(0, 2)), rng.Bool()};
  out.result.policy_switches = rng.Int(0, 100);
  out.result.faults_injected = rng.Int(0, 1000);
  out.result.faults_recovered = rng.Int(0, 1000);
  out.result.faults_aborted = rng.Int(0, 1000);
  out.result.local_walks = rng.Int(0, 1000000);
  out.result.remote_walks = rng.Int(0, 1000000);
  return out;
}

// Round-trip fixed point: serialize -> deserialize -> serialize must be
// byte-identical, which pins every field without a per-field comparator
// (a dropped, reordered, or truncated field breaks the bytes).
TEST(WorkerProtoTest, RandomRunSpecsRoundTripAsFixedPoints) {
  Rand rng(0xA11CE5);
  for (int iter = 0; iter < 200; ++iter) {
    const RunSpec spec = RandomSpec(rng);
    WireWriter w1;
    SerializeRunSpec(spec, &w1);
    ASSERT_TRUE(w1.ok()) << "iter " << iter << ": " << w1.error();

    WireReader r(w1.bytes());
    RunSpec back;
    DeserializeRunSpec(&r, &back);
    ASSERT_TRUE(r.AtEnd()) << "iter " << iter << ": " << r.error();

    WireWriter w2;
    SerializeRunSpec(back, &w2);
    ASSERT_TRUE(w2.ok()) << "iter " << iter;
    EXPECT_EQ(w1.bytes(), w2.bytes()) << "iter " << iter;

    // Exact double survival — the bit-identical contract's foundation.
    EXPECT_EQ(back.options.engine.utilization_damping,
              spec.options.engine.utilization_damping);
    EXPECT_EQ(back.app.cpu_cycles_per_access, spec.app.cpu_cycles_per_access);
    // A deserialized spec never carries cross-process state or fan-out.
    EXPECT_EQ(back.options.trace, nullptr);
    EXPECT_EQ(back.options.obs, nullptr);
    EXPECT_EQ(back.options.jobs, 1);
    EXPECT_EQ(back.options.procs, 0);
  }
}

TEST(WorkerProtoTest, RandomRunOutcomesRoundTripAsFixedPoints) {
  Rand rng(0xB0B);
  for (int iter = 0; iter < 200; ++iter) {
    const RunOutcome out = RandomOutcome(rng);
    WireWriter w1;
    SerializeRunOutcome(out, &w1);
    ASSERT_TRUE(w1.ok()) << "iter " << iter << ": " << w1.error();

    WireReader r(w1.bytes());
    RunOutcome back;
    DeserializeRunOutcome(&r, &back);
    ASSERT_TRUE(r.AtEnd()) << "iter " << iter << ": " << r.error();

    WireWriter w2;
    SerializeRunOutcome(back, &w2);
    ASSERT_TRUE(w2.ok()) << "iter " << iter;
    EXPECT_EQ(w1.bytes(), w2.bytes()) << "iter " << iter;
    EXPECT_EQ(back.result.completion_seconds, out.result.completion_seconds) << iter;
  }
}

TEST(WorkerProtoTest, WorkAndResultMessagesRoundTripThroughFrames) {
  Rand rng(0xF00D);
  for (int iter = 0; iter < 50; ++iter) {
    WorkFrame work;
    work.slot = static_cast<uint32_t>(rng.Int(0, 1 << 20));
    work.attempt = static_cast<uint32_t>(rng.Int(0, 7));
    work.spec = RandomSpec(rng);
    std::string error;
    const std::vector<uint8_t> bytes = EncodeWork(work, &error);
    ASSERT_FALSE(bytes.empty()) << error;

    FrameDecoder decoder;
    decoder.Append(bytes.data(), bytes.size());
    WireFrame frame;
    ASSERT_TRUE(decoder.Next(&frame)) << decoder.error();
    ASSERT_EQ(frame.type, FrameType::kWork);
    WorkFrame back;
    ASSERT_EQ(DecodeWork(frame.payload, &back), "");
    EXPECT_EQ(back.slot, work.slot);
    EXPECT_EQ(back.attempt, work.attempt);
    EXPECT_EQ(back.spec.label, work.spec.label);
    EXPECT_EQ(decoder.pending_bytes(), 0u);

    ResultFrame result;
    result.slot = work.slot;
    result.attempt = work.attempt;
    result.outcome = RandomOutcome(rng);
    const std::vector<uint8_t> rbytes = EncodeResult(result, &error);
    ASSERT_FALSE(rbytes.empty()) << error;
    decoder.Append(rbytes.data(), rbytes.size());
    ASSERT_TRUE(decoder.Next(&frame)) << decoder.error();
    ASSERT_EQ(frame.type, FrameType::kResult);
    ResultFrame rback;
    ASSERT_EQ(DecodeResult(frame.payload, &rback), "");
    EXPECT_EQ(rback.slot, result.slot);
    EXPECT_EQ(rback.outcome.label, result.outcome.label);
    EXPECT_EQ(rback.outcome.ok, result.outcome.ok);
  }
}

TEST(WorkerProtoTest, ByteAtATimeDeliveryDecodesIdentically) {
  Rand rng(0x51);
  WorkFrame work;
  work.slot = 3;
  work.spec = RandomSpec(rng);
  std::string error;
  const std::vector<uint8_t> bytes = EncodeWork(work, &error);
  ASSERT_FALSE(bytes.empty()) << error;

  FrameDecoder decoder;
  WireFrame frame;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Append(&bytes[i], 1);
    EXPECT_FALSE(decoder.Next(&frame)) << "frame complete early at byte " << i;
    ASSERT_TRUE(decoder.ok()) << decoder.error();
    EXPECT_GT(decoder.pending_bytes(), 0u);  // truncated-at-EOF detector
  }
  decoder.Append(&bytes.back(), 1);
  ASSERT_TRUE(decoder.Next(&frame)) << decoder.error();
  WorkFrame back;
  EXPECT_EQ(DecodeWork(frame.payload, &back), "");
  EXPECT_EQ(back.spec.label, work.spec.label);
}

TEST(WorkerProtoTest, CorruptFramesLatchCleanErrors) {
  Rand rng(0xBAD);
  WorkFrame work;
  work.spec = RandomSpec(rng);
  std::string error;
  const std::vector<uint8_t> good = EncodeWork(work, &error);
  ASSERT_FALSE(good.empty()) << error;
  // v5 frames: EngineConfig no longer carries the P2M promotion daemon's
  // two fields.
  ASSERT_EQ(kWireVersion, 5);
  EXPECT_EQ(good[4] | (good[5] << 8), kWireVersion);  // version u16 LE at offset 4

  {  // flipped payload byte -> checksum mismatch
    std::vector<uint8_t> bad = good;
    bad.back() ^= 0xFF;
    FrameDecoder decoder;
    decoder.Append(bad.data(), bad.size());
    WireFrame frame;
    EXPECT_FALSE(decoder.Next(&frame));
    EXPECT_FALSE(decoder.ok());
    EXPECT_NE(decoder.error().find("checksum"), std::string::npos) << decoder.error();
  }
  {  // flipped magic
    std::vector<uint8_t> bad = good;
    bad[0] ^= 0xFF;
    FrameDecoder decoder;
    decoder.Append(bad.data(), bad.size());
    WireFrame frame;
    EXPECT_FALSE(decoder.Next(&frame));
    EXPECT_NE(decoder.error().find("magic"), std::string::npos) << decoder.error();
  }
  {  // version skew: a frame from a build speaking a future version
    std::vector<uint8_t> bad = good;
    bad[4] = static_cast<uint8_t>(kWireVersion + 1);  // version u16 LE at offset 4
    FrameDecoder decoder;
    decoder.Append(bad.data(), bad.size());
    WireFrame frame;
    EXPECT_FALSE(decoder.Next(&frame));
    const std::string want = "wire version " + std::to_string(kWireVersion + 1) +
                             " (this build speaks " + std::to_string(kWireVersion) + ")";
    EXPECT_NE(decoder.error().find(want), std::string::npos) << decoder.error();
  }
  // version skew: frames from v3 and v4 builds, whose EngineConfig still
  // carries the solver (v3) and promotion daemon (v3, v4) fields this build
  // no longer reads
  for (const uint8_t old_version : {3, 4}) {
    std::vector<uint8_t> bad = good;
    bad[4] = old_version;
    FrameDecoder decoder;
    decoder.Append(bad.data(), bad.size());
    WireFrame frame;
    EXPECT_FALSE(decoder.Next(&frame));
    const std::string want =
        "wire version " + std::to_string(old_version) + " (this build speaks 5)";
    EXPECT_NE(decoder.error().find(want), std::string::npos) << decoder.error();
  }
  {  // unknown frame type
    std::vector<uint8_t> bad = good;
    bad[6] = 0x7F;
    FrameDecoder decoder;
    decoder.Append(bad.data(), bad.size());
    WireFrame frame;
    EXPECT_FALSE(decoder.Next(&frame));
    EXPECT_NE(decoder.error().find("unknown frame type"), std::string::npos)
        << decoder.error();
  }
  {  // implausible payload length field
    std::vector<uint8_t> bad = good;
    bad[8] = 0xFF;
    bad[9] = 0xFF;
    bad[10] = 0xFF;
    bad[11] = 0xFF;
    FrameDecoder decoder;
    decoder.Append(bad.data(), bad.size());
    WireFrame frame;
    EXPECT_FALSE(decoder.Next(&frame));
    EXPECT_NE(decoder.error().find("exceeds the limit"), std::string::npos)
        << decoder.error();
  }
  {  // an error never un-latches, even when good bytes follow
    std::vector<uint8_t> bad = good;
    bad[0] ^= 0xFF;
    FrameDecoder decoder;
    decoder.Append(bad.data(), bad.size());
    WireFrame frame;
    EXPECT_FALSE(decoder.Next(&frame));
    decoder.Append(good.data(), good.size());
    EXPECT_FALSE(decoder.Next(&frame));
    EXPECT_FALSE(decoder.ok());
  }
}

TEST(WorkerProtoTest, TruncatedPayloadsFailCleanly) {
  Rand rng(0xC0FFEE);
  WorkFrame work;
  work.spec = RandomSpec(rng);
  std::string error;
  std::vector<uint8_t> bytes = EncodeWork(work, &error);
  ASSERT_FALSE(bytes.empty());

  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  WireFrame frame;
  ASSERT_TRUE(decoder.Next(&frame));

  // Chop the decoded payload at every prefix length: DecodeWork must return
  // an error string (never crash, never accept).
  for (size_t len = 0; len < frame.payload.size(); ++len) {
    std::vector<uint8_t> prefix(frame.payload.begin(),
                                frame.payload.begin() + static_cast<long>(len));
    WorkFrame out;
    const std::string err = DecodeWork(prefix, &out);
    EXPECT_FALSE(err.empty()) << "prefix of " << len << " bytes was accepted";
  }

  // Trailing garbage after a well-formed payload is rejected too.
  std::vector<uint8_t> padded = frame.payload;
  padded.push_back(0);
  WorkFrame out;
  EXPECT_NE(DecodeWork(padded, &out).find("trailing"), std::string::npos);
}

TEST(WorkerProtoTest, NaNDoublesAreRejectedOnBothSides) {
  // Writer side: a spec carrying NaN must not serialize.
  Rand rng(0xD00);
  RunSpec spec = RandomSpec(rng);
  spec.options.engine.utilization_damping = std::nan("");
  WireWriter w;
  SerializeRunSpec(spec, &w);
  EXPECT_FALSE(w.ok());
  EXPECT_NE(w.error().find("NaN"), std::string::npos) << w.error();

  WorkFrame work;
  work.spec = spec;
  std::string error;
  EXPECT_TRUE(EncodeWork(work, &error).empty());
  EXPECT_NE(error.find("NaN"), std::string::npos) << error;

  // Reader side: NaN bits arriving on the wire poison the reader.
  const double nan_value = std::nan("");
  uint8_t bits[8];
  std::memcpy(bits, &nan_value, sizeof(bits));
  WireReader r(bits, sizeof(bits));
  r.F64();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("NaN"), std::string::npos) << r.error();
}

TEST(WorkerProtoTest, MaxLengthStringsRoundTripAndOverLongAreRejected) {
  const std::string max_str(kMaxWireString, 'x');
  WireWriter w;
  w.Str(max_str);
  ASSERT_TRUE(w.ok()) << w.error();
  WireReader r(w.bytes());
  EXPECT_EQ(r.Str(), max_str);
  EXPECT_TRUE(r.AtEnd());

  WireWriter over;
  over.Str(std::string(kMaxWireString + 1, 'x'));
  EXPECT_FALSE(over.ok());
  EXPECT_NE(over.error().find("exceeds the wire limit"), std::string::npos)
      << over.error();

  // Reader side: a length field over the limit fails before allocating.
  WireWriter forged;
  forged.U32(kMaxWireString + 1);
  WireReader fr(forged.bytes());
  fr.Str();
  EXPECT_FALSE(fr.ok());
  EXPECT_NE(fr.error().find("exceeds the wire limit"), std::string::npos)
      << fr.error();
}

TEST(WorkerProtoTest, OutOfRangeEnumsPoisonTheReader) {
  // StaticPolicy only spans [0, 2]; a payload claiming 7 must be rejected,
  // not cast blindly into the enum. The final_policy placement byte sits a
  // fixed 47 bytes from the end of a serialized RunOutcome (carrefour +
  // vnuma bools + policy_switches i32 + five i64s — three fault counters
  // and the two walk totals — follow it).
  Rand rng(0xE7);
  WireWriter w;
  SerializeRunOutcome(RandomOutcome(rng), &w);
  ASSERT_TRUE(w.ok()) << w.error();
  std::vector<uint8_t> bytes = w.bytes();
  ASSERT_GE(bytes.size(), 47u);
  bytes[bytes.size() - 47] = 7;

  WireReader r(bytes);
  RunOutcome out;
  DeserializeRunOutcome(&r, &out);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("StaticPolicy enum value 7 out of range"), std::string::npos)
      << r.error();
}

TEST(WorkerProtoTest, ChecksumDetectsSingleBitFlips) {
  Rand rng(0x1CE);
  std::vector<uint8_t> payload(64);
  for (uint8_t& b : payload) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const uint32_t crc = WireChecksum(payload.data(), payload.size());
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] ^= 1;
    EXPECT_NE(WireChecksum(payload.data(), payload.size()), crc) << "byte " << i;
    payload[i] ^= 1;
  }
}

}  // namespace
}  // namespace xnuma
