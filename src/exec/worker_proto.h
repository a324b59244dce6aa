// Wire protocol between the multi-process dispatcher and its workers.
//
// The parent ships serialized RunSpecs to `--worker` processes over a pipe
// and collects serialized RunOutcomes back (src/exec/dispatcher.h). The
// format is deliberately dumb and fully explicit — no in-memory structs on
// the wire, no host-dependent layout — because the contract it must keep is
// strong: a spec that round-trips through the serializer must execute
// *bit-identically* to the in-process run, doubles included (every float
// field travels as its IEEE-754 bit pattern, docs/MODEL.md §15).
//
// Framing: every message is
//
//   magic u32 | version u16 | type u16 | payload_len u32 | payload_crc u32
//   | payload bytes
//
// with all integers little-endian. The decoder rejects — with a clean error
// string, never a crash — bad magic, a version other than kWireVersion,
// oversized or CRC-corrupt payloads, truncated frames (a worker killed
// mid-write), out-of-range enum values, and over-long strings. A rejected
// stream marks the peer failed; the dispatcher's retry path takes over from
// there. tests/worker_proto_test.cc property-tests the round trip and every
// rejection branch.

#ifndef XENNUMA_SRC_EXEC_WORKER_PROTO_H_
#define XENNUMA_SRC_EXEC_WORKER_PROTO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/exec/experiment_runner.h"

namespace xnuma {

inline constexpr uint32_t kWireMagic = 0x584e5750;  // "XNWP"
// v2: PolicyConfig.vnuma + StackConfig.vnuma (the vNUMA interface).
// v3: replication, walk-orchestrator and walk-pricing fields.
// v4: EngineConfig drops the solver's iteration count and tolerance (both
//     are constants in src/sim/engine.h now).
// v5: EngineConfig drops the P2M promotion daemon's two fields.
inline constexpr uint16_t kWireVersion = 5;
// Guards against garbage length fields; real payloads are a few KiB.
inline constexpr uint32_t kMaxWirePayload = 1u << 20;
// Longest string any message may carry (labels, app names, error texts).
inline constexpr uint32_t kMaxWireString = 4096;

enum class FrameType : uint16_t {
  kHello = 1,     // worker -> parent, once at startup: u16 version, u64 pid
  kWork = 2,      // parent -> worker: u32 slot, u32 attempt, RunSpec
  kResult = 3,    // worker -> parent: u32 slot, u32 attempt, RunOutcome
  kShutdown = 4,  // parent -> worker: empty payload; worker exits 0
};

// ---- Byte-level primitives ------------------------------------------------

// Append-only little-endian writer. The first failed append (NaN double,
// over-long string) latches an error; bytes() must not be shipped then.
class WireWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  // IEEE-754 bit pattern. NaN is rejected: no simulation field may carry
  // one (NaN != NaN would silently break the bit-identical contract).
  void F64(double v);
  void Str(const std::string& s);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  void Fail(const std::string& what);

  std::vector<uint8_t> bytes_;
  std::string error_;
};

// Bounds-checked reader over one payload. The first short or invalid read
// latches an error and every later read returns zeroes — callers check
// ok() once at the end instead of after every field.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<uint8_t>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  bool Bool();
  double F64();
  std::string Str();

  // All bytes consumed and no error — a well-formed payload.
  bool AtEnd() const { return ok() && pos_ == size_; }
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  void Fail(const std::string& what);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  std::string error_;
};

// ---- Framing --------------------------------------------------------------

struct WireFrame {
  FrameType type = FrameType::kHello;
  std::vector<uint8_t> payload;
};

// payload CRC used in the frame header (FNV-1a folded to 32 bits).
uint32_t WireChecksum(const uint8_t* data, size_t size);

// Header + payload, ready to write to the pipe.
std::vector<uint8_t> EncodeFrame(FrameType type, const std::vector<uint8_t>& payload);

// Incremental decoder over a byte stream that may arrive in arbitrary read
// chunks. Append() feeds bytes; Next() pops one complete frame. Any
// malformed header or payload latches a permanent error — a stream that
// lied once is never trusted again.
class FrameDecoder {
 public:
  void Append(const uint8_t* data, size_t size);

  // true = one frame popped into *frame. false = need more bytes, or the
  // stream is broken (then !ok()).
  bool Next(WireFrame* frame);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  // Bytes buffered but not yet consumed (nonzero at EOF = truncated frame).
  size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  std::string error_;
};

// ---- Message payloads -----------------------------------------------------

struct WorkFrame {
  uint32_t slot = 0;
  uint32_t attempt = 0;  // 0 = first dispatch; retries increment
  RunSpec spec;
};

struct ResultFrame {
  uint32_t slot = 0;
  uint32_t attempt = 0;
  RunOutcome outcome;
};

// Field-level serializers, exposed for the property test. Serialize* latch
// errors on the writer; Deserialize* on the reader (range-checked enums).
void SerializeRunSpec(const RunSpec& spec, WireWriter* w);
void DeserializeRunSpec(WireReader* r, RunSpec* spec);
void SerializeRunOutcome(const RunOutcome& outcome, WireWriter* w);
void DeserializeRunOutcome(WireReader* r, RunOutcome* outcome);

// Message encoders: empty vector + *error set when serialization failed.
std::vector<uint8_t> EncodeHello(std::string* error);
std::vector<uint8_t> EncodeWork(const WorkFrame& work, std::string* error);
std::vector<uint8_t> EncodeResult(const ResultFrame& result, std::string* error);
std::vector<uint8_t> EncodeShutdown();

// Message decoders: non-empty return = error text, *out untrusted.
std::string DecodeWork(const std::vector<uint8_t>& payload, WorkFrame* out);
std::string DecodeResult(const std::vector<uint8_t>& payload, ResultFrame* out);

// ---- Worker side ----------------------------------------------------------

struct WorkerOptions {
  // Test-only crash hook (`--worker_chaos SEED`): deterministically dooms
  // the first h(seed, slot) % 3 attempts of each slot to _exit(1), SIGKILL
  // after computing the result, or a hang past any sane deadline — and
  // makes some successful slots send their result twice (duplicate
  // suppression must drop the echo). Chaos is a function of (seed, slot,
  // attempt) only, so a given retry budget always reaches the same slots.
  bool chaos = false;
  uint64_t chaos_seed = 0;
};

// Runs the worker loop: read kWork frames from in_fd, execute each spec
// with the shared ExecuteSpec semantics (src/exec/run_outcome.h), stream
// kResult frames to out_fd, exit cleanly on kShutdown or EOF. Returns the
// process exit code. Forces options.jobs = 1 / options.procs = 0 on every
// received spec — a worker never fans out again.
int WorkerMain(int in_fd, int out_fd, const WorkerOptions& options = {});

// Self-exec hook: when argv names `--worker`, runs WorkerMain over
// stdin/stdout (honoring `--worker_chaos SEED`) and returns its exit code;
// returns -1 when this is not a worker invocation. Call first in main() of
// any binary that dispatches with the default self-exec worker command
// (the CLI, the bench binaries, the dist tests).
int MaybeWorkerMain(int argc, char** argv);

}  // namespace xnuma

#endif  // XENNUMA_SRC_EXEC_WORKER_PROTO_H_
