#include "src/exec/worker_proto.h"

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "src/exec/run_outcome.h"

namespace xnuma {

// ---- WireWriter -----------------------------------------------------------

void WireWriter::Fail(const std::string& what) {
  if (error_.empty()) {
    error_ = what;
  }
}

void WireWriter::U16(uint16_t v) {
  bytes_.push_back(static_cast<uint8_t>(v));
  bytes_.push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::F64(double v) {
  if (std::isnan(v)) {
    Fail("NaN double cannot travel on the wire");
    return;
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(const std::string& s) {
  if (s.size() > kMaxWireString) {
    Fail("string of " + std::to_string(s.size()) + " bytes exceeds the wire limit of " +
         std::to_string(kMaxWireString));
    return;
  }
  U32(static_cast<uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

// ---- WireReader -----------------------------------------------------------

void WireReader::Fail(const std::string& what) {
  if (error_.empty()) {
    error_ = what;
  }
}

uint8_t WireReader::U8() {
  if (!ok() || pos_ + 1 > size_) {
    Fail("truncated payload");
    return 0;
  }
  return data_[pos_++];
}

uint16_t WireReader::U16() {
  if (!ok() || pos_ + 2 > size_) {
    Fail("truncated payload");
    return 0;
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

uint32_t WireReader::U32() {
  if (!ok() || pos_ + 4 > size_) {
    Fail("truncated payload");
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t WireReader::U64() {
  if (!ok() || pos_ + 8 > size_) {
    Fail("truncated payload");
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

bool WireReader::Bool() {
  const uint8_t v = U8();
  if (ok() && v > 1) {
    Fail("bool byte out of range");
  }
  return v == 1;
}

double WireReader::F64() {
  const uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  if (ok() && std::isnan(v)) {
    Fail("NaN double on the wire");
  }
  return v;
}

std::string WireReader::Str() {
  const uint32_t len = U32();
  if (!ok()) {
    return "";
  }
  if (len > kMaxWireString) {
    Fail("string of " + std::to_string(len) + " bytes exceeds the wire limit of " +
         std::to_string(kMaxWireString));
    return "";
  }
  if (pos_ + len > size_) {
    Fail("truncated payload");
    return "";
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

// ---- Framing --------------------------------------------------------------

uint32_t WireChecksum(const uint8_t* data, size_t size) {
  // FNV-1a (64-bit), folded. Catches the torn/overwritten frames a killed
  // worker can leave in the pipe; not cryptographic, not meant to be.
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

namespace {

constexpr size_t kFrameHeaderBytes = 4 + 2 + 2 + 4 + 4;

}  // namespace

std::vector<uint8_t> EncodeFrame(FrameType type, const std::vector<uint8_t>& payload) {
  WireWriter w;
  w.U32(kWireMagic);
  w.U16(kWireVersion);
  w.U16(static_cast<uint16_t>(type));
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(WireChecksum(payload.data(), payload.size()));
  std::vector<uint8_t> out = w.bytes();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void FrameDecoder::Append(const uint8_t* data, size_t size) {
  // Compact lazily so long streams do not grow without bound.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

bool FrameDecoder::Next(WireFrame* frame) {
  if (!ok()) {
    return false;
  }
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) {
    return false;
  }
  WireReader header(buffer_.data() + consumed_, kFrameHeaderBytes);
  const uint32_t magic = header.U32();
  const uint16_t version = header.U16();
  const uint16_t type = header.U16();
  const uint32_t len = header.U32();
  const uint32_t crc = header.U32();
  if (magic != kWireMagic) {
    error_ = "bad frame magic";
    return false;
  }
  if (version != kWireVersion) {
    error_ = "wire version " + std::to_string(version) + " (this build speaks " +
             std::to_string(kWireVersion) + ")";
    return false;
  }
  if (type < static_cast<uint16_t>(FrameType::kHello) ||
      type > static_cast<uint16_t>(FrameType::kShutdown)) {
    error_ = "unknown frame type " + std::to_string(type);
    return false;
  }
  if (len > kMaxWirePayload) {
    error_ = "frame payload of " + std::to_string(len) + " bytes exceeds the limit";
    return false;
  }
  if (avail < kFrameHeaderBytes + len) {
    return false;  // need more bytes
  }
  const uint8_t* payload = buffer_.data() + consumed_ + kFrameHeaderBytes;
  if (WireChecksum(payload, len) != crc) {
    error_ = "frame payload checksum mismatch";
    return false;
  }
  frame->type = static_cast<FrameType>(type);
  frame->payload.assign(payload, payload + len);
  consumed_ += kFrameHeaderBytes + len;
  return true;
}

// ---- Struct serializers ---------------------------------------------------

namespace {

// Range-checked enum read: values outside [0, max] poison the reader.
template <typename E>
E ReadEnum(WireReader* r, uint8_t max, const char* what) {
  const uint8_t v = r->U8();
  if (r->ok() && v > max) {
    r->Fail(std::string(what) + " enum value " + std::to_string(v) + " out of range");
    return static_cast<E>(0);
  }
  return static_cast<E>(v);
}

void SerializeRegion(const RegionSpec& region, WireWriter* w) {
  w->Str(region.name);
  w->F64(region.footprint_mb);
  w->U8(static_cast<uint8_t>(region.init));
  w->F64(region.access_share);
  w->F64(region.owner_affinity);
  w->F64(region.hot_fraction);
  w->F64(region.hot_share);
  w->F64(region.write_fraction);
  w->I64(region.min_pages);
}

void DeserializeRegion(WireReader* r, RegionSpec* region) {
  region->name = r->Str();
  region->footprint_mb = r->F64();
  region->init = ReadEnum<AllocPattern>(r, 1, "AllocPattern");
  region->access_share = r->F64();
  region->owner_affinity = r->F64();
  region->hot_fraction = r->F64();
  region->hot_share = r->F64();
  region->write_fraction = r->F64();
  region->min_pages = r->I64();
}

void SerializeApp(const AppProfile& app, WireWriter* w) {
  w->Str(app.name);
  w->U8(static_cast<uint8_t>(app.suite));
  w->U32(static_cast<uint32_t>(app.regions.size()));
  for (const RegionSpec& region : app.regions) {
    SerializeRegion(region, w);
  }
  w->F64(app.cpu_cycles_per_access);
  w->F64(app.mlp);
  w->F64(app.nominal_seconds);
  w->F64(app.blocking_rate_per_s);
  w->Bool(app.mcs_eligible);
  w->F64(app.disk_read_mb);
  w->I64(app.io_request_kb);
  w->F64(app.release_rate_per_s);
}

void DeserializeApp(WireReader* r, AppProfile* app) {
  app->name = r->Str();
  app->suite = ReadEnum<Suite>(r, 4, "Suite");
  const uint32_t regions = r->U32();
  if (r->ok() && regions > 1024) {
    r->Fail("implausible region count " + std::to_string(regions));
    return;
  }
  app->regions.clear();
  for (uint32_t i = 0; r->ok() && i < regions; ++i) {
    RegionSpec region;
    DeserializeRegion(r, &region);
    app->regions.push_back(region);
  }
  app->cpu_cycles_per_access = r->F64();
  app->mlp = r->F64();
  app->nominal_seconds = r->F64();
  app->blocking_rate_per_s = r->F64();
  app->mcs_eligible = r->Bool();
  app->disk_read_mb = r->F64();
  app->io_request_kb = r->I64();
  app->release_rate_per_s = r->F64();
}

void SerializePolicy(const PolicyConfig& policy, WireWriter* w) {
  w->U8(static_cast<uint8_t>(policy.placement));
  w->Bool(policy.carrefour);
  w->Bool(policy.vnuma);
}

void DeserializePolicy(WireReader* r, PolicyConfig* policy) {
  policy->placement = ReadEnum<StaticPolicy>(r, 2, "StaticPolicy");
  policy->carrefour = r->Bool();
  policy->vnuma = r->Bool();
}

void SerializeStack(const StackConfig& stack, WireWriter* w) {
  w->Str(stack.label);
  w->U8(static_cast<uint8_t>(stack.mode));
  SerializePolicy(stack.policy, w);
  w->Bool(stack.pci_passthrough);
  w->Bool(stack.mcs_for_eligible);
  w->I32(stack.queue_batch);
  w->I32(stack.queue_partition_bits);
  w->Bool(stack.auto_numa_policy);
  w->U8(static_cast<uint8_t>(stack.p2m_max_order));
  w->Bool(stack.ft_superpage);
  w->U8(static_cast<uint8_t>(stack.vnuma));
  w->Bool(stack.p2m_replication);
  w->Bool(stack.walk_orchestrator);
}

void DeserializeStack(WireReader* r, StackConfig* stack) {
  stack->label = r->Str();
  stack->mode = ReadEnum<ExecMode>(r, 1, "ExecMode");
  DeserializePolicy(r, &stack->policy);
  stack->pci_passthrough = r->Bool();
  stack->mcs_for_eligible = r->Bool();
  stack->queue_batch = r->I32();
  stack->queue_partition_bits = r->I32();
  stack->auto_numa_policy = r->Bool();
  stack->p2m_max_order = ReadEnum<PageOrder>(r, 2, "PageOrder");
  stack->ft_superpage = r->Bool();
  stack->vnuma = ReadEnum<VnumaMode>(r, 2, "VnumaMode");
  stack->p2m_replication = r->Bool();
  stack->walk_orchestrator = r->Bool();
}

void SerializeCarrefourConfig(const CarrefourConfig& c, WireWriter* w) {
  w->F64(c.mc_overload_util);
  w->F64(c.mc_underload_util);
  w->F64(c.link_saturation_util);
  w->F64(c.dominant_source_share);
  w->I32(c.hot_pages_per_tick);
  w->I32(c.max_migrations_per_tick);
  w->Bool(c.enable_replication);
  w->F64(c.replication_max_dominant_share);
  w->I32(c.backoff_base_ticks);
  w->I32(c.backoff_max_ticks);
  w->Bool(c.replicate_translation);
}

void DeserializeCarrefourConfig(WireReader* r, CarrefourConfig* c) {
  c->mc_overload_util = r->F64();
  c->mc_underload_util = r->F64();
  c->link_saturation_util = r->F64();
  c->dominant_source_share = r->F64();
  c->hot_pages_per_tick = r->I32();
  c->max_migrations_per_tick = r->I32();
  c->enable_replication = r->Bool();
  c->replication_max_dominant_share = r->F64();
  c->backoff_base_ticks = r->I32();
  c->backoff_max_ticks = r->I32();
  c->replicate_translation = r->Bool();
}

void SerializeAutoSelectorConfig(const AutoSelectorConfig& c, WireWriter* w) {
  w->F64(c.dominant_source_share);
  w->F64(c.partitionable_threshold);
  w->F64(c.mc_load_threshold);
  w->F64(c.link_load_threshold);
  w->I32(c.sample_pages);
  w->I32(c.dwell_windows);
}

void DeserializeAutoSelectorConfig(WireReader* r, AutoSelectorConfig* c) {
  c->dominant_source_share = r->F64();
  c->partitionable_threshold = r->F64();
  c->mc_load_threshold = r->F64();
  c->link_load_threshold = r->F64();
  c->sample_pages = r->I32();
  c->dwell_windows = r->I32();
}

void SerializeFaultPlan(const FaultPlan& plan, WireWriter* w) {
  w->Bool(plan.enabled);
  w->U64(plan.seed);
  w->F64(plan.frame_alloc_rate);
  w->F64(plan.node_exhaustion_rate);
  w->F64(plan.map_rate);
  w->F64(plan.map_range_rate);
  w->F64(plan.migrate_rate);
  w->F64(plan.replicate_rate);
  w->F64(plan.p2m_remap_rate);
  w->F64(plan.queue_drop_rate);
  w->F64(plan.hypercall_delay_rate);
  w->I32(plan.exhaustion_window_ops);
  w->F64(plan.hypercall_delay_seconds);
}

void DeserializeFaultPlan(WireReader* r, FaultPlan* plan) {
  plan->enabled = r->Bool();
  plan->seed = r->U64();
  plan->frame_alloc_rate = r->F64();
  plan->node_exhaustion_rate = r->F64();
  plan->map_rate = r->F64();
  plan->map_range_rate = r->F64();
  plan->migrate_rate = r->F64();
  plan->replicate_rate = r->F64();
  plan->p2m_remap_rate = r->F64();
  plan->queue_drop_rate = r->F64();
  plan->hypercall_delay_rate = r->F64();
  plan->exhaustion_window_ops = r->I32();
  plan->hypercall_delay_seconds = r->F64();
}

void SerializeEngineConfig(const EngineConfig& ec, WireWriter* w) {
  w->F64(ec.epoch_seconds);
  w->F64(ec.carrefour_period_seconds);
  w->F64(ec.utilization_damping);
  w->Bool(ec.incremental_placement);
  w->F64(ec.max_sim_seconds);
  w->U64(ec.seed);
  w->F64(ec.sampling_noise);
  w->F64(ec.carrefour_monitor_overhead);
  w->F64(ec.native_minor_fault_s);
  w->F64(ec.guest_minor_fault_s);
  w->I32(ec.churn_sample_ops);
  w->I64(ec.min_region_pages);
  SerializeCarrefourConfig(ec.carrefour, w);
  SerializeAutoSelectorConfig(ec.auto_selector, w);
  SerializeFaultPlan(ec.fault, w);
  w->Bool(ec.price_walks);
}

void DeserializeEngineConfig(WireReader* r, EngineConfig* ec) {
  ec->epoch_seconds = r->F64();
  ec->carrefour_period_seconds = r->F64();
  ec->utilization_damping = r->F64();
  ec->incremental_placement = r->Bool();
  ec->max_sim_seconds = r->F64();
  ec->seed = r->U64();
  ec->sampling_noise = r->F64();
  ec->carrefour_monitor_overhead = r->F64();
  ec->native_minor_fault_s = r->F64();
  ec->guest_minor_fault_s = r->F64();
  ec->churn_sample_ops = r->I32();
  ec->min_region_pages = r->I64();
  DeserializeCarrefourConfig(r, &ec->carrefour);
  DeserializeAutoSelectorConfig(r, &ec->auto_selector);
  DeserializeFaultPlan(r, &ec->fault);
  ec->price_walks = r->Bool();
}

void SerializeJobResult(const JobResult& result, WireWriter* w) {
  w->Str(result.app);
  w->I32(result.domain);
  w->Bool(result.finished);
  w->F64(result.completion_seconds);
  w->F64(result.init_seconds);
  w->F64(result.compute_seconds);
  w->F64(result.imbalance_pct);
  w->F64(result.interconnect_pct);
  w->F64(result.avg_mc_util_pct);
  w->F64(result.avg_latency_cycles);
  w->F64(result.observed_disk_mb_per_s);
  w->F64(result.observed_ctx_switches_per_s);
  w->I64(result.hv_page_faults);
  w->I64(result.carrefour_migrations);
  SerializePolicy(result.final_policy, w);
  w->I32(result.policy_switches);
  w->I64(result.faults_injected);
  w->I64(result.faults_recovered);
  w->I64(result.faults_aborted);
  w->I64(result.local_walks);
  w->I64(result.remote_walks);
}

void DeserializeJobResult(WireReader* r, JobResult* result) {
  result->app = r->Str();
  result->domain = r->I32();
  result->finished = r->Bool();
  result->completion_seconds = r->F64();
  result->init_seconds = r->F64();
  result->compute_seconds = r->F64();
  result->imbalance_pct = r->F64();
  result->interconnect_pct = r->F64();
  result->avg_mc_util_pct = r->F64();
  result->avg_latency_cycles = r->F64();
  result->observed_disk_mb_per_s = r->F64();
  result->observed_ctx_switches_per_s = r->F64();
  result->hv_page_faults = r->I64();
  result->carrefour_migrations = r->I64();
  DeserializePolicy(r, &result->final_policy);
  result->policy_switches = r->I32();
  result->faults_injected = r->I64();
  result->faults_recovered = r->I64();
  result->faults_aborted = r->I64();
  result->local_walks = r->I64();
  result->remote_walks = r->I64();
}

}  // namespace

void SerializeRunSpec(const RunSpec& spec, WireWriter* w) {
  w->Str(spec.label);
  SerializeApp(spec.app, w);
  SerializeStack(spec.stack, w);
  // RunOptions. trace/obs are per-run pointers and cannot travel; the
  // parent validates them null before dispatch, the worker reconstructs
  // null. jobs/procs are forced to the serial in-worker values on receipt.
  w->I32(spec.options.threads);
  w->U64(spec.options.seed);
  SerializeEngineConfig(spec.options.engine, w);
}

void DeserializeRunSpec(WireReader* r, RunSpec* spec) {
  spec->label = r->Str();
  DeserializeApp(r, &spec->app);
  DeserializeStack(r, &spec->stack);
  spec->options = RunOptions{};
  spec->options.threads = r->I32();
  spec->options.seed = r->U64();
  DeserializeEngineConfig(r, &spec->options.engine);
  spec->options.trace = nullptr;
  spec->options.obs = nullptr;
  spec->options.jobs = 1;
  spec->options.procs = 0;
}

void SerializeRunOutcome(const RunOutcome& outcome, WireWriter* w) {
  w->Str(outcome.label);
  w->Bool(outcome.ok);
  w->Str(outcome.error);
  SerializeJobResult(outcome.result, w);
}

void DeserializeRunOutcome(WireReader* r, RunOutcome* outcome) {
  outcome->label = r->Str();
  outcome->ok = r->Bool();
  outcome->error = r->Str();
  DeserializeJobResult(r, &outcome->result);
}

// ---- Message encoders/decoders --------------------------------------------

namespace {

std::vector<uint8_t> FinishFrame(FrameType type, const WireWriter& w, std::string* error) {
  if (!w.ok()) {
    if (error != nullptr) {
      *error = w.error();
    }
    return {};
  }
  if (error != nullptr) {
    error->clear();
  }
  return EncodeFrame(type, w.bytes());
}

}  // namespace

std::vector<uint8_t> EncodeHello(std::string* error) {
  WireWriter w;
  w.U16(kWireVersion);
  w.U64(static_cast<uint64_t>(::getpid()));
  return FinishFrame(FrameType::kHello, w, error);
}

std::vector<uint8_t> EncodeWork(const WorkFrame& work, std::string* error) {
  WireWriter w;
  w.U32(work.slot);
  w.U32(work.attempt);
  SerializeRunSpec(work.spec, &w);
  return FinishFrame(FrameType::kWork, w, error);
}

std::vector<uint8_t> EncodeResult(const ResultFrame& result, std::string* error) {
  WireWriter w;
  w.U32(result.slot);
  w.U32(result.attempt);
  SerializeRunOutcome(result.outcome, &w);
  return FinishFrame(FrameType::kResult, w, error);
}

std::vector<uint8_t> EncodeShutdown() { return EncodeFrame(FrameType::kShutdown, {}); }

std::string DecodeWork(const std::vector<uint8_t>& payload, WorkFrame* out) {
  WireReader r(payload);
  out->slot = r.U32();
  out->attempt = r.U32();
  DeserializeRunSpec(&r, &out->spec);
  if (!r.ok()) {
    return r.error();
  }
  if (!r.AtEnd()) {
    return "trailing bytes after work payload";
  }
  return "";
}

std::string DecodeResult(const std::vector<uint8_t>& payload, ResultFrame* out) {
  WireReader r(payload);
  out->slot = r.U32();
  out->attempt = r.U32();
  DeserializeRunOutcome(&r, &out->outcome);
  if (!r.ok()) {
    return r.error();
  }
  if (!r.AtEnd()) {
    return "trailing bytes after result payload";
  }
  return "";
}

// ---- Worker loop ----------------------------------------------------------

namespace {

bool WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

uint64_t ChaosMix(uint64_t x) {
  // SplitMix64 finalizer — the same mixing the repo's Rng seeds with.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Chaos decisions for one (slot, attempt). Deterministic in (seed, slot,
// attempt) so the dispatcher's bounded retries always replay the same
// fate: the first `doomed` attempts of a slot fail (mode cycling through
// exit/kill/hang), later attempts succeed, and `duplicate` slots echo
// their result frame twice.
struct ChaosFate {
  bool die_before = false;    // _exit(1) without running
  bool kill_after = false;    // run, then SIGKILL before replying
  bool hang = false;          // sleep far past any deadline
  bool duplicate = false;     // send the successful result twice
};

ChaosFate DecideFate(const WorkerOptions& options, uint32_t slot, uint32_t attempt) {
  ChaosFate fate;
  if (!options.chaos) {
    return fate;
  }
  const uint64_t h = ChaosMix(options.chaos_seed ^ (0x51ab5ull + slot));
  const uint32_t doomed = static_cast<uint32_t>(h % 3);  // 0..2 failing attempts
  if (attempt < doomed) {
    switch (ChaosMix(h ^ attempt) % 3) {
      case 0:
        fate.die_before = true;
        break;
      case 1:
        fate.kill_after = true;
        break;
      default:
        fate.hang = true;
        break;
    }
  } else {
    fate.duplicate = (h >> 32) % 4 == 0;
  }
  return fate;
}

[[noreturn]] void ChaosHang() {
  // Long enough that only the dispatcher's deadline ends it.
  for (int i = 0; i < 600; ++i) {
    struct timespec ts{0, 100 * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
  }
  ::_exit(3);
}

}  // namespace

int WorkerMain(int in_fd, int out_fd, const WorkerOptions& options) {
  std::string error;
  if (!WriteAll(out_fd, EncodeHello(&error))) {
    return 1;
  }

  FrameDecoder decoder;
  uint8_t buf[64 * 1024];
  while (true) {
    WireFrame frame;
    while (!decoder.Next(&frame)) {
      if (!decoder.ok()) {
        std::fprintf(stderr, "xnuma worker: protocol error: %s\n", decoder.error().c_str());
        return 1;
      }
      const ssize_t n = ::read(in_fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return 1;
      }
      if (n == 0) {
        // Parent went away (shutdown race or parent crash): a clean exit,
        // nothing in flight is half-committed — results are all-or-nothing
        // frames.
        return 0;
      }
      decoder.Append(buf, static_cast<size_t>(n));
    }

    switch (frame.type) {
      case FrameType::kShutdown:
        return 0;
      case FrameType::kWork: {
        WorkFrame work;
        const std::string err = DecodeWork(frame.payload, &work);
        if (!err.empty()) {
          std::fprintf(stderr, "xnuma worker: bad work frame: %s\n", err.c_str());
          return 1;
        }
        const ChaosFate fate = DecideFate(options, work.slot, work.attempt);
        if (fate.die_before) {
          ::_exit(1);
        }
        if (fate.hang) {
          ChaosHang();
        }
        ResultFrame result;
        result.slot = work.slot;
        result.attempt = work.attempt;
        result.outcome = ExecuteSpec(work.spec);
        if (fate.kill_after) {
          // "Crash mid-run": the work happened but the result never leaves
          // the process — exactly what a real OOM-kill does to a worker.
          ::raise(SIGKILL);
        }
        const std::vector<uint8_t> bytes = EncodeResult(result, &error);
        if (bytes.empty()) {
          std::fprintf(stderr, "xnuma worker: cannot serialize result: %s\n", error.c_str());
          return 1;
        }
        if (!WriteAll(out_fd, bytes)) {
          return 1;
        }
        if (fate.duplicate) {
          if (!WriteAll(out_fd, bytes)) {
            return 1;
          }
        }
        break;
      }
      case FrameType::kHello:
      case FrameType::kResult:
        std::fprintf(stderr, "xnuma worker: unexpected frame type %d\n",
                     static_cast<int>(frame.type));
        return 1;
    }
  }
}

int MaybeWorkerMain(int argc, char** argv) {
  bool is_worker = false;
  WorkerOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--worker") == 0) {
      is_worker = true;
    } else if (std::strcmp(argv[i], "--worker_chaos") == 0 && i + 1 < argc) {
      options.chaos = true;
      options.chaos_seed = std::strtoull(argv[i + 1], nullptr, 10);
      ++i;
    }
  }
  if (!is_worker) {
    return -1;
  }
  return WorkerMain(STDIN_FILENO, STDOUT_FILENO, options);
}

}  // namespace xnuma
