// bench_suite: the repository benchmark (README.md beside this file).
//
// Four fixed workloads mirror the paper's traffic and run through the public
// API only: tmpi::World, Comm, isend/irecv/wait_all, allreduce, and
// rp::Session/rp::Channel. Trials run in forked children of a parent that
// never builds a World, so peak RSS and allocator state belong to one
// workload. Every trial builds a fresh World, as every experiment does.
//
// Usage: bench_suite [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//                    [--quick] [--trace-dir DIR]
//
// Per workload the output is one JSON header line (resolved engine, match
// policy, recorder state, TMPI_* overlays), one `workload metric value unit`
// row per metric, and a final JSON line with exactly the keys correct,
// attempted, failed and metrics. Without --trace the metrics are the
// end-to-end ones; with it they are the per-layer ones. The exit code is
// non-zero if any operation failed or any check did not hold.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/session.h"
#include "tmpi/tmpi.h"

extern char** environ;

namespace {

constexpr int kRanks = 2;
constexpr int kThreads = 2;  // per rank: 4 busy host threads in all
constexpr int kWarmupTrials = 3;
constexpr int kMinTrials = 200;  // p95 then has >= 10 samples beyond it
constexpr int kTracedTrials = 20;
constexpr int kQuickTrials = 5;
constexpr int kQuickTracedTrials = 2;
// Per-thread ring of the library's recorder in the latency trials; sized so
// the busiest workload (msgrate-shared) drops no event.
constexpr int kLibTraceRing = 1 << 17;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 over a sequence of words: the seeded source of every payload.
std::uint64_t hash(std::initializer_list<std::uint64_t> words) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (std::uint64_t w : words) {
    h += w + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return h;
}

// ---- Benchmark-side spans ---------------------------------------------------
//
// Traced trials time every call into a layer's public functions with a
// steady-clock pair. Records go to per-thread arrays reserved before the
// trials start; untraced trials pay one thread-local null test per call.

enum class Layer : std::uint8_t {
  kTrial,
  kWorldCtor,
  kSetupRun,
  kCommSetup,
  kDataRun,
  kRankBody,
  kParallel,
  kThreadBody,
  kIsend,
  kIrecv,
  kWaitAll,
  kSend,
  kRecv,
  kChannelIsend,
  kChannelIrecv,
  kAllreduce,
  kCount
};

struct LayerInfo {
  const char* name;
  const char* group;  ///< library layer the call enters; null for the benchmark's own spans
};

constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

constexpr std::array<LayerInfo, kLayerCount> kLayers{{
    {"trial", nullptr},
    {"tmpi.world.ctor", nullptr},
    {"tmpi.world.run.setup", nullptr},
    {"comm.setup", nullptr},
    {"tmpi.world.run", nullptr},
    {"rank.body", nullptr},
    {"tmpi.rank.parallel", nullptr},
    {"thread.body", nullptr},
    {"tmpi.p2p.isend", "tmpi.p2p"},
    {"tmpi.p2p.irecv", "tmpi.p2p"},
    {"tmpi.p2p.wait_all", "tmpi.p2p"},
    {"tmpi.p2p.send", "tmpi.p2p"},
    {"tmpi.p2p.recv", "tmpi.p2p"},
    {"core.channel.isend", "core.channel"},
    {"core.channel.irecv", "core.channel"},
    {"tmpi.coll.allreduce", "tmpi.coll"},
}};
constexpr std::array<const char*, 3> kGroups{"tmpi.p2p", "core.channel", "tmpi.coll"};

struct SpanRec {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t trial = 0;
  Layer layer = Layer::kTrial;
};

struct SpanBuf {
  std::vector<SpanRec> recs;
  std::uint64_t base = 0;     ///< slot index in the high bits of every id
  std::uint64_t seq = 0;
  std::uint64_t current = 0;  ///< innermost open span on the bound thread
};

/// One buffer per thread slot: 0 is the main thread, 1..kRanks the rank
/// threads, then one per (rank, team thread).
struct SpanStore {
  std::vector<SpanBuf> slots;

  explicit SpanStore(std::size_t per_thread_capacity)
      : slots(1 + kRanks + kRanks * kThreads) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      slots[i].base = static_cast<std::uint64_t>(i + 1) << 40;
      slots[i].recs.reserve(per_thread_capacity);
    }
  }
};

/// Index of team thread `tid` of `rank` among all kRanks * kThreads.
std::size_t team_index(int rank, int tid) {
  return static_cast<std::size_t>(rank * kThreads + tid);
}
std::size_t rank_slot(int rank) { return 1 + static_cast<std::size_t>(rank); }
std::size_t thread_slot(int rank, int tid) { return 1 + kRanks + team_index(rank, tid); }

thread_local SpanBuf* tl_spans = nullptr;
// Written by the main thread between trials, read by threads created after.
std::uint32_t g_trial = 0;

class Span {
 public:
  explicit Span(Layer layer) : buf_(tl_spans), layer_(layer) {
    if (buf_ == nullptr) return;
    id_ = buf_->base | ++buf_->seq;
    parent_ = buf_->current;
    buf_->current = id_;
    t0_ = now_ns();
  }
  ~Span() {
    if (buf_ == nullptr) return;
    const std::int64_t t1 = now_ns();
    buf_->current = parent_;
    buf_->recs.push_back(SpanRec{t0_, t1, id_, parent_, g_trial, layer_});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanBuf* buf_;
  Layer layer_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t t0_ = 0;
};

/// Binds the calling thread to a span slot under a parent opened on another
/// thread (a World::run or Rank::parallel caller).
class SpanThread {
 public:
  SpanThread(SpanStore* store, std::size_t slot, std::uint64_t parent) {
    if (store == nullptr) return;
    tl_spans = &store->slots[slot];
    tl_spans->current = parent;
  }
  ~SpanThread() { tl_spans = nullptr; }
  SpanThread(const SpanThread&) = delete;
  SpanThread& operator=(const SpanThread&) = delete;
};

std::uint64_t current_span() { return tl_spans != nullptr ? tl_spans->current : 0; }

template <typename F>
decltype(auto) timed(Layer layer, F&& f) {
  Span s(layer);
  return f();
}

// ---- Workloads --------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual tmpi::WorldConfig config() const = 0;
  /// Messages the fabric must count in one trial (World::snapshot().messages).
  [[nodiscard]] virtual std::uint64_t messages_per_trial() const = 0;
  /// Checked operations per trial: the unit of `attempted` and `failed`.
  [[nodiscard]] virtual std::uint64_t ops_per_trial() const = 0;
  /// Upper bound on the spans one team thread records per trial.
  [[nodiscard]] virtual std::size_t spans_per_thread() const = 0;
  /// Per-rank communicator, endpoint or session creation (timed as setup).
  virtual void setup(tmpi::Rank& rank) = 0;
  /// One team thread's data phase; returns the number of failed checks.
  virtual std::uint64_t thread_body(tmpi::Rank& rank, int tid) = 0;
  /// Drop every handle onto the trial's World before it is destroyed.
  virtual void teardown() = 0;
};

/// Fig. 1(a): windows of 8 B isend/irecv with a 0 B ack per window, rank 0's
/// threads sending to rank 1's. `tags` selects the Listing-2 communicator
/// (no wildcards, one-to-one tag-bit VCI map over two VCIs) instead of the
/// world communicator on one VCI.
class MsgRate final : public Workload {
 public:
  static constexpr int kWindow = 32;
  static constexpr int kMsgsPerThread = 4096;
  static constexpr int kWindows = kMsgsPerThread / kWindow;

  MsgRate(bool tags, std::uint64_t seed) : tags_(tags), seed_(seed) {}

  [[nodiscard]] tmpi::WorldConfig config() const override {
    tmpi::WorldConfig wc;
    wc.nranks = kRanks;
    wc.ranks_per_node = 1;
    wc.num_vcis = tags_ ? kThreads : 1;
    return wc;
  }
  [[nodiscard]] std::uint64_t messages_per_trial() const override {
    return static_cast<std::uint64_t>(kThreads) * (kMsgsPerThread + kWindows);
  }
  [[nodiscard]] std::uint64_t ops_per_trial() const override { return messages_per_trial(); }
  [[nodiscard]] std::size_t spans_per_thread() const override {
    return kMsgsPerThread + 2 * kWindows + 1;
  }

  void setup(tmpi::Rank& rank) override {
    tmpi::Comm world = rank.world_comm();
    if (tags_) {
      tmpi::Info info;
      info.set("mpi_assert_allow_overtaking", "true");
      info.set("mpi_assert_no_any_tag", "true");
      info.set("mpi_assert_no_any_source", "true");
      info.set("tmpi_num_vcis", kThreads);
      info.set("tmpi_num_tag_bits_vci", kTidBits);
      info.set("tmpi_place_tag_bits_local_vci", "MSB");
      info.set("tmpi_tag_vci_hash_type", "one-to-one");
      world = world.dup_with_info(info);
    }
    comms_[static_cast<std::size_t>(rank.rank())] = world;
  }

  std::uint64_t thread_body(tmpi::Rank& rank, int tid) override {
    const tmpi::Comm& comm = comms_[static_cast<std::size_t>(rank.rank())];
    const int tag_bits = rank.world().config().tag_bits;
    // Thread ids ride in the tag: plain on the world communicator, in the
    // Listing-2 source/destination fields on the hinted one.
    const tmpi::Tag tag =
        tags_ ? static_cast<tmpi::Tag>((static_cast<unsigned>(tid) << (tag_bits - kTidBits)) |
                                       (static_cast<unsigned>(tid) << (tag_bits - 2 * kTidBits)) |
                                       1u)
              : static_cast<tmpi::Tag>(tid);
    const tmpi::Tag ack = tags_ ? tag + 1 : static_cast<tmpi::Tag>(kThreads + tid);
    const int peer = 1 - rank.rank();
    const bool sender = rank.rank() == 0;

    std::array<std::uint64_t, kWindow> slots{};
    std::array<tmpi::Request, kWindow> reqs;
    std::uint64_t failed = 0;
    for (int w = 0; w < kWindows; ++w) {
      // One value per window: a message that never lands leaves the previous
      // window's value in its slot. Overtaking within a window is allowed.
      const std::uint64_t v = hash({seed_, static_cast<std::uint64_t>(tid),
                                    static_cast<std::uint64_t>(w)});
      if (sender) {
        slots[0] = v;
        for (auto& r : reqs) {
          r = timed(Layer::kIsend,
                    [&] { return tmpi::isend(slots.data(), 8, tmpi::kByte, peer, tag, comm); });
        }
        timed(Layer::kWaitAll, [&] { tmpi::wait_all(reqs.data(), reqs.size()); });
        timed(Layer::kRecv, [&] { tmpi::recv(nullptr, 0, tmpi::kByte, peer, ack, comm); });
      } else {
        for (int i = 0; i < kWindow; ++i) {
          reqs[static_cast<std::size_t>(i)] = timed(Layer::kIrecv, [&] {
            return tmpi::irecv(&slots[static_cast<std::size_t>(i)], 8, tmpi::kByte, peer, tag,
                               comm);
          });
        }
        timed(Layer::kWaitAll, [&] { tmpi::wait_all(reqs.data(), reqs.size()); });
        for (std::uint64_t s : slots) failed += s != v ? 1 : 0;
        timed(Layer::kSend, [&] { tmpi::send(nullptr, 0, tmpi::kByte, peer, ack, comm); });
      }
    }
    return failed;
  }

  void teardown() override { comms_ = {}; }

 private:
  static constexpr int kTidBits = 1;

  bool tags_;
  std::uint64_t seed_;
  std::array<tmpi::Comm, kRanks> comms_;
};

/// Fig. 1(b): 9-point halo over 2x1 processes x 1x2 threads through an
/// endpoints rp::Session with one stream per thread. Every iteration each
/// thread swaps a 128 KiB face (rendezvous) with the thread beside it in the
/// other process and a 64 B corner (eager) with the diagonal one.
class HaloRndv final : public Workload {
 public:
  static constexpr std::size_t kFaceBytes = 128 * 1024;
  static constexpr std::size_t kCornerBytes = 64;
  static constexpr int kIters = 64;

  explicit HaloRndv(std::uint64_t seed) {
    for (int r = 0; r < kRanks; ++r) {
      for (int t = 0; t < kThreads; ++t) {
        Buffers& b = bufs_[team_index(r, t)];
        const int nbr = 1 - r;
        b.send_face = pattern(seed, r, t, 0, kFaceBytes);
        b.send_corner = pattern(seed, r, t, 1, kCornerBytes);
        b.want_face = pattern(seed, nbr, t, 0, kFaceBytes);
        b.want_corner = pattern(seed, nbr, 1 - t, 1, kCornerBytes);
        b.recv_face.assign(kFaceBytes, std::byte{0});
        b.recv_corner.assign(kCornerBytes, std::byte{0});
      }
    }
  }

  [[nodiscard]] tmpi::WorldConfig config() const override {
    tmpi::WorldConfig wc;
    wc.nranks = kRanks;
    wc.ranks_per_node = 1;
    return wc;
  }
  [[nodiscard]] std::uint64_t messages_per_trial() const override {
    return static_cast<std::uint64_t>(kRanks) * kThreads * 2 * kIters;
  }
  [[nodiscard]] std::uint64_t ops_per_trial() const override { return messages_per_trial(); }
  [[nodiscard]] std::size_t spans_per_thread() const override { return 5 * kIters + 1; }

  void setup(tmpi::Rank& rank) override {
    rp::SessionConfig sc;
    sc.backend = rp::Backend::kEndpoints;
    sc.streams = kThreads;
    sessions_[static_cast<std::size_t>(rank.rank())] = rp::Session::create(rank, sc);
  }

  std::uint64_t thread_body(tmpi::Rank& rank, int tid) override {
    const int r = rank.rank();
    rp::Channel ch = sessions_[static_cast<std::size_t>(r)]->channel(tid);
    Buffers& b = bufs_[team_index(r, tid)];
    const rp::PeerAddr face_peer{1 - r, tid};
    const rp::PeerAddr corner_peer{1 - r, 1 - tid};
    std::array<tmpi::Request, 4> reqs;
    std::uint64_t failed = 0;
    for (int it = 0; it < kIters; ++it) {
      reqs[0] = timed(Layer::kChannelIrecv,
                      [&] { return ch.irecv(b.recv_face.data(), kFaceBytes, face_peer, 0); });
      reqs[1] = timed(Layer::kChannelIrecv,
                      [&] { return ch.irecv(b.recv_corner.data(), kCornerBytes, corner_peer, 1); });
      stamp(b.send_face, it);
      stamp(b.send_corner, it);
      reqs[2] = timed(Layer::kChannelIsend,
                      [&] { return ch.isend(b.send_face.data(), kFaceBytes, face_peer, 0); });
      reqs[3] = timed(Layer::kChannelIsend,
                      [&] { return ch.isend(b.send_corner.data(), kCornerBytes, corner_peer, 1); });
      timed(Layer::kWaitAll, [&] { tmpi::wait_all(reqs.data(), reqs.size()); });
      stamp(b.want_face, it);
      stamp(b.want_corner, it);
      failed += std::memcmp(b.recv_face.data(), b.want_face.data(), kFaceBytes) != 0 ? 1 : 0;
      failed +=
          std::memcmp(b.recv_corner.data(), b.want_corner.data(), kCornerBytes) != 0 ? 1 : 0;
    }
    return failed;
  }

  void teardown() override { sessions_ = {}; }

 private:
  struct Buffers {
    std::vector<std::byte> send_face, send_corner, want_face, want_corner, recv_face, recv_corner;
  };

  static std::vector<std::byte> pattern(std::uint64_t seed, int rank, int tid, int kind,
                                        std::size_t n) {
    std::vector<std::byte> out(n);
    for (std::size_t i = 0; i < n; i += 8) {
      const std::uint64_t w = hash({seed, static_cast<std::uint64_t>(rank),
                                    static_cast<std::uint64_t>(tid),
                                    static_cast<std::uint64_t>(kind), i});
      std::memcpy(out.data() + i, &w, std::min<std::size_t>(8, n - i));
    }
    return out;
  }

  /// Both ends of a halo carry the iteration, so a buffer left over from an
  /// earlier iteration fails the comparison.
  static void stamp(std::vector<std::byte>& buf, int iter) {
    const auto v = static_cast<std::uint64_t>(iter);
    std::memcpy(buf.data(), &v, sizeof v);
    std::memcpy(buf.data() + buf.size() - sizeof v, &v, sizeof v);
  }

  std::array<Buffers, kRanks * kThreads> bufs_;
  std::array<std::optional<rp::Session>, kRanks> sessions_;
};

/// Fig. 7 (VASP): one duplicated communicator per thread, each thread running
/// sum-allreduces of seeded integer-valued doubles, every sum checked exactly.
class AllreduceComms final : public Workload {
 public:
  static constexpr int kCalls = 128;
  static constexpr int kCount = 1024;

  explicit AllreduceComms(std::uint64_t seed) {
    for (int r = 0; r < kRanks; ++r) {
      for (int t = 0; t < kThreads; ++t) {
        auto& base = base_[team_index(r, t)];
        base.resize(kCount);
        for (int i = 0; i < kCount; ++i) {
          // 20-bit integers: every partial sum is exact in a double.
          base[static_cast<std::size_t>(i)] = static_cast<double>(
              hash({seed, static_cast<std::uint64_t>(r), static_cast<std::uint64_t>(t),
                    static_cast<std::uint64_t>(i)}) &
              0xFFFFFu);
        }
      }
    }
    for (int t = 0; t < kThreads; ++t) {
      auto& sum = sum_[static_cast<std::size_t>(t)];
      sum.resize(kCount);
      for (int i = 0; i < kCount; ++i) {
        double s = 0;
        for (int r = 0; r < kRanks; ++r) {
          s += base_[team_index(r, t)][static_cast<std::size_t>(i)];
        }
        sum[static_cast<std::size_t>(i)] = s;
      }
    }
    for (auto& v : in_) v.resize(kCount);
    for (auto& v : out_) v.resize(kCount);
  }

  [[nodiscard]] tmpi::WorldConfig config() const override {
    tmpi::WorldConfig wc;
    wc.nranks = kRanks;
    wc.ranks_per_node = 1;
    wc.num_vcis = kThreads;  // the per-thread dups land on distinct VCIs
    return wc;
  }
  // One rank per node: the hierarchical allreduce is a leader reduce plus a
  // leader bcast, one message each.
  [[nodiscard]] std::uint64_t messages_per_trial() const override {
    return static_cast<std::uint64_t>(kThreads) * kCalls * 2;
  }
  [[nodiscard]] std::uint64_t ops_per_trial() const override {
    return static_cast<std::uint64_t>(kRanks) * kThreads * kCalls;
  }
  [[nodiscard]] std::size_t spans_per_thread() const override { return kCalls + 1; }

  void setup(tmpi::Rank& rank) override {
    const tmpi::Comm world = rank.world_comm();
    for (auto& c : comms_[static_cast<std::size_t>(rank.rank())]) c = world.dup();
  }

  std::uint64_t thread_body(tmpi::Rank& rank, int tid) override {
    const int r = rank.rank();
    const std::size_t slot = team_index(r, tid);
    const tmpi::Comm& comm = comms_[static_cast<std::size_t>(r)][static_cast<std::size_t>(tid)];
    const auto& base = base_[slot];
    const auto& sum = sum_[static_cast<std::size_t>(tid)];
    auto& in = in_[slot];
    auto& out = out_[slot];
    std::uint64_t failed = 0;
    for (int k = 0; k < kCalls; ++k) {
      for (std::size_t i = 0; i < in.size(); ++i) in[i] = base[i] + k;
      timed(Layer::kAllreduce, [&] {
        tmpi::allreduce(in.data(), out.data(), kCount, tmpi::kDouble, tmpi::Op::kSum, comm);
      });
      bool bad = false;
      for (std::size_t i = 0; i < out.size(); ++i) bad |= out[i] != sum[i] + kRanks * k;
      failed += bad ? 1 : 0;
    }
    return failed;
  }

  void teardown() override { comms_ = {}; }

 private:
  std::array<std::vector<double>, kRanks * kThreads> base_, in_, out_;
  std::array<std::vector<double>, kThreads> sum_;
  std::array<std::array<tmpi::Comm, kThreads>, kRanks> comms_;
};

constexpr std::array<const char*, 4> kWorkloads{"msgrate-shared", "msgrate-tags", "halo-rndv",
                                                "allreduce-comms"};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "msgrate-shared") return std::make_unique<MsgRate>(false, seed);
  if (name == "msgrate-tags") return std::make_unique<MsgRate>(true, seed);
  if (name == "halo-rndv") return std::make_unique<HaloRndv>(seed);
  if (name == "allreduce-comms") return std::make_unique<AllreduceComms>(seed);
  return nullptr;
}

// ---- Trials -----------------------------------------------------------------

struct OpLat {
  double p50 = 0;
  double p99 = 0;
};

struct Trial {
  double cal_ns = 0;  ///< the calibration loop just before the trial
  double ctor_ns = 0;
  double comm_setup_ns = 0;
  double data_ns = 0;  ///< host time of the world.run data phase
  double virt_ns = 0;  ///< World::elapsed()
  std::uint64_t failed_ops = 0;
  // Library counters (World::snapshot()).
  double messages = 0;
  double probes_per_msg = 0;
  double bucket_hit_frac = 0;
  double unexpected_frac = 0;
  double rndv_frac = 0;
  double contended_frac = 0;
  double busy_ns_per_msg = 0;
  double imbalance = 0;
  // Library recorder (latency trials only).
  OpLat send, recv, coll;
  double trace_events = 0;
  double trace_dropped = 0;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The host's speed drifts by several percent over seconds and minutes on a
// shared machine, moving host times between runs more than any bound worth
// having. A fixed integer loop, timed on the main thread just before each
// trial while no other benchmark thread runs, tracks that drift: end-to-end
// host times are scaled by kCalRefNs / cal_ns, that is, reported at the host
// speed where the loop takes kCalRefNs.
constexpr int kCalIters = 50000;
constexpr double kCalRefNs = 75000;

double calibrate_ns() {
  const std::int64_t t0 = now_ns();
  volatile std::uint64_t x = 1;
  for (int i = 0; i < kCalIters; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<double>(now_ns() - t0);
}

void read_counters(const tmpi::net::NetStatsSnapshot& s, Trial& t) {
  const auto msgs = static_cast<double>(s.messages);
  t.messages = msgs;
  t.probes_per_msg = ratio(static_cast<double>(s.match_probes), msgs);
  t.bucket_hit_frac = ratio(static_cast<double>(s.bucket_hits),
                            static_cast<double>(s.bucket_hits + s.bucket_misses +
                                                s.wildcard_fallbacks));
  t.unexpected_frac = ratio(static_cast<double>(s.unexpected_messages), msgs);
  t.rndv_frac = ratio(static_cast<double>(s.rendezvous_messages), msgs);
  t.contended_frac = ratio(static_cast<double>(s.contended_acquisitions),
                           static_cast<double>(s.lock_acquisitions));
  t.busy_ns_per_msg = ratio(static_cast<double>(s.ctx_busy_ns), msgs);
  double max_busy = 0;
  double sum_busy = 0;
  for (const auto& c : s.channels) {
    max_busy = std::max(max_busy, static_cast<double>(c.busy_ns));
    sum_busy += static_cast<double>(c.busy_ns);
  }
  t.imbalance = ratio(max_busy * static_cast<double>(s.channels.size()), sum_busy);
  for (const auto& row : s.op_latency) {
    OpLat* dst = row.op == "Send"   ? &t.send
                 : row.op == "Recv" ? &t.recv
                 : row.op == "Coll" ? &t.coll
                                    : nullptr;
    if (dst != nullptr) *dst = OpLat{static_cast<double>(row.p50), static_cast<double>(row.p99)};
  }
}

/// One trial on a fresh World. With `spans` non-null every call is timed
/// into it; with `lib_trace` the library's own recorder runs as well.
Trial run_trial(Workload& wl, SpanStore* spans, bool lib_trace) {
  Trial t;
  t.cal_ns = calibrate_ns();
  tmpi::WorldConfig cfg = wl.config();
  if (lib_trace) {
    cfg.trace_info.set("tmpi_trace", "1");
    cfg.trace_info.set("tmpi_trace_path", "");
    cfg.trace_info.set("tmpi_trace_buffer_events", kLibTraceRing);
  }
  std::unique_ptr<tmpi::World> world;
  SpanThread main_bind(spans, 0, 0);
  Span trial_span(Layer::kTrial);
  try {
    const std::int64_t c0 = now_ns();
    {
      Span s(Layer::kWorldCtor);
      world = std::make_unique<tmpi::World>(cfg);
    }
    t.ctor_ns = static_cast<double>(now_ns() - c0);

    // All ranks start creating together, so the setup time excludes thread
    // start-up skew. The barrier spins: a futex wake-up would add its own.
    std::atomic<int> arrived{0};
    std::array<std::int64_t, kRanks> s0{};
    std::array<std::int64_t, kRanks> s1{};
    {
      Span s(Layer::kSetupRun);
      const std::uint64_t parent = current_span();
      world->run([&](tmpi::Rank& rank) {
        const auto r = static_cast<std::size_t>(rank.rank());
        SpanThread bind(spans, rank_slot(rank.rank()), parent);
        arrived.fetch_add(1, std::memory_order_acq_rel);
        while (arrived.load(std::memory_order_acquire) < kRanks) {
        }
        s0[r] = now_ns();
        timed(Layer::kCommSetup, [&] { wl.setup(rank); });
        s1[r] = now_ns();
      });
    }
    t.comm_setup_ns =
        static_cast<double>(*std::max_element(s1.begin(), s1.end()) -
                            *std::min_element(s0.begin(), s0.end()));

    std::atomic<std::uint64_t> failed{0};
    const std::int64_t d0 = now_ns();
    {
      Span s(Layer::kDataRun);
      const std::uint64_t parent = current_span();
      world->run([&](tmpi::Rank& rank) {
        SpanThread bind(spans, rank_slot(rank.rank()), parent);
        Span body(Layer::kRankBody);
        Span par(Layer::kParallel);
        const std::uint64_t team_parent = current_span();
        rank.parallel(kThreads, [&](int tid) {
          SpanThread tbind(spans, thread_slot(rank.rank(), tid), team_parent);
          Span tbody(Layer::kThreadBody);
          failed.fetch_add(wl.thread_body(rank, tid), std::memory_order_relaxed);
        });
      });
    }
    t.data_ns = static_cast<double>(now_ns() - d0);
    t.virt_ns = static_cast<double>(world->elapsed());

    const tmpi::net::NetStatsSnapshot snap = world->snapshot();
    read_counters(snap, t);
    if (world->tracer() != nullptr) {
      t.trace_events = static_cast<double>(world->tracer()->recorded());
      t.trace_dropped = static_cast<double>(world->tracer()->dropped());
    }
    t.failed_ops = failed.load();
    if (snap.messages != wl.messages_per_trial()) {
      std::fprintf(stderr, "bench_suite: trial counted %llu messages, expected %llu\n",
                   static_cast<unsigned long long>(snap.messages),
                   static_cast<unsigned long long>(wl.messages_per_trial()));
      t.failed_ops = wl.ops_per_trial();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: trial failed: %s\n", e.what());
    t.failed_ops = wl.ops_per_trial();
  }
  wl.teardown();
  world.reset();
  return t;
}

// ---- Statistics and output --------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

template <typename F>
std::vector<double> column(const std::vector<Trial>& trials, F&& field) {
  std::vector<double> out;
  out.reserve(trials.size());
  for (const Trial& t : trials) out.push_back(field(t));
  return out;
}

enum class Kind { kEndToEnd, kLayer, kInfo };

struct Metric {
  std::string name;
  double value;
  std::string unit;
  Kind kind;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Per-layer attribution over the span-traced trials.
struct SpanReport {
  double forkjoin_ns = 0;  ///< median per trial: data run minus slowest thread body
  std::array<double, kLayerCount> total{};
  /// Span time not covered by any child span. Children on parallel threads
  /// overlap, so the covered part is the union of their intervals.
  std::array<double, kLayerCount> self{};
  std::array<double, kLayerCount> median{};
  std::array<double, kLayerCount> count{};
};

SpanReport summarize(const SpanStore& store) {
  SpanReport out;
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const SpanBuf& b : store.slots) {
    for (const SpanRec& r : b.recs) children[r.parent].emplace_back(r.t0, r.t1);
  }
  std::array<std::vector<double>, kLayerCount> durs;
  std::unordered_map<std::uint32_t, double> run_ns;
  std::unordered_map<std::uint32_t, double> slowest_body_ns;
  for (const SpanBuf& b : store.slots) {
    for (const SpanRec& r : b.recs) {
      const auto li = static_cast<std::size_t>(r.layer);
      const auto d = static_cast<double>(r.t1 - r.t0);
      std::int64_t covered = 0;
      if (auto it = children.find(r.id); it != children.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t reach = r.t0;
        for (auto [c0, c1] : iv) {
          c0 = std::max(c0, reach);
          c1 = std::min(c1, r.t1);
          if (c1 > c0) {
            covered += c1 - c0;
            reach = c1;
          }
        }
      }
      out.total[li] += d;
      out.self[li] += d - static_cast<double>(covered);
      durs[li].push_back(d);
      if (r.layer == Layer::kDataRun) run_ns[r.trial] = d;
      if (r.layer == Layer::kThreadBody) {
        slowest_body_ns[r.trial] = std::max(slowest_body_ns[r.trial], d);
      }
    }
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    out.median[l] = quantile(durs[l], 0.5);
    out.count[l] = static_cast<double>(durs[l].size());
  }
  std::vector<double> forkjoin;
  for (const auto& [trial, d] : run_ns) forkjoin.push_back(d - slowest_body_ns[trial]);
  out.forkjoin_ns = quantile(forkjoin, 0.5);
  return out;
}

/// The spans of one trial as a Chrome trace: one track per thread slot,
/// complete ("X") events carrying their id and parent.
void write_chrome_trace(const SpanStore& store, std::uint32_t trial, const std::string& path) {
  struct Row {
    const SpanRec* rec;
    std::size_t slot;
  };
  std::vector<Row> rows;
  std::int64_t origin = INT64_MAX;
  for (std::size_t s = 0; s < store.slots.size(); ++s) {
    for (const SpanRec& r : store.slots[s].recs) {
      if (r.trial != trial) continue;
      rows.push_back(Row{&r, s});
      origin = std::min(origin, r.t0);
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.rec->t0 != b.rec->t0 ? a.rec->t0 < b.rec->t0 : a.rec->t1 > b.rec->t1;
  });
  std::ofstream os(path);
  os << "{\"traceEvents\":[\n";
  for (std::size_t s = 0; s < store.slots.size(); ++s) {
    const std::size_t team = s - 1 - kRanks;
    const std::string name =
        s == 0 ? "main"
        : s <= kRanks
            ? "rank" + std::to_string(s - 1)
            : "rank" + std::to_string(team / kThreads) + ".t" + std::to_string(team % kThreads);
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" << s
       << ",\"ts\":0,\"args\":{\"name\":\"" << name << "\"}},\n";
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SpanRec& r = *rows[i].rec;
    os << "{\"ph\":\"X\",\"name\":\"" << kLayers[static_cast<std::size_t>(r.layer)].name
       << "\",\"pid\":0,\"tid\":" << rows[i].slot
       << ",\"ts\":" << fmt(static_cast<double>(r.t0 - origin) / 1e3)
       << ",\"dur\":" << fmt(static_cast<double>(r.t1 - r.t0) / 1e3) << ",\"args\":{\"id\":"
       << r.id << ",\"parent\":" << r.parent << "}}" << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

std::string header_json(const std::string& name, std::uint64_t seed, bool trace,
                        const Workload& wl) {
  // Resolve what the environment turns the default configuration into.
  const tmpi::World probe(wl.config());
  const char* policy = "auto";
  if (probe.match_policy() == tmpi::detail::MatchPolicy::kList) policy = "list";
  if (probe.match_policy() == tmpi::detail::MatchPolicy::kBucket) policy = "bucket";
  std::string env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("TMPI_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    std::fprintf(stderr, "bench_suite: warning: %s is set and changes the measured program\n",
                 kv.c_str());
    env += (env.empty() ? "" : ",") + ("\"" + json_escape(kv.substr(0, eq)) + "\":\"" +
                                       json_escape(kv.substr(eq + 1)) + "\"");
  }
  return "{\"bench_suite\":{\"workload\":\"" + name + "\",\"seed\":" + std::to_string(seed) +
         ",\"trace\":" + (trace ? "1" : "0") + ",\"exec_mode\":\"" +
         (probe.pdes() != nullptr ? "parallel" : "serial") + "\",\"match_policy\":\"" + policy +
         "\",\"flightrec\":" + (probe.flightrec() != nullptr ? "true" : "false") +
         ",\"tracer\":" + (probe.tracer() != nullptr ? "true" : "false") +
         ",\"watchdog\":" + (probe.watchdog() != nullptr ? "true" : "false") + ",\"env\":{" +
         env + "}}}";
}

struct Options {
  std::string workload;  ///< empty: all four
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool quick = false;
  std::string trace_dir = "bench_suite_traces";
};

// ---- Child processes --------------------------------------------------------
//
// A run of one workload forks kChildren measuring processes one after the
// other, then with --trace one traced process. The parent never builds a
// World, so every child starts from the same memory and allocator state, and
// pooling the children's trials averages out what differs between processes.
// Children report through a pipe as tagged fixed-size records.

constexpr int kChildren = 4;

enum Record : char {
  kWarmupTrial = 'W',
  kPlainTrial = 'P',
  kSpanTrial = 'S',
  kLibTrial = 'L',
  kRss = 'M',
  kSpans = 'R',
};

void write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) throw std::runtime_error("bench_suite: report pipe write failed");
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Reads exactly `n` bytes; false on end of file before the first byte.
bool read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = read(fd, p + got, n - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      if (got == 0) return false;
      throw std::runtime_error("bench_suite: truncated child report");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

template <typename T>
void send(int fd, Record tag, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_all(fd, &tag, 1);
  write_all(fd, &value, sizeof value);
}

/// Everything the children of one workload run reported.
struct Pool {
  std::vector<Trial> plain, spanned, lib;
  std::vector<double> rss_mib;
  std::optional<SpanReport> spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool children_ok = true;

  void read_record(int fd, char tag, std::uint64_t ops_per_trial) {
    if (tag == kRss) {
      double v = 0;
      read_all(fd, &v, sizeof v);
      rss_mib.push_back(v);
    } else if (tag == kSpans) {
      SpanReport r;
      read_all(fd, &r, sizeof r);
      spans = r;
    } else {
      Trial t;
      read_all(fd, &t, sizeof t);
      attempted += ops_per_trial;
      failed += t.failed_ops;
      if (tag == kPlainTrial) plain.push_back(t);
      if (tag == kSpanTrial) spanned.push_back(t);
      if (tag == kLibTrial) lib.push_back(t);
    }
  }
};

/// Runs `body(fd)` in a forked child and feeds its records to `pool`.
template <typename Body>
void in_child(Pool& pool, std::uint64_t ops_per_trial, Body&& body) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("bench_suite: pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("bench_suite: fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      body(fds[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_suite: %s\n", e.what());
      code = 1;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(code);
  }
  close(fds[1]);
  try {
    char tag = 0;
    while (read_all(fds[0], &tag, 1)) pool.read_record(fds[0], tag, ops_per_trial);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    pool.children_ok = false;
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    pool.children_ok = false;
  }
}

/// Untraced trials for `seconds` (and at least `min_trials`); peak RSS is
/// sampled after exactly `min_trials`, a fixed amount of work, so a build
/// that fits more trials into the time keeps more results without reading
/// as a larger footprint.
void measure(Workload& wl, int warmups, double seconds, std::size_t min_trials, int fd) {
  for (int i = 0; i < warmups; ++i) send(fd, kWarmupTrial, run_trial(wl, nullptr, false));
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t n = 1; n <= min_trials || now_ns() - start < budget_ns; ++n) {
    send(fd, kPlainTrial, run_trial(wl, nullptr, false));
    if (n == min_trials) {
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      send(fd, kRss, static_cast<double>(ru.ru_maxrss) / 1024.0);
    }
  }
}

/// Span-traced trials, then trials under the library's recorder; writes the
/// last span-traced trial as a Chrome trace.
void measure_traced(Workload& wl, int trials, const std::string& trace_path, int fd) {
  SpanStore store(wl.spans_per_thread() * static_cast<std::size_t>(trials) + 8);
  for (int i = 0; i < trials; ++i) {
    g_trial = static_cast<std::uint32_t>(i);
    send(fd, kSpanTrial, run_trial(wl, &store, false));
  }
  for (int i = 0; i < trials; ++i) send(fd, kLibTrial, run_trial(wl, nullptr, true));
  send(fd, kSpans, summarize(store));
  write_chrome_trace(store, static_cast<std::uint32_t>(trials - 1), trace_path);
}

/// Turns a workload's pooled reports into metric rows; `checks_ok` is
/// cleared when a built-in check does not hold.
std::vector<Metric> metrics_of(const Workload& wl, const Pool& pool, bool quick,
                               bool& checks_ok) {
  std::vector<Metric> rows;
  const auto add = [&](const std::string& n, double v, const char* unit, Kind k) {
    rows.push_back(Metric{n, v, unit, k});
  };
  const auto msgs_per_trial = static_cast<double>(wl.messages_per_trial());
  const auto per_msg = [&](const std::vector<Trial>& ts) {
    return column(ts, [&](const Trial& t) {
      return t.data_ns * (kCalRefNs / t.cal_ns) / msgs_per_trial;
    });
  };
  const auto virt_of = [](const std::vector<Trial>& ts) {
    return column(ts, [](const Trial& t) { return t.virt_ns; });
  };
  const std::vector<Trial>& plain = pool.plain;
  const auto host = per_msg(plain);
  const auto virt = virt_of(plain);
  const auto setup = column(plain, [](const Trial& t) {
    return (t.ctor_ns + t.comm_setup_ns) * (kCalRefNs / t.cal_ns);
  });

  add("host_ns_per_msg", quantile(host, 0.5), "ns", Kind::kEndToEnd);
  add("host_ns_per_msg_p95", quantile(host, 0.95), "ns", Kind::kEndToEnd);
  add("virt_makespan_us", quantile(virt, 0.5) / 1e3, "vus", Kind::kEndToEnd);
  add("virt_makespan_us_p95", quantile(virt, 0.95) / 1e3, "vus", Kind::kEndToEnd);
  add("setup_s", quantile(setup, 0.5) / 1e9, "s", Kind::kEndToEnd);
  add("peak_rss_mb", quantile(pool.rss_mib, 0.5), "MiB", Kind::kEndToEnd);
  add("fail_frac", ratio(static_cast<double>(pool.failed), static_cast<double>(pool.attempted)),
      "ratio", Kind::kInfo);
  add("trials", static_cast<double>(plain.size()), "count", Kind::kInfo);
  add("virt_makespan_us_min", quantile(virt, 0.0) / 1e3, "vus", Kind::kInfo);
  add("virt_makespan_us_max", quantile(virt, 1.0) / 1e3, "vus", Kind::kInfo);
  add("host.cal_us", quantile(column(plain, [](const Trial& t) { return t.cal_ns; }), 0.5) / 1e3,
      "us", Kind::kInfo);
  add("host_ns_per_msg_raw",
      quantile(column(plain, [&](const Trial& t) { return t.data_ns / msgs_per_trial; }), 0.5),
      "ns", Kind::kInfo);
  add("setup_s_raw",
      quantile(column(plain, [](const Trial& t) { return t.ctor_ns + t.comm_setup_ns; }), 0.5) /
          1e9,
      "s", Kind::kInfo);

  const auto med = [&](double Trial::*f) {
    return quantile(column(plain, [f](const Trial& t) { return t.*f; }), 0.5);
  };
  add("tmpi.world.ctor_us", med(&Trial::ctor_ns) / 1e3, "us", Kind::kLayer);
  add("comm.setup_us", med(&Trial::comm_setup_ns) / 1e3, "us", Kind::kLayer);
  add("net.messages_per_trial", med(&Trial::messages), "count", Kind::kLayer);
  add("tmpi.matching.probes_per_msg", med(&Trial::probes_per_msg), "ratio", Kind::kLayer);
  add("tmpi.matching.bucket_hit_frac", med(&Trial::bucket_hit_frac), "ratio", Kind::kLayer);
  add("tmpi.matching.unexpected_frac", med(&Trial::unexpected_frac), "ratio", Kind::kLayer);
  add("tmpi.transport.rndv_frac", med(&Trial::rndv_frac), "ratio", Kind::kLayer);
  add("net.lock.contended_frac", med(&Trial::contended_frac), "ratio", Kind::kLayer);
  add("net.hw_context.busy_ns_per_msg", med(&Trial::busy_ns_per_msg), "vns", Kind::kLayer);
  add("net.hw_context.imbalance", med(&Trial::imbalance), "ratio", Kind::kLayer);
  add("virt_jitter_pct",
      100.0 * ratio(quantile(virt, 0.95) - quantile(virt, 0.05), quantile(virt, 0.5)), "%",
      Kind::kLayer);
  if (!pool.spans) return rows;

  const SpanReport& sr = *pool.spans;
  const double msgs = msgs_per_trial * static_cast<double>(pool.spanned.size());
  const double body = sr.total[static_cast<std::size_t>(Layer::kThreadBody)];
  double lib_calls = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (kLayers[l].group != nullptr) lib_calls += sr.total[l];
  }
  const double plain_per_msg = quantile(host, 0.5);
  add("tmpi.world.forkjoin_us", sr.forkjoin_ns / 1e3, "us", Kind::kLayer);
  add("lib.ns_per_msg", lib_calls / msgs, "ns", Kind::kLayer);
  add("bench.self_share", ratio(sr.self[static_cast<std::size_t>(Layer::kThreadBody)], body),
      "ratio", Kind::kLayer);
  for (const char* g : kGroups) {
    double in_group = 0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      if (kLayers[l].group != nullptr && std::strcmp(kLayers[l].group, g) == 0) {
        in_group += sr.total[l];
      }
    }
    add(std::string(g) + ".share", ratio(in_group, body), "ratio", Kind::kLayer);
  }
  add("trace_overhead_pct",
      100.0 * (ratio(quantile(per_msg(pool.spanned), 0.5), plain_per_msg) - 1.0), "%",
      Kind::kLayer);
  add("tmpi.trace.overhead_pct",
      100.0 * (ratio(quantile(per_msg(pool.lib), 0.5), plain_per_msg) - 1.0), "%", Kind::kLayer);
  const auto lmed = [&](double OpLat::*p, OpLat Trial::*op) {
    return quantile(column(pool.lib, [&](const Trial& t) { return (t.*op).*p; }), 0.5);
  };
  add("lat.send_ns_p50", lmed(&OpLat::p50, &Trial::send), "vns", Kind::kLayer);
  add("lat.send_ns_p99", lmed(&OpLat::p99, &Trial::send), "vns", Kind::kLayer);
  add("lat.recv_ns_p50", lmed(&OpLat::p50, &Trial::recv), "vns", Kind::kLayer);
  add("lat.recv_ns_p99", lmed(&OpLat::p99, &Trial::recv), "vns", Kind::kLayer);
  add("lat.coll_ns_p50", lmed(&OpLat::p50, &Trial::coll), "vns", Kind::kLayer);
  add("lat.coll_ns_p99", lmed(&OpLat::p99, &Trial::coll), "vns", Kind::kLayer);
  add("trace.events",
      quantile(column(pool.lib, [](const Trial& t) { return t.trace_events; }), 0.5), "count",
      Kind::kLayer);
  double dropped = 0;
  for (const Trial& t : pool.lib) dropped += t.trace_dropped;
  add("trace.dropped", dropped, "count", Kind::kLayer);

  // Per-call medians and self time per message of the layers this workload
  // enters.
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (sr.count[l] == 0) continue;
    add(std::string(kLayers[l].name) + ".self_ns_per_msg", sr.self[l] / msgs, "ns", Kind::kInfo);
    if (kLayers[l].group != nullptr) {
      add(std::string(kLayers[l].name) + "_ns", sr.median[l], "ns", Kind::kInfo);
    }
  }

  // Recorders never move virtual time: the traced medians must fall inside
  // the untraced per-trial range. A quick run has too few trials to span the
  // host-order jitter, so only full runs check this.
  const double vmin = quantile(virt, 0.0);
  const double vmax = quantile(virt, 1.0);
  for (const auto* set : {&pool.spanned, &pool.lib}) {
    const double m = quantile(virt_of(*set), 0.5);
    if (!quick && (m < vmin || m > vmax)) {
      std::fprintf(stderr, "bench_suite: traced virtual makespan %.0f outside [%.0f, %.0f]\n", m,
                   vmin, vmax);
      checks_ok = false;
    }
  }
  if (dropped > 0) {
    std::fprintf(stderr, "bench_suite: the library recorder dropped %.0f events\n", dropped);
    checks_ok = false;
  }
  return rows;
}

/// Measures one workload and prints its rows and result line; returns the
/// exit code.
int run_workload(const std::string& name, const Options& opt) {
  // Inputs are built once here and inherited by every child.
  const std::unique_ptr<Workload> wl = make_workload(name, opt.seed);
  const std::uint64_t ops = wl->ops_per_trial();
  const int children = opt.quick ? 1 : kChildren;
  const std::size_t min_trials =
      opt.quick ? kQuickTrials : (kMinTrials + kChildren - 1) / kChildren;
  Pool pool;
  for (int c = 0; c < children; ++c) {
    in_child(pool, ops, [&](int fd) {
      if (c == 0) std::printf("%s\n", header_json(name, opt.seed, opt.trace, *wl).c_str());
      measure(*wl, opt.quick ? 1 : kWarmupTrials, opt.quick ? 0.0 : opt.seconds / children,
              min_trials, fd);
    });
  }
  if (opt.trace) {
    std::filesystem::create_directories(opt.trace_dir);
    in_child(pool, ops, [&](int fd) {
      measure_traced(*wl, opt.quick ? kQuickTracedTrials : kTracedTrials,
                     opt.trace_dir + "/" + name + ".spans.json", fd);
    });
  }
  if (!pool.children_ok || pool.plain.empty() || (opt.trace && !pool.spans)) {
    std::fprintf(stderr, "bench_suite: %s: a measuring process failed\n", name.c_str());
    return 1;
  }

  bool checks_ok = true;
  const std::vector<Metric> rows = metrics_of(*wl, pool, opt.quick, checks_ok);
  for (const Metric& m : rows) {
    std::printf("%s %s %s %s\n", name.c_str(), m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  }
  const bool correct = pool.failed == 0 && checks_ok;
  std::string metrics;
  const Kind want = opt.trace ? Kind::kLayer : Kind::kEndToEnd;
  for (const Metric& m : rows) {
    if (m.kind != want) continue;
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + m.name + "\": {\"value\": " +
                                                fmt(m.value) + ", \"unit\": \"" + m.unit + "\"}");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(pool.attempted),
              static_cast<unsigned long long>(pool.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]\n"
               "          [--trace-dir DIR]\n"
               "workloads: msgrate-shared msgrate-tags halo-rndv allreduce-comms\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (a == "--trace") {
        opt.trace = true;
        const std::string v = has_value ? argv[i + 1] : "";
        if (v == "0" || v == "1") opt.trace = argv[++i][0] == '1';
      } else if (a == "--quick") {
        opt.quick = true;
      } else if (a == "--trace-dir" && has_value) {
        opt.trace_dir = argv[++i];
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (!(opt.seconds > 0)) return usage(argv[0]);
  std::vector<std::string> names(kWorkloads.begin(), kWorkloads.end());
  if (!opt.workload.empty()) {
    if (std::find(names.begin(), names.end(), opt.workload) == names.end()) return usage(argv[0]);
    names = {opt.workload};
  }

  int rc = 0;
  for (const std::string& name : names) {
    try {
      if (run_workload(name, opt) != 0) rc = 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_suite: %s: %s\n", name.c_str(), e.what());
      rc = 1;
    }
  }
  return rc;
}
