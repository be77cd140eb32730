// RouterSession: the one packet path of the measurement and serving stack.
//
// A session is opened on a Machine that runs a router image (the Clack
// configurations, the Click emulation, or any image exposing the same entry
// contract), and then follows a strict lifecycle:
//
//   open -> feed batches -> snapshot stats -> close
//
// Every packet that flows through the repo goes through RouterSession::Feed:
// RouterProgram::RunTrace/RunTraceRange are thin wrappers over an internal
// session, and the fleet of src/serve/ opens one session per shard machine —
// so single-shard measurement and N-shard serving are literally the same code.
//
// Transmission hashing. dev_tx transmissions are accounted as a *per-packet*
// FNV digest (reset to the FNV offset basis when a packet enters the graph,
// mixed with (port, len, bytes) of every transmission it causes), and packets
// that transmitted anything fold their digest into RouterStats::tx_hash in
// feed order. Because the digest of a packet depends only on that packet's own
// transmissions, the fold is shard-count invariant: N shards can process
// disjoint packets concurrently and fold the recorded digests in trace order
// afterwards, reproducing the single-machine hash byte for byte (the serving
// layer's equivalence guarantee; see DESIGN.md §12).
#ifndef SRC_CLACK_SESSION_H_
#define SRC_CLACK_SESSION_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/clack/trace.h"
#include "src/support/diagnostics.h"
#include "src/support/result.h"
#include "src/vm/machine.h"

namespace knit {

// Everything a session (or a whole fleet — the aggregate has the same shape)
// measured about its packet stream.
struct RouterStats {
  int packets = 0;
  long long cycles = 0;         // sum over per-packet deltas
  long long ifetch_stalls = 0;  // sum over per-packet deltas
  int text_bytes = 0;

  // Counters read back from the router's Stats exports.
  uint32_t in0 = 0;
  uint32_t in1 = 0;
  uint32_t ip = 0;
  uint32_t out = 0;
  uint32_t drop = 0;

  // Transmission log for equivalence checking across configurations: `tx_hash`
  // is the trace-order fold of the per-packet transmission digests (see the
  // file comment), so it is identical for any execution that transmits the
  // same bytes for the same packets in the same stream order — regardless of
  // how many shards processed the stream.
  uint32_t tx_count = 0;
  uint64_t tx_hash = 0;

  // Per-component attribution of the measured packet window (empty unless the
  // machine's profiler was enabled before feeding). Its totals equal the
  // `cycles`/`ifetch_stalls` sums above exactly: the profile is snapshotted
  // before the stats counters are read back, so only packet processing is
  // attributed.
  ComponentProfile profile;

  double CyclesPerPacket() const { return packets == 0 ? 0 : double(cycles) / packets; }
  double StallsPerPacket() const {
    return packets == 0 ? 0 : double(ifetch_stalls) / packets;
  }
};

// One packet's transmission digest, recorded (when enabled) for cross-shard
// hash aggregation. `seq` is the packet's index in the original stream.
struct TxRecord {
  uint64_t seq = 0;
  uint64_t digest = 0;
};

// Folds one packet digest into a running tx hash. Exposed so the serving
// layer's trace-order aggregation and the session's inline fold are the same
// arithmetic by construction.
uint64_t FoldTxDigest(uint64_t hash, uint64_t digest);

class RouterSession {
 public:
  // Opens a session driving `machine`. `entry_names` maps the logical names
  // (in0, in1, statsIn0, statsIn1, statsIp, statsOut, statsDrop) to image
  // symbols; in0/in1 must resolve. Binds the transmission-accounting native
  // under `dev_native` and allocates the packet buffers. Does NOT run
  // knit__init — the owner decides when the image initializes.
  static Result<std::unique_ptr<RouterSession>> Open(
      Machine& machine, std::map<std::string, std::string> entry_names,
      const std::string& dev_native, Diagnostics& diags);

  // Feeds one packet through its input port. `seq` is the packet's position in
  // the overall stream (drives TxRecord::seq and the packet hook's index).
  Result<void> Feed(const TracePacket& packet, uint64_t seq, Diagnostics& diags);

  // Batched dispatch: feeds `count` packets in one entry into the session,
  // resolving the in0/in1 entry symbols once for the whole batch instead of
  // per packet. With a packet hook installed the session falls back to
  // per-packet re-resolution, because the hook may hot-swap the element that
  // owns an entry symbol between two packets of the batch (see the reconfig
  // scenario test).
  Result<void> FeedBatch(const TracePacket* const* packets, const uint64_t* seqs,
                         size_t count, Diagnostics& diags);

  // Convenience over a contiguous trace range; seq = trace index.
  Result<void> FeedRange(const std::vector<TracePacket>& trace, size_t begin,
                         size_t end, Diagnostics& diags);

  // Reads the router's counter exports and (if the machine profiles) the
  // component attribution back into the stats, and returns the snapshot.
  // Feeding may continue afterwards.
  Result<RouterStats> Snapshot(Diagnostics& diags);

  // Final snapshot; the session refuses further packets afterwards.
  Result<RouterStats> Close(Diagnostics& diags);
  bool closed() const { return closed_; }

  // Accumulated stats (counters are only current after a Snapshot).
  const RouterStats& stats() const { return *stats_; }
  void ResetStats();

  // Host callback fired after packet `seq` completes, at a quiescent point (no
  // router frame live) — the reconfig tests Pump() an engine here. Installing
  // a hook switches FeedBatch to per-packet entry re-resolution.
  void SetPacketHook(std::function<void(int)> hook) { packet_hook_ = std::move(hook); }

  // Per-packet observer: (seq, modeled cycles the packet spent in the graph).
  // The serving layer builds its latency histograms from this.
  void SetPacketObserver(std::function<void(uint64_t, long long)> observer) {
    packet_observer_ = std::move(observer);
  }

  // When enabled, every packet that transmitted anything appends a TxRecord —
  // the raw material for trace-order hash aggregation across shards.
  void set_collect_tx_records(bool on) { collect_tx_records_ = on; }
  const std::vector<TxRecord>& tx_records() const { return tx_records_; }

  Machine& machine() { return *machine_; }

 private:
  // Per-packet transmission accounting shared with the dev native (heap-held
  // so the capture survives session moves).
  struct TxAccum {
    uint32_t count = 0;
    uint64_t packet_digest = 0;
  };

  RouterSession() = default;

  std::array<int, 2> ResolveEntries() const;  // {in0 id, in1 id}

  Machine* machine_ = nullptr;
  std::map<std::string, std::string> entry_names_;
  uint32_t pkt_struct_addr_ = 0;
  uint32_t frame_addr_ = 0;
  bool closed_ = false;
  bool collect_tx_records_ = false;

  std::function<void(int)> packet_hook_;
  std::function<void(uint64_t, long long)> packet_observer_;
  std::vector<TxRecord> tx_records_;

  std::shared_ptr<TxAccum> accum_ = std::make_shared<TxAccum>();
  std::shared_ptr<RouterStats> stats_ = std::make_shared<RouterStats>();
};

}  // namespace knit

#endif  // SRC_CLACK_SESSION_H_
