#include "src/clack/session.h"

namespace knit {

namespace {
constexpr uint32_t kFrameCapacity = 2048;
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t FnvMix(uint64_t hash, uint8_t byte) {
  return (hash ^ byte) * 0x100000001B3ull;
}
}  // namespace

uint64_t FoldTxDigest(uint64_t hash, uint64_t digest) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash = FnvMix(hash, static_cast<uint8_t>(digest >> shift));
  }
  return hash;
}

Result<std::unique_ptr<RouterSession>> RouterSession::Open(
    Machine& machine, std::map<std::string, std::string> entry_names,
    const std::string& dev_native, Diagnostics& diags) {
  std::unique_ptr<RouterSession> session(new RouterSession());
  session->machine_ = &machine;
  session->entry_names_ = std::move(entry_names);

  for (const char* required : {"in0", "in1"}) {
    auto it = session->entry_names_.find(required);
    if (it == session->entry_names_.end() || it->second.empty() ||
        machine.image().FindFunction(it->second) < 0) {
      diags.Error(SourceLoc::Unknown(),
                  std::string("router image is missing entry point '") + required + "'");
      return Result<std::unique_ptr<RouterSession>>::Failure();
    }
  }
  session->pkt_struct_addr_ = machine.Sbrk(32);
  session->frame_addr_ = machine.Sbrk(kFrameCapacity);

  // The device: every transmission mixes (port, len, bytes) into the current
  // packet's digest. Captures are shared_ptrs so the native outlives session
  // moves (the Machine keeps the closure).
  std::shared_ptr<TxAccum> accum = session->accum_;
  std::shared_ptr<RouterStats> stats = session->stats_;
  machine.BindNative(dev_native, [accum, stats](Machine& m, std::span<const uint32_t> args) {
    if (args.size() < 3) {
      return 0u;
    }
    uint32_t data = args[0];
    uint32_t len = args[1];
    uint32_t port = args[2];
    ++accum->count;
    ++stats->tx_count;
    uint64_t digest = accum->packet_digest;
    digest = FnvMix(digest, static_cast<uint8_t>(port));
    digest = FnvMix(digest, static_cast<uint8_t>(len & 0xFF));
    digest = FnvMix(digest, static_cast<uint8_t>((len >> 8) & 0xFF));
    for (uint32_t i = 0; i < len && i < kFrameCapacity; ++i) {
      digest = FnvMix(digest, m.ReadByte(data + i));
    }
    accum->packet_digest = digest;
    return 0u;
  });
  return session;
}

std::array<int, 2> RouterSession::ResolveEntries() const {
  return {machine_->image().FindFunction(entry_names_.at("in0")),
          machine_->image().FindFunction(entry_names_.at("in1"))};
}

Result<void> RouterSession::Feed(const TracePacket& packet, uint64_t seq,
                                 Diagnostics& diags) {
  const TracePacket* packets[1] = {&packet};
  uint64_t seqs[1] = {seq};
  return FeedBatch(packets, seqs, 1, diags);
}

Result<void> RouterSession::FeedBatch(const TracePacket* const* packets,
                                      const uint64_t* seqs, size_t count,
                                      Diagnostics& diags) {
  if (closed_) {
    diags.Error(SourceLoc::Unknown(), "RouterSession: fed after Close()");
    return Result<void>::Failure();
  }
  // Batched dispatch: the entry symbols resolve once per batch. A packet hook
  // can hot-swap the element owning an entry between packets, so its presence
  // forces per-packet re-resolution (correctness over amortization).
  std::array<int, 2> entries = ResolveEntries();
  const uint32_t pkt_arg[1] = {pkt_struct_addr_};

  for (size_t p = 0; p < count; ++p) {
    const TracePacket& packet = *packets[p];
    if (packet.frame.size() > kFrameCapacity) {
      diags.Error(SourceLoc::Unknown(), "trace frame exceeds buffer capacity");
      return Result<void>::Failure();
    }
    for (size_t i = 0; i < packet.frame.size(); ++i) {
      machine_->WriteByte(frame_addr_ + static_cast<uint32_t>(i), packet.frame[i]);
    }
    // struct pkt { char *data; int len; int port; unsigned nexthop; }
    machine_->WriteWord(pkt_struct_addr_ + 0, frame_addr_);
    machine_->WriteWord(pkt_struct_addr_ + 4, static_cast<uint32_t>(packet.frame.size()));
    machine_->WriteWord(pkt_struct_addr_ + 8, 0);
    machine_->WriteWord(pkt_struct_addr_ + 12, 0);

    if (packet_hook_) {
      entries = ResolveEntries();
    }
    accum_->packet_digest = kFnvBasis;
    uint32_t tx_before = accum_->count;
    long long cycles_before = machine_->cycles();
    long long stalls_before = machine_->ifetch_stalls();
    RunResult result = machine_->CallId(entries[packet.in_port == 0 ? 0 : 1], pkt_arg);
    if (!result.ok) {
      diags.Error(SourceLoc::Unknown(), "router trapped on packet " +
                                            std::to_string(stats_->packets) + ": " +
                                            result.error);
      return Result<void>::Failure();
    }
    long long packet_cycles = machine_->cycles() - cycles_before;
    stats_->cycles += packet_cycles;
    stats_->ifetch_stalls += machine_->ifetch_stalls() - stalls_before;
    ++stats_->packets;
    if (accum_->count != tx_before) {
      stats_->tx_hash = FoldTxDigest(stats_->tx_hash, accum_->packet_digest);
      if (collect_tx_records_) {
        tx_records_.push_back(TxRecord{seqs[p], accum_->packet_digest});
      }
    }
    if (packet_observer_) {
      packet_observer_(seqs[p], packet_cycles);
    }
    if (packet_hook_) {
      packet_hook_(static_cast<int>(seqs[p]));
    }
  }
  return Result<void>::Success();
}

Result<void> RouterSession::FeedRange(const std::vector<TracePacket>& trace, size_t begin,
                                      size_t end, Diagnostics& diags) {
  for (size_t p = begin; p < end && p < trace.size(); ++p) {
    Result<void> fed = Feed(trace[p], p, diags);
    if (!fed.ok()) {
      return fed;
    }
  }
  return Result<void>::Success();
}

Result<RouterStats> RouterSession::Snapshot(Diagnostics& diags) {
  (void)diags;
  stats_->text_bytes = machine_->image().text_bytes;

  // Profile first: the counter read-back below runs on the same machine and
  // must not leak into the attributed window.
  if (machine_->profiling()) {
    stats_->profile = machine_->Profile();
  }
  auto read_counter = [&](const char* name, uint32_t& out) {
    auto it = entry_names_.find(name);
    if (it == entry_names_.end() || it->second.empty()) {
      return;
    }
    RunResult result = machine_->Call(it->second);
    if (result.ok) {
      out = result.value;
    }
  };
  read_counter("statsIn0", stats_->in0);
  read_counter("statsIn1", stats_->in1);
  read_counter("statsIp", stats_->ip);
  read_counter("statsOut", stats_->out);
  read_counter("statsDrop", stats_->drop);
  return *stats_;
}

Result<RouterStats> RouterSession::Close(Diagnostics& diags) {
  Result<RouterStats> snapshot = Snapshot(diags);
  closed_ = true;
  return snapshot;
}

void RouterSession::ResetStats() {
  *stats_ = RouterStats{};
  *accum_ = TxAccum{};
  tx_records_.clear();
}

}  // namespace knit
