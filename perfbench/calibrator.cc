#include "perfbench/calibrator.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>

#include "perfbench/measure.h"

namespace perfbench {
namespace {

constexpr int kProgramLength = 4096;
constexpr size_t kArrayWords = 64 * 1024 / sizeof(uint32_t);
constexpr uint64_t kProgramSeed = 0x6b6e6974ULL;

constexpr int kStackFunctions = 24;
constexpr uint32_t kStackMemory = 1u << 20;
constexpr uint32_t kStackBase = 1u << 19;
constexpr uint32_t kFrameBytes = 16;
constexpr uint32_t kHeapMask = 0xfffc;  // loads and stores stay in the low 64 KB
constexpr int kCacheSets = 8;           // 1 KB modeled I-cache: 8 sets x 4 ways x 32 B
constexpr int kCacheWays = 4;
constexpr uint32_t kCacheLine = 32;

enum StackOp : uint8_t {
  kConst, kLoadLocal, kStoreLocal, kAdd, kXor, kRotate, kLess, kLoadMem, kStoreMem,
  kJumpIfZero, kDup, kPop, kCall, kRet,
};

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Fnv(uint64_t hash, uint64_t value) { return (hash ^ value) * 0x100000001b3ULL; }

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

}  // namespace

Calibrator::Calibrator() : memory_(kStackMemory), icache_(kCacheSets * kCacheWays) {
  uint64_t state = kProgramSeed;
  for (int i = 0; i < kProgramLength; ++i) {
    program_.push_back(static_cast<uint32_t>(SplitMix(state)));
  }
  for (size_t i = 0; i < kArrayWords; ++i) {
    initial_array_.push_back(static_cast<uint32_t>(SplitMix(state)));
  }

  // Stack program: function f may call one function after it, so every call
  // chain ends. The evaluation-stack depth is tracked so each function
  // returns exactly one value.
  uint32_t text = 0;
  for (int f = 0; f < kStackFunctions; ++f) {
    StackFunction function;
    function.text = text;
    int length = 40 + static_cast<int>(SplitMix(state) % 40);
    int depth = 0;
    bool called = false;
    auto emit = [&function](StackOp op, int32_t arg) { function.code.push_back({op, arg}); };
    for (int i = 0; i < length; ++i) {
      uint64_t r = SplitMix(state);
      int32_t pick = static_cast<int32_t>((r >> 8) % 4);
      if (depth < 2) {
        (r & 1) ? emit(kLoadLocal, pick) : emit(kConst, static_cast<int32_t>(r >> 16));
        ++depth;
        continue;
      }
      switch (r % 11) {
        case 0: emit(kAdd, 0); --depth; break;
        case 1: emit(kXor, 0); --depth; break;
        case 2: emit(kRotate, 0); --depth; break;
        case 3: emit(kStoreLocal, pick); --depth; break;
        case 4: emit(kLoadMem, 0); break;
        case 5: emit(kStoreMem, 0); depth -= 2; break;
        case 6:
          // A data-dependent forward branch over 1-3 neutral pairs.
          emit(kLess, 0);
          emit(kJumpIfZero, 1 + static_cast<int32_t>((r >> 8) % 3));
          depth -= 2;
          for (int32_t k = 0; k < 3; ++k) {
            emit(kConst, k);
            emit(kPop, 0);
          }
          break;
        case 7:
          if (f + 1 < kStackFunctions && !called) {
            uint64_t reach = static_cast<uint64_t>(std::min(3, kStackFunctions - f - 1));
            emit(kCall, f + 1 + static_cast<int32_t>((r >> 12) % reach));
            called = true;
          }
          break;
        case 8: emit(kDup, 0); ++depth; break;
        default: emit(kLoadLocal, pick); ++depth; break;
      }
    }
    for (; depth > 1; --depth) {
      emit(kAdd, 0);
    }
    if (depth == 0) {
      emit(kConst, 1);
    }
    emit(kRet, 0);
    text += static_cast<uint32_t>(function.code.size()) * 4;
    functions_.push_back(std::move(function));
  }
}

// Instruction word: op in bits 0-2, destination register in 3-6, source
// register in 7-10, immediate in 16-31.
uint64_t Calibrator::RunRegisterLoop(int passes) {
  array_ = initial_array_;
  uint32_t r[16];
  for (uint32_t i = 0; i < 16; ++i) {
    r[i] = 0x9e3779b9u * (i + 1);
  }
  const size_t length = program_.size();
  const uint32_t mask = static_cast<uint32_t>(array_.size() - 1);
  for (int pass = 0; pass < passes; ++pass) {
    size_t pc = 0;
    while (pc < length) {
      uint32_t insn = program_[pc++];
      uint32_t& d = r[(insn >> 3) & 15];
      uint32_t s = r[(insn >> 7) & 15];
      uint32_t imm = insn >> 16;
      switch (insn & 7) {
        case 0: d += s + imm; break;
        case 1: d ^= s >> (imm & 15); break;
        case 2: d *= s | 1; break;
        case 3: d = std::rotl(d, static_cast<int>(imm & 31)); break;
        case 4: d = array_[(s + imm) & mask]; break;
        case 5: array_[(s + imm) & mask] = d; break;
        case 6: if (s & 1) pc += 1 + (imm & 7); break;
        default: if (d < s) pc += 1 + (imm & 3); break;
      }
    }
    r[pass & 15] += static_cast<uint32_t>(pass);
  }
  uint64_t sum = 0xcbf29ce484222325ULL;
  for (uint32_t v : r) {
    sum = Fnv(sum, v);
  }
  for (uint32_t v : array_) {
    sum = Fnv(sum, v);
  }
  return sum;
}

uint64_t Calibrator::RunStackLoop(int calls) {
  std::fill(memory_.begin(), memory_.begin() + kHeapMask + 4, 0);
  std::fill(memory_.begin() + kStackBase,
            memory_.begin() + kStackBase + (kStackFunctions + 1) * kFrameBytes, 0);
  std::fill(icache_.begin(), icache_.end(), CacheWay{});
  clock_ = 0;
  cycles_ = 0;
  uint64_t sum = 0xcbf29ce484222325ULL;
  for (int c = 0; c < calls; ++c) {
    sum = Fnv(sum, StackCall(static_cast<uint32_t>(c) * 2654435761u));
  }
  return Fnv(sum, cycles_);
}

uint64_t Calibrator::RunSymbolLoop(int passes) {
  uint64_t sum = 0xcbf29ce484222325ULL;
  for (int pass = 0; pass < passes; ++pass) {
    std::map<std::string, uint32_t> table;
    std::vector<std::string> names;
    for (uint32_t i = 0; i < 600; ++i) {
      std::string name = "component_symbol_" + std::to_string((i * 2654435761u) >> 7) + "_x";
      table[name] += i;
      names.push_back(std::move(name));
    }
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      sum = Fnv(sum, table[name] + name.size());
    }
  }
  return sum;
}

uint32_t Calibrator::Load(uint32_t address) const {
  address &= kStackMemory - 4;
  uint32_t value = 0;
  std::memcpy(&value, &memory_[address], sizeof(value));
  return value;
}

void Calibrator::Store(uint32_t address, uint32_t value) {
  address &= kStackMemory - 4;
  std::memcpy(&memory_[address], &value, sizeof(value));
}

void Calibrator::Fetch(uint32_t text_address) {
  int64_t line = text_address / kCacheLine;
  int64_t tag = line / kCacheSets;
  CacheWay* ways = &icache_[static_cast<size_t>(line % kCacheSets) * kCacheWays];
  ++clock_;
  int victim = 0;
  for (int w = 0; w < kCacheWays; ++w) {
    if (ways[w].tag == tag) {
      ways[w].stamp = clock_;
      return;
    }
    if (ways[w].stamp < ways[victim].stamp) {
      victim = w;
    }
  }
  ways[victim].tag = tag;
  ways[victim].stamp = clock_;
  cycles_ += 8;
}

uint32_t Calibrator::StackCall(uint32_t arg) {
  stack_pointer_ = kStackBase;
  frames_.push_back({0, 0, stack_pointer_, eval_.size()});
  stack_pointer_ += kFrameBytes;
  Store(frames_.back().fp, arg);
  while (!frames_.empty()) {
    Frame& frame = frames_.back();
    const StackFunction& function = functions_[static_cast<size_t>(frame.function)];
    const StackInsn insn = function.code[static_cast<size_t>(frame.pc)];
    Fetch(function.text + static_cast<uint32_t>(frame.pc) * 4);
    ++frame.pc;
    ++cycles_;
    switch (insn.op) {
      case kConst:
        eval_.push_back(static_cast<uint32_t>(insn.arg));
        break;
      case kLoadLocal:
        eval_.push_back(Load(frame.fp + static_cast<uint32_t>(insn.arg) * 4));
        break;
      case kStoreLocal:
        Store(frame.fp + static_cast<uint32_t>(insn.arg) * 4, eval_.back());
        eval_.pop_back();
        break;
      case kAdd:
      case kXor:
      case kRotate:
      case kLess: {
        uint32_t b = eval_.back();
        eval_.pop_back();
        uint32_t& a = eval_.back();
        a = insn.op == kAdd    ? a + b
            : insn.op == kXor  ? a ^ (b * 0x9e3779b9u)
            : insn.op == kLess ? uint32_t{a < b}
                               : std::rotl(a, static_cast<int>(b & 31));
        break;
      }
      case kLoadMem:
        eval_.back() = Load(eval_.back() & kHeapMask);
        ++cycles_;
        break;
      case kStoreMem: {
        uint32_t value = eval_.back();
        eval_.pop_back();
        Store(eval_.back() & kHeapMask, value);
        eval_.pop_back();
        ++cycles_;
        break;
      }
      case kJumpIfZero: {
        uint32_t value = eval_.back();
        eval_.pop_back();
        if (value == 0) {
          frame.pc += insn.arg * 2;
        }
        break;
      }
      case kDup:
        eval_.push_back(eval_.back());
        break;
      case kPop:
        eval_.pop_back();
        break;
      case kCall: {
        uint32_t value = eval_.back();
        eval_.pop_back();
        cycles_ += 10;
        frames_.push_back({insn.arg, 0, stack_pointer_, eval_.size()});
        stack_pointer_ += kFrameBytes;
        Store(stack_pointer_ - kFrameBytes, value);
        break;
      }
      default: {  // kRet
        uint32_t value = eval_.back();
        eval_.resize(frame.eval_base);
        stack_pointer_ = frame.fp;
        frames_.pop_back();
        cycles_ += 4;
        if (frames_.empty()) {
          return value;
        }
        eval_.push_back(value);
        break;
      }
    }
  }
  return 0;
}

double Calibrator::Slice(std::string* error) {
  // A joined thread can stay listed for a moment while the kernel reaps it;
  // give it up to 50 ms to go.
  int threads = LiveThreads();
  for (int wait = 0; threads != 1 && wait < 500; ++wait) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    threads = LiveThreads();
  }
  if (threads != 1) {
    *error = "calibration slice started with " + std::to_string(threads) + " live threads";
    return 0;
  }
  double process_before = CpuSeconds(RUSAGE_SELF);
  double thread_before = CpuSeconds(RUSAGE_THREAD);
  double start = NowMs();
  uint64_t registers = RunRegisterLoop(kRegisterPasses);
  double registers_done = NowMs();
  uint64_t stack = RunStackLoop(kStackCalls);
  double stack_done = NowMs();
  uint64_t symbols = RunSymbolLoop(kSymbolPasses);
  double end = NowMs();
  double ms = end - start;
  last_parts_ms_[0] = registers_done - start;
  last_parts_ms_[1] = stack_done - registers_done;
  last_parts_ms_[2] = end - stack_done;
  double process_cpu = CpuSeconds(RUSAGE_SELF) - process_before;
  double thread_cpu = CpuSeconds(RUSAGE_THREAD) - thread_before;
  if (registers != kRegisterChecksum || stack != kStackChecksum || symbols != kSymbolChecksum) {
    std::ostringstream out;
    out << "calibrator checksums 0x" << std::hex << registers << "/0x" << stack << "/0x"
        << symbols << " != expected 0x" << kRegisterChecksum << "/0x" << kStackChecksum
        << "/0x" << kSymbolChecksum;
    *error = out.str();
    return 0;
  }
  // Rusage readings are in microseconds; beyond a millisecond of slack, some
  // other thread burned CPU while the slice ran.
  if (process_cpu > thread_cpu + 1e-3 + 0.05 * thread_cpu) {
    *error = "process CPU time advanced " + std::to_string(process_cpu * 1e3) +
             " ms during a calibration slice, the calibrating thread only " +
             std::to_string(thread_cpu * 1e3) + " ms";
    return 0;
  }
  return ms;
}

int LiveThreads() {
  std::error_code ec;
  int count = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++count;
  }
  return ec ? 0 : count;
}

}  // namespace perfbench
