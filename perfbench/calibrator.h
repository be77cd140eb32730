// The host calibrator. Every host timing the benchmark reports is scaled by
// the time of the calibration slices run next to it, so that it reads as if
// measured on a host of reference speed.
//
// A slice runs three fixed loops back to back:
//   * a branchy register bytecode loop: a seeded 4096-instruction program over
//     16 registers and a 64 KB array, with data-dependent branches (a quarter
//     of the slice on the reference host);
//   * a stack interpreter in the shape of the knit VM: call frames, an
//     evaluation stack, bounds-checked memory and per-instruction cycle and
//     I-cache accounting, running a fixed seeded program (a quarter);
//   * a symbol-table loop in the shape of the build pipeline: generated
//     identifiers inserted into an ordered map, then sorted and looked up
//     (half).
// Host slowdowns on a shared machine hit these loops differently, and each
// alone tracks the VM interpreter and the pipeline worse than their sum does
// (see README.md).
#ifndef PERFBENCH_CALIBRATOR_H_
#define PERFBENCH_CALIBRATOR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Calibrator {
 public:
  // Milliseconds one slice takes on the reference host.
  static constexpr double kReferenceMs = 5.0;

  Calibrator();

  // Runs one slice and returns its wall time in ms. On failure returns 0 and
  // sets `error`: a wrong checksum (a miscompiled or elided loop), another
  // live thread in this process, or process CPU time advancing by more than
  // this thread's own CPU time during the slice.
  double Slice(std::string* error);

  // Wall ms of each loop in the last slice: register, stack, symbol.
  const double* last_parts_ms() const { return last_parts_ms_; }

  // The three loops, exposed for the self-check. Each returns a checksum
  // that depends only on its fixed program and the work count.
  uint64_t RunRegisterLoop(int passes);
  uint64_t RunStackLoop(int calls);
  static uint64_t RunSymbolLoop(int passes);

  static constexpr int kRegisterPasses = 25;
  static constexpr int kStackCalls = 100;
  static constexpr int kSymbolPasses = 5;
  static constexpr uint64_t kRegisterChecksum = 0x6e41ee8d580cd04cULL;
  static constexpr uint64_t kStackChecksum = 0xee891cfd5b04e04bULL;
  static constexpr uint64_t kSymbolChecksum = 0xf20b2bdb9d7cbde2ULL;

 private:
  struct StackInsn {
    uint8_t op = 0;
    int32_t arg = 0;
  };
  struct StackFunction {
    std::vector<StackInsn> code;
    uint32_t text = 0;  // modeled text address of the first instruction
  };
  struct Frame {
    int function = 0;
    int pc = 0;
    uint32_t fp = 0;
    size_t eval_base = 0;
  };
  struct CacheWay {
    int64_t tag = -1;
    uint64_t stamp = 0;
  };

  uint32_t StackCall(uint32_t arg);
  uint32_t Load(uint32_t address) const;
  void Store(uint32_t address, uint32_t value);
  void Fetch(uint32_t text_address);

  double last_parts_ms_[3] = {0, 0, 0};

  // Register loop state.
  std::vector<uint32_t> program_;
  std::vector<uint32_t> initial_array_;
  std::vector<uint32_t> array_;

  // Stack loop state.
  std::vector<StackFunction> functions_;
  std::vector<uint8_t> memory_;
  std::vector<uint32_t> eval_;
  std::vector<Frame> frames_;
  std::vector<CacheWay> icache_;
  uint64_t clock_ = 0;
  uint64_t cycles_ = 0;
  uint32_t stack_pointer_ = 0;
};

// Number of threads in this process (from /proc/self/task); 0 if unknown.
int LiveThreads();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATOR_H_
