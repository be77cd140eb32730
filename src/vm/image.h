// A fully linked program image, ready to execute on the VM (src/vm/machine.h).
// Produced by the bag-of-objects linker (src/ld/link.h).
#ifndef SRC_VM_IMAGE_H_
#define SRC_VM_IMAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/vm/bytecode.h"

namespace knit {

// One rebindable call target. Slots exist for the global text symbols of
// components the link marked swappable (LinkOptions::swappable_components):
// cross-component calls into such a symbol compile to kCallBound on the slot
// instead of a baked-in function id, so live reconfiguration can retarget every
// caller by rewriting `target` — no code patching, no caller enumeration.
struct BindingSlot {
  std::string symbol;     // global link name the slot stands for
  std::string component;  // instance path that owns the definition
  int target = -1;        // current callee: VM function id (>= 0) or native (< 0)
};

// Function placement alignment in text (affects I-cache behaviour). Every
// placement — the linker's, the image passes', a live swap's — uses it.
constexpr int kTextAlign = 16;

struct Image {
  // Callable space: ids [0, functions.size()) are VM functions; ids
  // [functions.size(), functions.size() + natives.size()) are natives.
  std::vector<BytecodeFunction> functions;  // text_offset assigned, code resolved
  std::vector<std::string> natives;         // native callable names, in id order

  std::vector<uint8_t> data;       // initialized data image, loaded at data_base
  uint32_t data_base = 0x1000;

  std::map<std::string, int> function_symbols;     // global name -> function id
  std::map<std::string, uint32_t> data_symbols;    // global name -> absolute address

  int text_bytes = 0;  // total placed text (the paper's "text size" column)

  // Absolute addresses of data words the linker patched with a function ref
  // (address-of-function initializers). The image optimizer treats the referenced
  // functions as reachability roots, so indirect calls through stored pointers
  // can never reach an eliminated body. Derived metadata: not part of the image
  // fingerprint.
  std::vector<uint32_t> func_ref_data;

  // Binding-slot table for swappable components; kCallBound indexes into it.
  // Order is deterministic (sorted by symbol name at link time) so slot indices
  // are stable across identical links and safe to fingerprint.
  std::vector<BindingSlot> bindings;

  int FindFunction(const std::string& name) const {
    auto it = function_symbols.find(name);
    return it == function_symbols.end() ? -1 : it->second;
  }

  // Binding-slot index for `symbol`, or -1.
  int FindBinding(const std::string& symbol) const {
    for (size_t i = 0; i < bindings.size(); ++i) {
      if (bindings[i].symbol == symbol) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  bool IsNativeId(int callable) const {
    return callable >= static_cast<int>(functions.size());
  }

  // The one text placement rule: lays the functions `order` names out back to
  // back from byte `start`, each on a kTextAlign boundary, and sets text_bytes
  // to the end of the last. Functions not named keep their offsets, so a live
  // swap can append new code after the placed text without moving old code.
  void PlaceText(const std::vector<int>& order, int start = 0) {
    int cursor = start;
    for (int f : order) {
      functions[f].text_offset = cursor;
      cursor += (functions[f].TextBytes() + kTextAlign - 1) / kTextAlign * kTextAlign;
    }
    text_bytes = cursor;
  }
};

}  // namespace knit

#endif  // SRC_VM_IMAGE_H_
