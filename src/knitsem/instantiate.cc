#include "src/knitsem/instantiate.h"

#include <cassert>
#include <map>
#include <numeric>
#include <optional>

namespace knit {

int Configuration::FindInstance(const std::string& path) const {
  for (size_t i = 0; i < instances.size(); ++i) {
    if (instances[i].path == path) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

namespace {

// A wire is one bundle connection point. Wires form union-find sets; at most one
// wire in a set carries a definer (the supplier of the bundle).
struct Wire {
  int parent;
  std::optional<SupplierRef> definer;
};

class Instantiator {
 public:
  Instantiator(const Elaboration& elaboration, Diagnostics& diags)
      : elaboration_(elaboration), diags_(diags) {}

  Result<Configuration> Run(const std::string& top_unit) {
    const UnitDecl* top = elaboration_.FindUnit(top_unit);
    if (top == nullptr) {
      diags_.Error(SourceLoc::Unknown(), "unknown top-level unit '" + top_unit + "'");
      return Result<Configuration>::Failure();
    }
    config_.top = top;

    // The environment supplies the top unit's imports.
    std::vector<int> import_wires;
    for (size_t i = 0; i < top->imports.size(); ++i) {
      import_wires.push_back(
          NewWire(SupplierRef{SupplierRef::kEnvironment, static_cast<int>(i)}));
    }
    std::vector<int> export_wires;
    if (!InstantiateUnit(*top, import_wires, top->name, /*flatten_group=*/-1, export_wires)) {
      return Result<Configuration>::Failure();
    }
    top_export_wires_ = export_wires;

    // Resolve every recorded wire to its definer.
    bool ok = true;
    for (size_t i = 0; i < config_.instances.size(); ++i) {
      Instance& instance = config_.instances[i];
      for (size_t p = 0; p < instance.import_suppliers.size(); ++p) {
        int wire = pending_imports_[i][p];
        std::optional<SupplierRef> definer = wires_[Find(wire)].definer;
        if (!definer.has_value()) {
          diags_.Error(instance.unit->imports[p].loc,
                       "import '" + instance.unit->imports[p].local_name + "' of instance '" +
                           instance.path + "' is not supplied by any unit");
          ok = false;
          continue;
        }
        instance.import_suppliers[p] = *definer;
      }
    }
    for (int wire : top_export_wires_) {
      std::optional<SupplierRef> definer = wires_[Find(wire)].definer;
      if (!definer.has_value()) {
        diags_.Error(top->loc, "a top-level export of '" + top->name + "' has no supplier");
        ok = false;
        continue;
      }
      config_.top_export_suppliers.push_back(*definer);
    }
    if (!ok) {
      return Result<Configuration>::Failure();
    }
    return std::move(config_);
  }

 private:
  int NewWire(std::optional<SupplierRef> definer = std::nullopt) {
    wires_.push_back(Wire{static_cast<int>(wires_.size()), definer});
    return static_cast<int>(wires_.size()) - 1;
  }

  int Find(int wire) {
    while (wires_[wire].parent != wire) {
      wires_[wire].parent = wires_[wires_[wire].parent].parent;
      wire = wires_[wire].parent;
    }
    return wire;
  }

  // Unifies two wires. Both carrying a definer would mean one bundle supplied twice;
  // the construction (fresh wires for every export) makes that impossible, so assert.
  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) {
      return;
    }
    assert(!(wires_[a].definer.has_value() && wires_[b].definer.has_value()));
    if (wires_[b].definer.has_value()) {
      std::swap(a, b);
    }
    wires_[b].parent = a;
  }

  // Instantiates `unit` with the given import wires; fills `export_wires` (parallel
  // to unit.exports). `path` names this instantiation; `flatten_group` is inherited
  // from enclosing flatten regions (-1 outside any).
  bool InstantiateUnit(const UnitDecl& unit, const std::vector<int>& import_wires,
                       const std::string& path, int flatten_group,
                       std::vector<int>& export_wires) {
    assert(import_wires.size() == unit.imports.size());
    if (unit.flatten && flatten_group < 0) {
      flatten_group = config_.flatten_group_count++;
    }
    if (unit.IsAtomic()) {
      int id = static_cast<int>(config_.instances.size());
      Instance instance;
      instance.path = path;
      instance.unit = &unit;
      instance.import_suppliers.resize(unit.imports.size());
      instance.flatten_group = flatten_group;
      config_.instances.push_back(std::move(instance));
      pending_imports_.push_back(import_wires);
      for (size_t e = 0; e < unit.exports.size(); ++e) {
        export_wires.push_back(NewWire(SupplierRef{id, static_cast<int>(e)}));
      }
      return true;
    }

    // Compound: detect recursive composition.
    for (const std::string& open : open_units_) {
      if (open == unit.name) {
        diags_.Error(unit.loc, "recursive composition: unit '" + unit.name +
                                   "' transitively links itself (at " + path + ")");
        return false;
      }
    }
    open_units_.push_back(unit.name);

    // Local scope: compound imports first, then placeholder wires for link outputs.
    std::map<std::string, int> locals;
    for (size_t i = 0; i < unit.imports.size(); ++i) {
      locals[unit.imports[i].local_name] = import_wires[i];
    }
    for (const LinkLine& line : unit.links) {
      for (const std::string& output : line.outputs) {
        locals[output] = NewWire();
      }
    }

    // Instantiate each link line, unifying child exports with the placeholders.
    std::map<std::string, int> name_counters;
    for (const LinkLine& line : unit.links) {
      const UnitDecl* child = elaboration_.FindUnit(line.unit);
      assert(child != nullptr);  // elaboration validated this
      std::vector<int> child_imports;
      for (const std::string& input : line.inputs) {
        auto it = locals.find(input);
        assert(it != locals.end());
        child_imports.push_back(it->second);
      }
      std::string base = line.instance_name.empty() ? line.unit : line.instance_name;
      int count = name_counters[base]++;
      std::string child_path = path + "/" + base;
      if (count > 0) {
        child_path.append("#").append(std::to_string(count + 1));
      }
      std::vector<int> child_exports;
      if (!InstantiateUnit(*child, child_imports, child_path, flatten_group, child_exports)) {
        return false;
      }
      for (size_t e = 0; e < line.outputs.size(); ++e) {
        Union(locals[line.outputs[e]], child_exports[e]);
      }
    }
    open_units_.pop_back();

    for (const PortDecl& port : unit.exports) {
      auto it = locals.find(port.local_name);
      assert(it != locals.end());
      export_wires.push_back(it->second);
    }
    return true;
  }

  const Elaboration& elaboration_;
  Diagnostics& diags_;
  Configuration config_;
  std::vector<Wire> wires_;
  // Parallel to config_.instances: the wire id of each import port, resolved at the end.
  std::vector<std::vector<int>> pending_imports_;
  std::vector<int> top_export_wires_;
  std::vector<std::string> open_units_;
};

}  // namespace

Result<Configuration> Instantiate(const Elaboration& elaboration, const std::string& top_unit,
                                  Diagnostics& diags) {
  return Instantiator(elaboration, diags).Run(top_unit);
}

}  // namespace knit
