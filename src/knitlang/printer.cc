#include "src/knitlang/printer.h"

#include "src/support/strings.h"

namespace knit {
namespace {

std::string PrintPorts(const std::vector<PortDecl>& ports) {
  std::vector<std::string> parts;
  parts.reserve(ports.size());
  for (const PortDecl& port : ports) {
    parts.push_back(port.local_name + " : " + port.bundle_type);
  }
  return "[ " + Join(parts, ", ") + " ]";
}

std::string PrintDepSet(const std::vector<std::string>& atoms) {
  if (atoms.size() == 1) {
    return atoms[0];
  }
  return std::string("(").append(Join(atoms, " + ")).append(")");
}

std::string PrintPropertyExpr(const PropertyExpr& expr) {
  switch (expr.kind) {
    case PropertyExpr::Kind::kValue:
      return expr.name;
    case PropertyExpr::Kind::kOfPort:
      return expr.property + "(" + expr.name + ")";
    case PropertyExpr::Kind::kOfImports:
      return expr.property + "(imports)";
    case PropertyExpr::Kind::kOfExports:
      return expr.property + "(exports)";
  }
  return "?";
}

std::string QuoteList(const std::vector<std::string>& items) {
  std::vector<std::string> quoted;
  quoted.reserve(items.size());
  for (const std::string& item : items) {
    quoted.push_back("\"" + item + "\"");
  }
  return Join(quoted, ", ");
}

}  // namespace

std::string PrintUnitDecl(const UnitDecl& unit) {
  std::string out = "unit " + unit.name + " = {\n";
  out += "  imports " + PrintPorts(unit.imports) + ";\n";
  out += "  exports " + PrintPorts(unit.exports) + ";\n";
  for (const InitFiniDecl& decl : unit.initializers) {
    out += "  initializer " + decl.function + " for " + decl.port + ";\n";
  }
  for (const InitFiniDecl& decl : unit.finalizers) {
    out += "  finalizer " + decl.function + " for " + decl.port + ";\n";
  }
  if (!unit.depends.empty()) {
    out += "  depends {\n";
    for (const DependsClause& clause : unit.depends) {
      out += "    " + PrintDepSet(clause.dependents) + " needs " +
             (clause.requirements.empty() ? "()" : PrintDepSet(clause.requirements)) + ";\n";
    }
    out += "  };\n";
  }
  if (unit.flatten) {
    out += "  flatten;\n";
  }
  if (unit.has_files) {
    out += "  files { " + QuoteList(unit.files) + " }";
    if (!unit.flags_name.empty()) {
      out += " with flags " + unit.flags_name;
    }
    out += ";\n";
  }
  if (unit.has_links) {
    out += "  link {\n";
    for (const LinkLine& line : unit.links) {
      out += "    [" + Join(line.outputs, ", ") + "] <- " + line.unit;
      if (!line.instance_name.empty()) {
        out += " as " + line.instance_name;
      }
      out += " <- [" + Join(line.inputs, ", ") + "];\n";
    }
    out += "  };\n";
  }
  if (!unit.renames.empty()) {
    out += "  rename {\n";
    for (const RenameDecl& rename : unit.renames) {
      out += "    " + rename.port + "." + rename.symbol + " to " + rename.c_name + ";\n";
    }
    out += "  };\n";
  }
  if (!unit.constraints.empty()) {
    out += "  constraints {\n";
    for (const ConstraintDecl& constraint : unit.constraints) {
      out += "    " + PrintPropertyExpr(constraint.lhs) +
             (constraint.relation == ConstraintDecl::Relation::kEqual ? " = " : " <= ") +
             PrintPropertyExpr(constraint.rhs) + ";\n";
    }
    out += "  };\n";
  }
  out += "}\n";
  return out;
}

std::string PrintKnitProgram(const KnitProgram& program) {
  std::string out;
  for (const BundleTypeDecl& decl : program.bundle_types) {
    out += "bundletype " + decl.name + " = { " + Join(decl.symbols, ", ") + " }\n";
  }
  for (const FlagsDecl& decl : program.flag_sets) {
    out += "flags " + decl.name + " = { " + QuoteList(decl.flags) + " }\n";
  }
  // `type` declarations attach to the most recent `property`; group them.
  for (const PropertyDecl& property : program.properties) {
    out += "property " + property.name + "\n";
    for (const PropertyValueDecl& value : program.property_values) {
      if (value.property == property.name) {
        out += "type " + value.name;
        if (!value.less_than.empty()) {
          out += " < " + value.less_than;
        }
        out += "\n";
      }
    }
  }
  for (const UnitDecl& unit : program.units) {
    out.append("\n").append(PrintUnitDecl(unit));
  }
  return out;
}

}  // namespace knit
