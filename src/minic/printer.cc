#include "src/minic/printer.h"

#include <sstream>

namespace knit {
namespace {

std::string Indent(int n) { return std::string(static_cast<size_t>(n) * 2, ' '); }

std::string EscapeString(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\0':
        out += "\\0";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Operator precedence for minimal parenthesization. Higher binds tighter.
int Precedence(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kIntLit:
    case Expr::Kind::kStrLit:
    case Expr::Kind::kIdent:
      return 100;
    case Expr::Kind::kCall:
    case Expr::Kind::kIndex:
    case Expr::Kind::kMember:
      return 90;
    case Expr::Kind::kIncDec:
      return expr.int_value != 0 ? 80 : 90;  // prefix : postfix
    case Expr::Kind::kUnary:
    case Expr::Kind::kCast:
    case Expr::Kind::kSizeof:
      return 80;
    case Expr::Kind::kBinary: {
      const std::string& op = expr.text;
      if (op == "*" || op == "/" || op == "%") {
        return 70;
      }
      if (op == "+" || op == "-") {
        return 65;
      }
      if (op == "<<" || op == ">>") {
        return 60;
      }
      if (op == "<" || op == ">" || op == "<=" || op == ">=") {
        return 55;
      }
      if (op == "==" || op == "!=") {
        return 50;
      }
      if (op == "&") {
        return 45;
      }
      if (op == "^") {
        return 44;
      }
      if (op == "|") {
        return 43;
      }
      if (op == "&&") {
        return 40;
      }
      return 39;  // ||
    }
    case Expr::Kind::kCond:
      return 20;
    case Expr::Kind::kAssign:
      return 10;
  }
  return 0;
}

std::string PrintChild(const Expr& child, int parent_precedence) {
  std::string text = PrintExpr(child);
  if (Precedence(child) < parent_precedence) {
    return "(" + text + ")";
  }
  return text;
}

}  // namespace

std::string PrintTypedName(const Type* type, const std::string& name) {
  // Unwind the declarator inside-out.
  std::string decl = name;
  const Type* t = type;
  while (true) {
    switch (t->kind) {
      case Type::Kind::kPointer:
        decl = "*" + decl;
        t = t->base;
        continue;
      case Type::Kind::kArray:
        if (decl.front() == '*') {
          decl = "(" + decl + ")";
        }
        decl.append("[").append(std::to_string(t->array_count)).append("]");
        t = t->base;
        continue;
      case Type::Kind::kFunc: {
        if (!decl.empty() && decl.front() == '*') {
          decl = "(" + decl + ")";
        }
        std::string params;
        if (t->params.empty() && !t->variadic) {
          params = "void";
        } else {
          for (size_t i = 0; i < t->params.size(); ++i) {
            if (i > 0) {
              params += ", ";
            }
            params += PrintTypedName(t->params[i].type, "");
          }
          if (t->variadic) {
            params += params.empty() ? "..." : ", ...";
          }
        }
        decl += "(" + params + ")";
        t = t->base;
        continue;
      }
      default: {
        std::string base = t->ToString();
        if (decl.empty()) {
          return base;
        }
        return base + " " + decl;
      }
    }
  }
}

std::string PrintExpr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kIntLit:
      return std::to_string(expr.int_value);
    case Expr::Kind::kStrLit:
      return std::string("\"").append(EscapeString(expr.text)).append("\"");
    case Expr::Kind::kIdent:
      return expr.text;
    case Expr::Kind::kUnary:
      return expr.text + PrintChild(*expr.args[0], Precedence(expr));
    case Expr::Kind::kBinary:
      return PrintChild(*expr.args[0], Precedence(expr)) + " " + expr.text + " " +
             PrintChild(*expr.args[1], Precedence(expr) + 1);
    case Expr::Kind::kAssign:
      return PrintChild(*expr.args[0], Precedence(expr) + 1) + " " + expr.text + " " +
             PrintChild(*expr.args[1], Precedence(expr));
    case Expr::Kind::kCall: {
      std::string out = PrintChild(*expr.args[0], 90) + "(";
      for (size_t i = 1; i < expr.args.size(); ++i) {
        if (i > 1) {
          out += ", ";
        }
        out += PrintExpr(*expr.args[i]);
      }
      return out + ")";
    }
    case Expr::Kind::kIndex:
      return PrintChild(*expr.args[0], 90) + "[" + PrintExpr(*expr.args[1]) + "]";
    case Expr::Kind::kMember:
      return PrintChild(*expr.args[0], 90) + (expr.member_arrow ? "->" : ".") + expr.text;
    case Expr::Kind::kCast:
      return std::string("(")
          .append(PrintTypedName(expr.cast_type, ""))
          .append(")")
          .append(PrintChild(*expr.args[0], 80));
    case Expr::Kind::kCond:
      return PrintChild(*expr.args[0], 21) + " ? " + PrintExpr(*expr.args[1]) + " : " +
             PrintChild(*expr.args[2], 20);
    case Expr::Kind::kSizeof:
      if (expr.sizeof_type != nullptr) {
        return "sizeof(" + PrintTypedName(expr.sizeof_type, "") + ")";
      }
      return "sizeof " + PrintChild(*expr.args[0], 80);
    case Expr::Kind::kIncDec:
      if (expr.int_value != 0) {
        return expr.text + PrintChild(*expr.args[0], 80);
      }
      return PrintChild(*expr.args[0], 90) + expr.text;
  }
  return "?";
}

std::string PrintStmt(const Stmt& stmt, int indent) {
  std::string pad = Indent(indent);
  switch (stmt.kind) {
    case Stmt::Kind::kEmpty:
      return pad + ";\n";
    case Stmt::Kind::kExpr:
      return pad + PrintExpr(*stmt.exprs[0]) + ";\n";
    case Stmt::Kind::kIf: {
      std::string out = pad + "if (" + PrintExpr(*stmt.exprs[0]) + ")\n";
      out += PrintStmt(*stmt.stmts[0], indent + (stmt.stmts[0]->kind == Stmt::Kind::kBlock ? 0 : 1));
      if (stmt.stmts.size() > 1) {
        out += pad + "else\n";
        out += PrintStmt(*stmt.stmts[1],
                         indent + (stmt.stmts[1]->kind == Stmt::Kind::kBlock ? 0 : 1));
      }
      return out;
    }
    case Stmt::Kind::kWhile:
      return pad + "while (" + PrintExpr(*stmt.exprs[0]) + ")\n" +
             PrintStmt(*stmt.stmts[0],
                       indent + (stmt.stmts[0]->kind == Stmt::Kind::kBlock ? 0 : 1));
    case Stmt::Kind::kFor: {
      std::string init;
      if (stmt.stmts[0]) {
        init = PrintStmt(*stmt.stmts[0], 0);
        // strip trailing newline and the statement's own ';\n' formatting
        while (!init.empty() && (init.back() == '\n' || init.back() == ' ')) {
          init.pop_back();
        }
        if (!init.empty() && init.back() == ';') {
          init.pop_back();
        }
      }
      std::string cond = stmt.exprs[0] ? PrintExpr(*stmt.exprs[0]) : "";
      std::string step = stmt.exprs[1] ? PrintExpr(*stmt.exprs[1]) : "";
      return pad + "for (" + init + "; " + cond + "; " + step + ")\n" +
             PrintStmt(*stmt.stmts[1],
                       indent + (stmt.stmts[1]->kind == Stmt::Kind::kBlock ? 0 : 1));
    }
    case Stmt::Kind::kReturn:
      if (stmt.exprs.empty()) {
        return pad + "return;\n";
      }
      return pad + "return " + PrintExpr(*stmt.exprs[0]) + ";\n";
    case Stmt::Kind::kBreak:
      return pad + "break;\n";
    case Stmt::Kind::kContinue:
      return pad + "continue;\n";
    case Stmt::Kind::kBlock: {
      std::string out = pad + "{\n";
      for (const StmtPtr& child : stmt.stmts) {
        out += PrintStmt(*child, indent + 1);
      }
      return out + pad + "}\n";
    }
    case Stmt::Kind::kLocalDecl: {
      std::string out = pad + PrintTypedName(stmt.decl_type, stmt.text);
      if (!stmt.exprs.empty() && stmt.exprs[0]) {
        out += " = " + PrintExpr(*stmt.exprs[0]);
      }
      return out + ";\n";
    }
  }
  return pad + "/* ? */\n";
}

std::string PrintDecl(const Decl& decl) {
  switch (decl.kind) {
    case Decl::Kind::kFunction: {
      std::string out;
      if (decl.is_static) {
        out += "static ";
      }
      // Re-render with parameter names for definitions.
      std::string params;
      if (decl.func_type->params.empty() && !decl.func_type->variadic) {
        params = "void";
      } else {
        for (size_t i = 0; i < decl.func_type->params.size(); ++i) {
          if (i > 0) {
            params += ", ";
          }
          std::string pname = i < decl.params.size() ? decl.params[i].name : "";
          params += PrintTypedName(decl.func_type->params[i].type, pname);
        }
        if (decl.func_type->variadic) {
          params += ", ...";
        }
      }
      out += PrintTypedName(decl.func_type->base, decl.name + "(" + params + ")");
      if (!decl.is_definition) {
        return out + ";\n";
      }
      return out + "\n" + PrintStmt(*decl.body, 0);
    }
    case Decl::Kind::kGlobalVar: {
      std::string out;
      if (decl.is_static) {
        out += "static ";
      }
      if (decl.is_extern) {
        out += "extern ";
      }
      out += PrintTypedName(decl.var_type, decl.name);
      if (decl.init) {
        out += " = " + PrintExpr(*decl.init);
      } else if (!decl.init_list.empty()) {
        out += " = { ";
        for (size_t i = 0; i < decl.init_list.size(); ++i) {
          if (i > 0) {
            out += ", ";
          }
          out += PrintExpr(*decl.init_list[i]);
        }
        out += " }";
      }
      return out + ";\n";
    }
    case Decl::Kind::kStructDef: {
      std::string out = "struct " + decl.name + " {\n";
      for (const StructField& field : decl.defined_type->fields) {
        out += "  " + PrintTypedName(field.type, field.name) + ";\n";
      }
      return out + "};\n";
    }
    case Decl::Kind::kTypedef:
      return "typedef " + PrintTypedName(decl.defined_type, decl.name) + ";\n";
    case Decl::Kind::kEnumConsts: {
      std::string out = "enum {\n";
      for (const auto& [name, value] : decl.enum_values) {
        out += "  " + name + " = " + std::to_string(value) + ",\n";
      }
      return out + "};\n";
    }
  }
  return "/* ? */\n";
}

std::string PrintTranslationUnit(const TranslationUnit& unit) {
  std::string out;
  out += "/* " + unit.name + " */\n";
  for (const Decl& decl : unit.decls) {
    out += PrintDecl(decl);
    out += "\n";
  }
  return out;
}

}  // namespace knit
