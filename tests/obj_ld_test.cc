// Object-file surgery (objcopy) and bag-of-objects linker tests: archive pull
// semantics, override-by-ordering, duplicate/undefined diagnostics, localization,
// duplication for multiple instantiation, and data relocations (function pointers
// in initialized data).
#include <gtest/gtest.h>

#include "src/ld/link.h"
#include "src/minic/cparser.h"
#include "src/minic/sema.h"
#include "src/obj/object.h"
#include "src/vm/codegen.h"
#include "src/vm/machine.h"

namespace knit {
namespace {

ObjectFile CompileOrDie(const std::string& name, const std::string& source) {
  Diagnostics diags;
  TypeTable types;
  Result<TranslationUnit> unit = ParseCString(source, name, types, diags);
  EXPECT_TRUE(unit.ok()) << diags.ToString();
  Result<SemaInfo> info = AnalyzeTranslationUnit(unit.value(), types, diags);
  EXPECT_TRUE(info.ok()) << diags.ToString();
  Result<ObjectFile> object =
      CompileTranslationUnit(unit.value(), info.value(), types, CodegenOptions(), name, diags);
  EXPECT_TRUE(object.ok()) << diags.ToString();
  return object.take();
}

Result<LinkResult> TryLink(std::vector<LinkItem> items, std::string* error,
                           std::vector<std::string> natives = {}) {
  Diagnostics diags;
  LinkOptions options;
  options.natives = std::move(natives);
  Result<LinkResult> linked = Link(std::move(items), options, diags);
  if (error != nullptr) {
    *error = diags.ToString();
  }
  return linked;
}

TEST(Objcopy, RenameFollowsReferences) {
  ObjectFile object = CompileOrDie("a.o", "extern int ext(int);\n"
                                          "int mine(int x) { return ext(x) + 1; }\n");
  Diagnostics diags;
  ASSERT_TRUE(ObjcopyRename(object, {{"mine", "inst__mine"}, {"ext", "other__fn"}}, diags).ok());
  EXPECT_GE(object.FindSymbol("inst__mine"), 0);
  EXPECT_GE(object.FindSymbol("other__fn"), 0);
  EXPECT_LT(object.FindSymbol("mine"), 0);
  EXPECT_LT(object.FindSymbol("ext"), 0);
}

TEST(Objcopy, RenameCollisionIsError) {
  ObjectFile object = CompileOrDie("a.o", "int f(void) { return 1; }\nint g(void) { return 2; }\n");
  Diagnostics diags;
  EXPECT_FALSE(ObjcopyRename(object, {{"f", "g"}}, diags).ok());
  EXPECT_NE(diags.FirstError().find("collides"), std::string::npos);
}

TEST(Objcopy, SwapIsAllowed) {
  ObjectFile object = CompileOrDie("a.o", "int f(void) { return 1; }\nint g(void) { return 2; }\n");
  Diagnostics diags;
  ASSERT_TRUE(ObjcopyRename(object, {{"f", "g"}, {"g", "f"}}, diags).ok());
  std::vector<LinkItem> items;
  items.emplace_back(std::move(object));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  EXPECT_EQ(machine.Call("f").value, 2u);
  EXPECT_EQ(machine.Call("g").value, 1u);
}

TEST(Objcopy, LocalizeHidesFromOtherObjects) {
  ObjectFile provider = CompileOrDie("p.o", "int hidden(void) { return 7; }\n");
  Diagnostics diags;
  ASSERT_TRUE(ObjcopyLocalize(provider, "hidden", diags).ok());
  ObjectFile consumer = CompileOrDie("c.o", "extern int hidden(void);\n"
                                            "int use(void) { return hidden(); }\n");
  std::vector<LinkItem> items;
  items.emplace_back(std::move(provider));
  items.emplace_back(std::move(consumer));
  std::string error;
  EXPECT_FALSE(TryLink(std::move(items), &error).ok());
  EXPECT_NE(error.find("undefined reference to 'hidden'"), std::string::npos) << error;
}

TEST(Objcopy, LocalizedSymbolsDoNotClash) {
  // Two objects each with a localized 'state' global and a renamed accessor.
  auto make = [](const std::string& tag, int value) {
    ObjectFile object =
        CompileOrDie(tag + ".o", "int state = " + std::to_string(value) + ";\n"
                                 "int get(void) { return state; }\n");
    Diagnostics diags;
    EXPECT_TRUE(ObjcopyRename(object, {{"get", "get_" + tag}}, diags).ok());
    EXPECT_TRUE(ObjcopyLocalize(object, "state", diags).ok());
    return object;
  };
  std::vector<LinkItem> items;
  items.emplace_back(make("a", 11));
  items.emplace_back(make("b", 22));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  EXPECT_EQ(machine.Call("get_a").value, 11u);
  EXPECT_EQ(machine.Call("get_b").value, 22u);
}

TEST(Objcopy, DuplicateGivesIndependentState) {
  ObjectFile base = CompileOrDie("base.o", "static int count = 0;\n"
                                           "int bump(void) { count++; return count; }\n");
  ObjectFile copy = ObjcopyDuplicate(base, "copy.o");
  Diagnostics diags;
  ASSERT_TRUE(ObjcopyRename(base, {{"bump", "bump_a"}}, diags).ok());
  ASSERT_TRUE(ObjcopyRename(copy, {{"bump", "bump_b"}}, diags).ok());
  std::vector<LinkItem> items;
  items.emplace_back(std::move(base));
  items.emplace_back(std::move(copy));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  machine.Call("bump_a");
  machine.Call("bump_a");
  EXPECT_EQ(machine.Call("bump_a").value, 3u);
  EXPECT_EQ(machine.Call("bump_b").value, 1u);  // duplicated object, its own counter
}

TEST(Linker, DuplicateDefinitionIsError) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", "int f(void) { return 1; }\n"));
  items.emplace_back(CompileOrDie("b.o", "int f(void) { return 2; }\n"));
  std::string error;
  EXPECT_FALSE(TryLink(std::move(items), &error).ok());
  EXPECT_NE(error.find("multiple definition of 'f'"), std::string::npos) << error;
}

TEST(Linker, ArchiveMembersPulledOnDemand) {
  Archive library;
  library.name = "libutil.a";
  library.members.push_back(CompileOrDie("used.o", "int used(void) { return 5; }\n"));
  library.members.push_back(CompileOrDie("unused.o", "int unused(void) { return 6; }\n"));
  ObjectFile main_object = CompileOrDie("main.o", "extern int used(void);\n"
                                                  "int main_fn(void) { return used(); }\n");
  std::vector<LinkItem> items;
  items.emplace_back(std::move(main_object));
  items.emplace_back(std::move(library));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  // Only the referenced member participates.
  EXPECT_GE(linked.value().image.FindFunction("used"), 0);
  EXPECT_LT(linked.value().image.FindFunction("unused"), 0);
}

TEST(Linker, ArchiveTransitivePull) {
  // main needs a(); a.o needs b(); both in the archive: two rounds of pulling.
  Archive library;
  library.members.push_back(CompileOrDie("b.o", "int b(void) { return 2; }\n"));
  library.members.push_back(CompileOrDie("a.o", "extern int b(void);\n"
                                                "int a(void) { return b() + 1; }\n"));
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("main.o", "extern int a(void);\n"
                                            "int main_fn(void) { return a(); }\n"));
  items.emplace_back(std::move(library));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  EXPECT_EQ(machine.Call("main_fn").value, 3u);
}

TEST(Linker, OverrideByListingObjectBeforeArchive) {
  // The OSKit's pre-Knit component replacement idiom (paper section 5.1): "a
  // careful ordering of ld's arguments would allow a programmer to override an
  // existing component."
  Archive library;
  library.members.push_back(CompileOrDie("orig.o", "int serve(void) { return 1; }\n"));
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("main.o", "extern int serve(void);\n"
                                            "int main_fn(void) { return serve(); }\n"));
  items.emplace_back(CompileOrDie("replacement.o", "int serve(void) { return 99; }\n"));
  items.emplace_back(std::move(library));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  EXPECT_EQ(machine.Call("main_fn").value, 99u);  // archive member never pulled
}

TEST(Linker, UndefinedReferenceIsError) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", "extern int ghost(void);\n"
                                         "int f(void) { return ghost(); }\n"));
  std::string error;
  EXPECT_FALSE(TryLink(std::move(items), &error).ok());
  EXPECT_NE(error.find("undefined reference to 'ghost'"), std::string::npos) << error;
}

TEST(Linker, NativesResolveRemainingUndefineds) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", "extern int host_fn(int);\n"
                                         "int f(int x) { return host_fn(x) * 2; }\n"));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error, {"host_fn"});
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  machine.BindNative("host_fn", [](Machine&, std::span<const uint32_t> args) {
    return args[0] + 100;
  });
  EXPECT_EQ(machine.Call("f", {5}).value, 210u);
}

TEST(Linker, FunctionPointerInInitializedData) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", R"(
int twice(int x) { return 2 * x; }
int thrice(int x) { return 3 * x; }
int (*g_table[2])(int) = { twice, thrice };
int call(int which, int x) { return g_table[which](x); }
)"));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  EXPECT_EQ(machine.Call("call", {0, 21}).value, 42u);
  EXPECT_EQ(machine.Call("call", {1, 21}).value, 63u);
}

TEST(Linker, TextPlacementAndSymbols) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", "int f(void) { return 1; }\n"));
  items.emplace_back(CompileOrDie("b.o", "int g(void) { return 2; }\n"));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  const Image& image = linked.value().image;
  EXPECT_GT(image.text_bytes, 0);
  ASSERT_EQ(linked.value().placements.size(), 2u);
  EXPECT_EQ(linked.value().placements[0].name, "a.o");
  // Functions placed in order, 16-byte aligned.
  EXPECT_EQ(image.functions[0].text_offset % 16, 0);
  EXPECT_GT(image.functions[1].text_offset, image.functions[0].text_offset);
}

}  // namespace
}  // namespace knit
