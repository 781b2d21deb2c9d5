// Golden round-trip over every shipped interface file: each .pnet and
// .psc under src/core/interfaces/ must survive parse → canonical text →
// reparse with an identical canonical form and an identical structural
// hash. This pins down two things at once: the canonicalizers are fixed
// points of their own output, and canonical text is semantically lossless
// (the reloaded artifact hashes the same, so the memo and the VM see the
// same structure a vendor authored).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/loc.h"
#include "src/common/strings.h"
#include "src/core/pnet.h"
#include "src/core/registry.h"
#include "src/perfscript/parser.h"
#include "src/perfscript/printer.h"
#include "src/petri/compiled_net.h"

namespace perfiface {
namespace {

std::vector<std::string> InterfaceFiles(const std::string& extension) {
  std::vector<std::string> paths;
  const std::string dir = InterfaceRegistry::InterfaceDir();
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == extension) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(InterfaceRoundTrip, ShipsBothKinds) {
  // The sweep below must actually cover the registry's files; an empty
  // glob would vacuously pass.
  EXPECT_GE(InterfaceFiles(".pnet").size(), 5u);  // incl. components/
  EXPECT_GE(InterfaceFiles(".psc").size(), 5u);
}

TEST(InterfaceRoundTrip, EveryPnetCanonicalizesToAFixedPoint) {
  for (const std::string& path : InterfaceFiles(".pnet")) {
    SCOPED_TRACE(path);
    const std::string dir = path.substr(0, path.find_last_of('/'));
    const PnetExpansion expanded = ExpandPnetIncludes(ReadFileOrDie(path), dir);
    ASSERT_TRUE(expanded.ok) << expanded.error;

    std::string error;
    const std::string canonical = CanonicalPnetText(expanded.text, &error);
    // Component files have no `net` header of their own; they still
    // canonicalize (the directive is simply absent).
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_FALSE(canonical.empty());

    const std::string again = CanonicalPnetText(canonical, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(canonical, again) << "canonicalizer is not idempotent";
  }
}

TEST(InterfaceRoundTrip, PnetCanonicalTextPreservesStructuralHash) {
  for (const std::string& path : InterfaceFiles(".pnet")) {
    SCOPED_TRACE(path);
    const std::string dir = path.substr(0, path.find_last_of('/'));
    const PnetExpansion expanded = ExpandPnetIncludes(ReadFileOrDie(path), dir);
    ASSERT_TRUE(expanded.ok) << expanded.error;
    if (expanded.text.find("net ") == std::string::npos) {
      continue;  // bare component: loads only via an including document
    }

    const LoadedNet original = LoadPnet(expanded.text);
    ASSERT_TRUE(original.ok()) << original.error;

    std::string error;
    const std::string canonical = CanonicalPnetText(expanded.text, &error);
    ASSERT_TRUE(error.empty()) << error;
    const LoadedNet reloaded = LoadPnet(canonical);
    ASSERT_TRUE(reloaded.ok()) << reloaded.error;

    const CompiledNet original_compiled(original.net.get());
    const CompiledNet reloaded_compiled(reloaded.net.get());
    EXPECT_EQ(original_compiled.structural_hash(), reloaded_compiled.structural_hash());
    ASSERT_EQ(original_compiled.num_components(), reloaded_compiled.num_components());
    for (std::size_t c = 0; c < original_compiled.num_components(); ++c) {
      EXPECT_EQ(original_compiled.component_hash(c), reloaded_compiled.component_hash(c))
          << "component " << c;
    }
  }
}

// The expanded canonical text of every shipped .pnet, with the structural
// hash of the loaded net and of each of its components: what the reader
// makes of the shipped files, pinned byte for byte. The hashes are the
// derived tier's model keys.
TEST(InterfaceRoundTrip, PnetTextAndHashesMatchGolden) {
  const std::string interface_dir = InterfaceRegistry::InterfaceDir();
  std::string actual;
  for (const std::string& path : InterfaceFiles(".pnet")) {
    SCOPED_TRACE(path);
    const std::string dir = path.substr(0, path.find_last_of('/'));
    const PnetExpansion expanded = ExpandPnetIncludes(ReadFileOrDie(path), dir);
    ASSERT_TRUE(expanded.ok) << expanded.error;
    std::string error;
    const std::string canonical = CanonicalPnetText(expanded.text, &error);
    ASSERT_TRUE(error.empty()) << error;
    actual += "# " + path.substr(interface_dir.size() + 1) + "\n" + canonical;
    const LoadedNet loaded = LoadPnetFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    const CompiledNet compiled(loaded.net.get());
    actual += StrFormat("# structural_hash %016llx\n",
                        static_cast<unsigned long long>(compiled.structural_hash()));
    for (std::size_t c = 0; c < compiled.num_components(); ++c) {
      actual += StrFormat("# component %zu %016llx\n", c,
                          static_cast<unsigned long long>(compiled.component_hash(c)));
    }
  }
  const std::string golden_path =
      std::string(PERFIFACE_SOURCE_DIR) + "/tests/golden/pnet_text.golden";
  if (ReadFileOrDie(golden_path) != actual) {
    const std::string actual_path = ::testing::TempDir() + "/pnet_text.actual";
    std::ofstream(actual_path) << actual;
    ADD_FAILURE() << "The expanded canonical text or a structural hash of a shipped .pnet "
                     "differs from "
                  << golden_path << ". The full output is in " << actual_path;
  }
}

TEST(InterfaceRoundTrip, EveryPscPrintsToAFixedPointWithStableHash) {
  for (const std::string& path : InterfaceFiles(".psc")) {
    SCOPED_TRACE(path);
    const ParseResult original = ParseProgram(ReadFileOrDie(path));
    ASSERT_TRUE(original.ok) << original.error;

    const std::string printed = PrintProgram(original.program);
    ASSERT_FALSE(printed.empty());
    const ParseResult reparsed = ParseProgram(printed);
    ASSERT_TRUE(reparsed.ok) << reparsed.error << "\n--- printed text ---\n" << printed;

    EXPECT_EQ(printed, PrintProgram(reparsed.program)) << "printer is not a fixed point";
    EXPECT_EQ(HashProgram(original.program), HashProgram(reparsed.program));
  }
}

}  // namespace
}  // namespace perfiface
