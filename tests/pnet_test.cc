#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/core/pnet.h"
#include "src/core/registry.h"
#include "src/petri/analysis.h"
#include "src/petri/compiled_net.h"
#include "src/petri/sim.h"

namespace perfiface {
namespace {

TEST(Pnet, ParsesMinimalNet) {
  const char* src =
      "net demo\n"
      "attr work\n"
      "place in\n"
      "place out\n"
      "trans t in=in out=out delay=\"work * 2\"\n";
  LoadedNet loaded = LoadPnet(src);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.name, "demo");
  EXPECT_EQ(loaded.net->places().size(), 2u);
  EXPECT_EQ(loaded.net->transitions().size(), 1u);

  PetriSim sim(loaded.net.get());
  const PlaceId out = loaded.net->PlaceByName("out");
  sim.Observe(out);
  Token t;
  t.attrs = {21};
  sim.Inject(loaded.net->PlaceByName("in"), t);
  EXPECT_TRUE(sim.Run(1000));
  EXPECT_EQ(sim.arrivals(out)[0].time, 42u);
}

TEST(Pnet, ConstantsAndBuiltinsInDelays) {
  const char* src =
      "net demo\n"
      "const lat 50\n"
      "attr words\n"
      "place in\n"
      "place out\n"
      "trans dma in=in out=out delay=\"4 + ceil(words / 8) * (lat + 8)\"\n";
  LoadedNet loaded = LoadPnet(src);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  PetriSim sim(loaded.net.get());
  const PlaceId out = loaded.net->PlaceByName("out");
  sim.Observe(out);
  Token t;
  t.attrs = {20};  // 3 bursts
  sim.Inject(loaded.net->PlaceByName("in"), t);
  EXPECT_TRUE(sim.Run(1000));
  EXPECT_EQ(sim.arrivals(out)[0].time, 4u + 3 * 58);
}

TEST(Pnet, CapacityInitAndWeights) {
  const char* src =
      "net demo\n"
      "place in\n"
      "place credits cap=4 init=2\n"
      "place out\n"
      "trans t in=in,credits:2 out=out delay=\"5\"\n";
  LoadedNet loaded = LoadPnet(src);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  PetriSim sim(loaded.net.get());
  const PlaceId out = loaded.net->PlaceByName("out");
  sim.Observe(out);
  sim.Inject(loaded.net->PlaceByName("in"), Token{});
  sim.Inject(loaded.net->PlaceByName("in"), Token{});
  EXPECT_TRUE(sim.Run(1000));
  // Only one firing possible: the two credits are consumed by weight 2.
  EXPECT_EQ(sim.arrivals(out).size(), 1u);
}

TEST(Pnet, GuardRouting) {
  const char* src =
      "net demo\n"
      "attr op\n"
      "place in\n"
      "place a\n"
      "place b\n"
      "trans ta in=in out=a guard=\"op == 1\" delay=\"1\"\n"
      "trans tb in=in out=b guard=\"op == 2\" delay=\"1\"\n";
  LoadedNet loaded = LoadPnet(src);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  PetriSim sim(loaded.net.get());
  const PlaceId a = loaded.net->PlaceByName("a");
  const PlaceId b = loaded.net->PlaceByName("b");
  sim.Observe(a);
  sim.Observe(b);
  for (double op : {1.0, 2.0, 2.0, 1.0}) {
    Token t;
    t.attrs = {op};
    sim.Inject(loaded.net->PlaceByName("in"), t);
  }
  EXPECT_TRUE(sim.Run(1000));
  EXPECT_EQ(sim.arrivals(a).size(), 2u);
  EXPECT_EQ(sim.arrivals(b).size(), 2u);
}

TEST(Pnet, ErrorsAreReported) {
  EXPECT_FALSE(LoadPnet("attr x\n").ok());  // missing net
  EXPECT_FALSE(LoadPnet("net d\nplace p\nplace p\n").ok());  // duplicate place
  EXPECT_FALSE(LoadPnet("net d\ntrans t in=q delay=\"1\"\n").ok());  // unknown place
  EXPECT_FALSE(LoadPnet("net d\nplace p\ntrans t in=p\n").ok());  // missing delay
  EXPECT_FALSE(LoadPnet("net d\nplace p\ntrans t in=p delay=\"1 +\"\n").ok());  // bad expr
  EXPECT_FALSE(LoadPnet("net d\nbogus x\n").ok());  // unknown directive
  EXPECT_FALSE(LoadPnet("net d\nplace p cap=-1\n").ok());  // negative cap
}

// Counts are digits only, at most INT_MAX. Read with std::atoi, each of
// these loaded: a junk suffix was dropped, a value past INT_MAX wrapped,
// init over a bounded cap aborted the process in PetriNet::AddPlace, and
// two billion initial tokens loaded for every simulation to allocate.
// LoadPnet and CanonicalPnetText refuse the same inputs with the same
// line-numbered message.
// A const value is one decimal number: "52x" used to load as 52 and "abc"
// as 0, and both passed `pnet_tool lint`.
TEST(Pnet, ConstValuesAreDecimalNumbers) {
  for (const char* value : {"52x", "abc", "", "0x10", "inf", "nan", "1e", "--1", "1e400"}) {
    const std::string text = std::string("net d\nconst burst_lat ") + value + "\n";
    const std::string want =
        std::string("line 2: ") +
        (*value == '\0' ? "const takes a name and a value"
                        : StrFormat("bad const value '%s' (expected a decimal number)", value));
    EXPECT_EQ(LoadPnet(text).error, want) << text;
    std::string error;
    EXPECT_EQ(CanonicalPnetText(text, &error), "") << text;
    EXPECT_EQ(error, want) << text;
  }
  std::string error;
  EXPECT_EQ(CanonicalPnetText("net d\nconst k 1.5e1\nconst h .5\nconst m -0\n", &error),
            "net d\nconst k 15\nconst h 0.5\nconst m -0\n")
      << error;
}

TEST(Pnet, CountsAreStrictAndInitialTokensBounded) {
  const struct {
    const char* lines;
    const char* error;
  } kBad[] = {
      {"place p cap=1 init=2\n", "line 2: init=2 exceeds cap=1"},
      {"place credits init=2000000000\n", "line 2: more than 65536 initial tokens in the net"},
      {"place a init=40000\nplace b init=30000\n",
       "line 3: more than 65536 initial tokens in the net"},
      {"place p\ntrans t in=p delay=\"1\" servers=3x\n",
       "line 3: bad servers '3x' (expected a count from 1 to 2147483647)"},
      {"place p\ntrans t in=p delay=\"1\" servers=0\n",
       "line 3: bad servers '0' (expected a count from 1 to 2147483647)"},
      {"place p cap=4x\n", "line 2: bad cap '4x' (expected a count from 0 to 2147483647)"},
      {"place p cap=\n", "line 2: bad cap '' (expected a count from 0 to 2147483647)"},
      {"place p cap=-1\n", "line 2: bad cap '-1' (expected a count from 0 to 2147483647)"},
      {"place p init=2147483648\n",
       "line 2: bad init '2147483648' (expected a count from 0 to 2147483647)"},
      {"place p init=+3\n", "line 2: bad init '+3' (expected a count from 0 to 2147483647)"},
      {"place p\ntrans t in=p:2x delay=\"1\"\n", "line 3: bad arc weight in 'p:2x'"},
      {"place p\nplace q\ntrans t in=p out=q:4294967297 delay=\"1\"\n",
       "line 4: bad arc weight in 'q:4294967297'"},
  };
  for (const auto& bad : kBad) {
    const std::string text = std::string("net d\n") + bad.lines;
    const LoadedNet loaded = LoadPnet(text);
    EXPECT_EQ(loaded.error, bad.error) << text;
    std::string error;
    EXPECT_EQ(CanonicalPnetText(text, &error), "") << text;
    EXPECT_EQ(error, bad.error) << text;
  }

  // At the limits: a bounded place may start full, leading zeros are
  // digits, and exactly kMaxInjectedTokens initial tokens load.
  const LoadedNet full = LoadPnet(
      "net d\nplace p cap=00000000004 init=4\nplace q init=65532\n"
      "trans t in=p:0002 out=q delay=\"1\" servers=2147483647\n");
  ASSERT_TRUE(full.ok()) << full.error;
  EXPECT_EQ(full.net->places()[0].capacity, 4u);
  EXPECT_EQ(full.net->places()[0].initial_tokens, 4u);
  EXPECT_EQ(full.net->places()[1].initial_tokens, 65532u);
  EXPECT_EQ(full.net->transitions()[0].inputs[0].weight, 2u);
  EXPECT_EQ(full.net->transitions()[0].servers, 2147483647u);
  std::string error;
  EXPECT_EQ(CanonicalPnetText("net d\nplace p cap=00000000004 init=4\n", &error),
            "net d\nplace p cap=4 init=4\n")
      << error;
}

TEST(Pnet, LineNumbersInErrors) {
  const LoadedNet loaded = LoadPnet("net d\nplace p\nbogus\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("line 3"), std::string::npos);
}

TEST(PnetCompose, UseDirectiveInlinesComponent) {
  // A host net instantiating the shipped DMA-channel component twice.
  const std::string host = std::string(
      "net host\n"
      "place ld_cmd\n"
      "place st_cmd\n"
      "place ld_done\n"
      "place st_done\n"
      "use \"components/dram_channel.pnet\" prefix=ld bind=\"cmd=ld_cmd,done=ld_done\"\n"
      "use \"components/dram_channel.pnet\" prefix=st bind=\"cmd=st_cmd,done=st_done\"\n");
  const PnetExpansion expanded =
      ExpandPnetIncludes(host, InterfaceRegistry::InterfaceDir());
  ASSERT_TRUE(expanded.ok) << expanded.error;
  LoadedNet loaded = LoadPnet(expanded.text);
  ASSERT_TRUE(loaded.ok()) << loaded.error << "\n" << expanded.text;

  // Each instance has its own mutex place and transition.
  EXPECT_TRUE(loaded.net->HasPlace("ld_chan"));
  EXPECT_TRUE(loaded.net->HasPlace("st_chan"));
  EXPECT_EQ(loaded.net->transitions().size(), 2u);

  // The two channels operate independently: a transfer on each completes
  // concurrently at the component's delay.
  PetriSim sim(loaded.net.get());
  const PlaceId ld_done = loaded.net->PlaceByName("ld_done");
  const PlaceId st_done = loaded.net->PlaceByName("st_done");
  sim.Observe(ld_done);
  sim.Observe(st_done);
  const std::size_t words_slot = loaded.net->FindAttr("words");
  ASSERT_NE(words_slot, PetriNet::kNoAttr);
  Token t;
  t.attrs.assign(loaded.net->attr_names().size(), 0);
  t.attrs[words_slot] = 16;  // 2 bursts -> 4 + 2*60 = 124
  sim.Inject(loaded.net->PlaceByName("ld_cmd"), t);
  sim.Inject(loaded.net->PlaceByName("st_cmd"), t);
  ASSERT_TRUE(sim.Run(10000));
  EXPECT_EQ(sim.arrivals(ld_done)[0].time, 124u);
  EXPECT_EQ(sim.arrivals(st_done)[0].time, 124u);

  // And each instance serializes its own transfers via its mutex.
  sim.Reset();
  sim.Inject(loaded.net->PlaceByName("ld_cmd"), t);
  sim.Inject(loaded.net->PlaceByName("ld_cmd"), t);
  ASSERT_TRUE(sim.Run(10000));
  EXPECT_EQ(sim.arrivals(ld_done)[1].time, 248u);
}

TEST(PnetCompose, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(ExpandPnetIncludes("use \"x.pnet\"\n", ".").ok);  // missing prefix
  EXPECT_FALSE(
      ExpandPnetIncludes("use \"components/dram_channel.pnet\" prefix=a bind=\"oops\"\n",
                         InterfaceRegistry::InterfaceDir())
          .ok);  // malformed bind
}

// A `use` is resolved by the one reader: a component that cannot be read
// or does not parse is a load error naming its file and line. Each of these
// once crashed (a bare `place` in a component), aborted (a missing file),
// expanded to nothing (a directory) or named a line of the flattened text.
TEST(PnetCompose, BadComponentsAreLoadErrorsNamingTheirLine) {
  const std::string dir = ::testing::TempDir() + "/pnet_compose";
  std::filesystem::create_directories(dir + "/parts");
  std::filesystem::copy_file(
      InterfaceRegistry::InterfaceDir() + "/components/dram_channel.pnet",
      dir + "/parts/dram_channel.pnet", std::filesystem::copy_options::overwrite_existing);
  std::ofstream(dir + "/parts/bare.pnet") << "net bare\nplace\n";
  std::ofstream(dir + "/parts/unknown.pnet")
      << "net unknown\nattr words\n\nplace cmd\ntrans t in=cmd,gone delay=\"1\"\n";
  std::ofstream(dir + "/parts/self.pnet") << "use \"self.pnet\" prefix=s\n";
  const auto load_error = [&dir](const std::string& host) {
    std::ofstream(dir + "/host.pnet") << host;
    return LoadPnetFile(dir + "/host.pnet").error;
  };
  EXPECT_EQ(load_error("net h\nuse \"parts/bare.pnet\" prefix=b\n"),
            "parts/bare.pnet line 2: place needs a name");
  EXPECT_EQ(load_error("net h\n\nuse \"parts/missing.pnet\" prefix=m\n"),
            "line 3: use: cannot read " + dir + "/parts/missing.pnet: No such file or directory");
  EXPECT_EQ(load_error("net h\nuse \"parts\" prefix=d\n"),
            "line 2: use: cannot read " + dir + "/parts: Is a directory");
  EXPECT_EQ(load_error("net h\nuse \"parts/unknown.pnet\" prefix=u\n"),
            "parts/unknown.pnet line 5: unknown place 'u_gone'");
  EXPECT_EQ(load_error("net h\nuse \"parts/self.pnet\" prefix=s\n"),
            "self.pnet line 1: use: include depth limit exceeded");

  // Host lines keep their own numbers after a `use`, for errors of the
  // parse and of the load alike.
  const std::string host =
      "net h\nplace cmd\nplace done\n"
      "use \"parts/dram_channel.pnet\" prefix=ch bind=\"cmd=cmd,done=done\"\n";
  EXPECT_EQ(load_error(host + "bogus\n"), "line 5: unknown directive 'bogus'");
  EXPECT_EQ(load_error(host + "trans t in=nowhere delay=\"1\"\n"),
            "line 5: unknown place 'nowhere'");
  EXPECT_EQ(load_error(host), "");

  // An unreadable top-level file is an error too, and text has no file
  // for a `use` to be relative to.
  EXPECT_EQ(LoadPnetFile(dir + "/absent.pnet").error,
            "cannot read " + dir + "/absent.pnet: No such file or directory");
  EXPECT_EQ(LoadPnet("net h\nuse \"parts/bare.pnet\" prefix=b\n").error,
            "line 2: use needs the including file's directory (LoadPnetFile, "
            "ExpandPnetIncludes)");
}

// Canonical text reads back as the document it prints. A delay holding
// quotes after a `#` comment prints bare, and an arc list that begins and
// ends with a quote prints quoted: printed the other way, the first split
// into two words and the second lost its quotes.
TEST(Pnet, CanonicalTextReadsBackQuotedValues) {
  const std::string text =
      "net d\nplace \"p\"\nplace q\ntrans t in=\"\"p\"\" out=q delay=1#\"a b\"\n";
  const LoadedNet loaded = LoadPnet(text);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  std::string error;
  const std::string canonical = CanonicalPnetText(text, &error);
  EXPECT_EQ(canonical, text) << error;
  const LoadedNet reloaded = LoadPnet(canonical);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error;
  EXPECT_EQ(CompiledNet(loaded.net.get()).structural_hash(),
            CompiledNet(reloaded.net.get()).structural_hash());
}

// The structural hash covers the canonical compiled form of every delay
// and guard expression: the exact derived tier's model keys (distill.h).
TEST(Pnet, LoadedNetsAreHashable) {
  const char* src =
      "net demo\n"
      "attr op\n"
      "place in\n"
      "place a\n"
      "trans ta in=in out=a guard=\"op == 1\" delay=\"op * 3\"\n";
  const LoadedNet a = LoadPnet(src);
  const LoadedNet b = LoadPnet(src);
  ASSERT_TRUE(a.ok() && b.ok());
  const CompiledNet ca(a.net.get());
  const CompiledNet cb(b.net.get());
  EXPECT_NE(ca.structural_hash(), 0u);
  // Two loads of the same text must agree — that is what lets two
  // *different* nets sharing a component share memo entries.
  EXPECT_EQ(ca.structural_hash(), cb.structural_hash());
}

// Constants are inlined into the compiled expression program, so the same
// delay *text* under a different const table is a different behavior and
// must hash differently (raw source text would wrongly collide here).
TEST(Pnet, ConstValueChangeAltersStructuralHash) {
  const char* tmpl =
      "net demo\n"
      "const lat %d\n"
      "attr words\n"
      "place in\n"
      "place out\n"
      "trans dma in=in out=out delay=\"4 + ceil(words / 8) * (lat + 8)\"\n";
  char src50[256];
  char src60[256];
  std::snprintf(src50, sizeof(src50), tmpl, 50);
  std::snprintf(src60, sizeof(src60), tmpl, 60);
  const LoadedNet a = LoadPnet(src50);
  const LoadedNet b = LoadPnet(src60);
  ASSERT_TRUE(a.ok() && b.ok());
  const CompiledNet ca(a.net.get());
  const CompiledNet cb(b.net.get());
  EXPECT_NE(ca.structural_hash(), cb.structural_hash());
}

TEST(Pnet, ShippedNetsAreHashable) {
  for (const char* name : {"jpeg", "protoacc", "vta"}) {
    const LoadedNet loaded = LoadPnetFile(std::string(PERFIFACE_SOURCE_DIR) +
                                          "/src/core/interfaces/" + name + ".pnet");
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.error;
    const CompiledNet compiled(loaded.net.get());
    EXPECT_NE(compiled.structural_hash(), 0u) << name;
  }
}

TEST(Pnet, DelayAndGuardExpressionsParseOncePerLoad) {
  // Delay/guard expressions are compiled at net-load time, and a transition
  // holds only the compiled forms (src/petri/net.h): no firing has text it
  // could re-parse, so every firing reuses what the load compiled.
  const char* src =
      "net demo\n"
      "attr work\n"
      "place in\n"
      "place out\n"
      "place idle_in\n"
      "place idle_out\n"
      "trans t in=in out=out delay=\"work * 2 + 1\" guard=\"work > 0\"\n"
      "trans idle in=idle_in out=idle_out delay=\"work\"\n";
  LoadedNet loaded = LoadPnet(src);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.net->transitions().size(), 2u);
  for (const TransitionSpec& t : loaded.net->transitions()) {
    EXPECT_NE(t.delay_compiled, nullptr) << t.name;
    // A compiled guard exactly where the text writes one.
    EXPECT_EQ(t.guard_compiled != nullptr, t.name == "t") << t.name;
  }

  PetriSim sim(loaded.net.get());
  const PlaceId out = loaded.net->PlaceByName("out");
  sim.Observe(out);
  for (int i = 0; i < 100; ++i) {
    Token t;
    t.attrs = {static_cast<double>(i + 1)};
    sim.Inject(loaded.net->PlaceByName("in"), t);
  }
  EXPECT_TRUE(sim.Run(1'000'000));
  EXPECT_EQ(sim.arrivals(out).size(), 100u);
  // One server: the firings run back to back, each for work * 2 + 1.
  EXPECT_EQ(sim.arrivals(out).back().time, 10'200u);
}

TEST(Pnet, ShippedJpegNetParses) {
  const LoadedNet loaded =
      LoadPnetFile(std::string(PERFIFACE_SOURCE_DIR) + "/src/core/interfaces/jpeg.pnet");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.name, "jpeg_decoder");
  EXPECT_TRUE(LintNet(*loaded.net).empty());
}

TEST(Pnet, ShippedVtaNetParses) {
  const LoadedNet loaded =
      LoadPnetFile(std::string(PERFIFACE_SOURCE_DIR) + "/src/core/interfaces/vta.pnet");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.name, "vta");
  EXPECT_TRUE(LintNet(*loaded.net).empty());
}

}  // namespace
}  // namespace perfiface
