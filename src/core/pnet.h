// Textual format for Petri-net performance interfaces (.pnet files).
//
// This is the concrete, shippable form of the paper's "performance IR": a
// vendor writes one small .pnet file describing a net whose transitions are
// performance-equivalent to the accelerator's processing elements. Delay
// and guard annotations are PerfScript expressions over the attributes of
// the (primary) input token and over declared constants.
//
//   # comment
//   net jpeg_decoder
//   const nominal_lat 52
//   attr bits
//   attr blocks
//   place vld_in
//   place fifo1 cap=2
//   place done
//   trans vld  in=vld_in out=fifo1 delay="blocks * 10"
//   trans idct in=fifo1 out=done  delay="blocks * 48" servers=1
//
// Arc syntax: comma-separated `place` or `place:weight`. Optional per-
// transition `guard="expr"` enables the firing only when the expression is
// non-zero on the front token (used for instruction routing by opcode).
//
// Counts (cap=, init=, servers=, arc weights) are decimal digits only, at
// most INT_MAX; servers and weights are at least 1. A bounded place (cap
// above 0) cannot start with more than cap tokens, and one net declares at
// most kMaxInjectedTokens (65536, src/petri/net.h) initial tokens in all:
// every simulation allocates each of them first. Anything else is a load
// error naming its line.
#ifndef SRC_CORE_PNET_H_
#define SRC_CORE_PNET_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/petri/net.h"

namespace perfiface {

// Thread-safety: a LoadedNet is immutable once LoadPnet returns. The
// compiled delay/guard expressions are pure functions of the token's
// attributes (register bytecode, no mutable state), so one net may back
// any number of concurrent PetriSims across threads.
struct LoadedNet {
  std::string name;
  // The net owns its compiled delay/guard expressions; heap-allocated so
  // LoadedNet can move without invalidating PetriSim pointers.
  std::unique_ptr<PetriNet> net;
  std::string error;  // non-empty on failure

  bool ok() const { return error.empty(); }
};

// One reader serves every entry point below: it splits and checks each
// directive line once, resolves `use` where it stands, and hands the parsed
// document to the loader, the canonical printer or the expander. Errors
// name their line: "line N: ..." in the document, "<file> line N: ..." in
// a component.

// Parses a .pnet document. Attribute slots are registered in declaration
// order, so token producers can map attributes by PetriNet::FindAttr.
// `use` needs the including file's directory: here it is an error.
LoadedNet LoadPnet(std::string_view text);

// Compiles one delay or guard expression as the loader does, against the
// attributes `net` has registered so far and the named constants: names
// resolve once, here, to inlined constants or token attribute slots, so
// evaluation on every firing attempt performs no lookups or allocations.
// Returns null and sets *error on a parse or binding error. Nets built in
// code compile their transitions' text through this too.
std::shared_ptr<const CompiledExpr> CompileNetExpr(const std::string& source,
                                                   const PetriNet& net,
                                                   const std::map<std::string, double>& consts,
                                                   std::string* error);

// Reads and parses a .pnet file, resolving `use` relative to the file's
// directory. A file that cannot be read, here or in a `use`, is an error
// in LoadedNet::error like any other.
LoadedNet LoadPnetFile(const std::string& path);

// Component composition (paper §5: "develop individual Petri nets for such
// components once and reuse them across multiple accelerators"):
//
//   use "components/dram_channel.pnet" prefix=ld bind="cmd=load_q,done=l2g"
//
// inlines the component net: its places and transitions are copied with the
// `prefix_` name prefix, except places named on the left of a bind= entry,
// which are fused with the including net's place on the right. Attributes
// and constants merge by name, and the component's `net` line is dropped.
// Nesting is allowed up to 8 deep.
struct PnetExpansion {
  bool ok = false;
  std::string error;
  std::string text;  // the expanded document, in canonical text
};

PnetExpansion ExpandPnetIncludes(std::string_view text, const std::string& include_dir);

// Canonical text of a .pnet document without `use` (expand it with
// ExpandPnetIncludes first): comments and blank lines dropped, one space
// between words, options in a fixed order with default values (cap=0,
// init=0, servers=1, :1 arc weights) omitted, const values re-printed from
// their parsed doubles. Directive order is preserved -- it is semantic
// (attribute slots, the default entry place, primary-input arcs).
// Idempotent, and the canonical text loads to a net with the same
// structural hash as the original. Returns "" and sets *error on malformed
// input: what LoadPnet refuses, less what only a whole net can get wrong
// (unknown and duplicate places, expressions, a missing `net`).
std::string CanonicalPnetText(std::string_view text, std::string* error);

}  // namespace perfiface

#endif  // SRC_CORE_PNET_H_
