#include "src/core/pnet.h"

#include <charconv>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/check.h"
#include "src/common/loc.h"
#include "src/common/strings.h"
#include "src/perfscript/compile.h"
#include "src/perfscript/parser.h"

namespace perfiface {
namespace {

// Key/value option on a directive line, e.g. cap=2 or delay="...".
struct Options {
  std::map<std::string, std::string> kv;

  bool Has(const std::string& key) const { return kv.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
};

// Splits a directive line into whitespace-separated words, keeping quoted
// strings (which may contain spaces) intact.
std::vector<std::string> Tokenize(std::string_view line, std::string* error) {
  std::vector<std::string> words;
  std::size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ' || line[i] == '\t') {
      ++i;
      continue;
    }
    std::string word;
    bool in_quotes = false;
    while (i < line.size() && (in_quotes || (line[i] != ' ' && line[i] != '\t'))) {
      if (line[i] == '"') {
        in_quotes = !in_quotes;
      }
      word.push_back(line[i]);
      ++i;
    }
    if (in_quotes) {
      *error = "unterminated quote";
      return {};
    }
    words.push_back(std::move(word));
  }
  return words;
}

bool ParseOption(const std::string& word, Options* opts, std::string* error) {
  const auto eq = word.find('=');
  if (eq == std::string::npos) {
    *error = StrFormat("expected key=value, got '%s'", word.c_str());
    return false;
  }
  std::string key = word.substr(0, eq);
  std::string value = word.substr(eq + 1);
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
    value = value.substr(1, value.size() - 2);
  }
  (*opts).kv[key] = value;
  return true;
}

// A count: decimal digits only, at most INT_MAX.
bool ParseCount(std::string_view text, int* out) {
  unsigned value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

// Count option `key`, `fallback` when absent, at least `min`.
bool GetCount(const Options& opts, const char* key, int fallback, int min, int* out,
              std::string* error) {
  *out = fallback;
  if (!opts.Has(key)) {
    return true;
  }
  const std::string text = opts.Get(key);
  if (ParseCount(text, out) && *out >= min) {
    return true;
  }
  *error = StrFormat("bad %s '%s' (expected a count from %d to %d)", key, text.c_str(), min,
                     std::numeric_limits<int>::max());
  return false;
}

// cap= and init= of a `place` line. A bounded place cannot start over its
// capacity, and `*net_initial` (the initial tokens of the places read so
// far, this one added) stays within kMaxInjectedTokens.
bool GetPlaceCounts(const Options& opts, int* cap, int* init, std::int64_t* net_initial,
                    std::string* error) {
  if (!GetCount(opts, "cap", 0, 0, cap, error) || !GetCount(opts, "init", 0, 0, init, error)) {
    return false;
  }
  if (*cap > 0 && *init > *cap) {
    *error = StrFormat("init=%d exceeds cap=%d", *init, *cap);
    return false;
  }
  *net_initial += *init;
  if (*net_initial > kMaxInjectedTokens) {
    *error = StrFormat("more than %lld initial tokens in the net",
                       static_cast<long long>(kMaxInjectedTokens));
    return false;
  }
  return true;
}

struct ArcSpec {
  std::string place;
  std::size_t weight = 1;
};

bool ParseArcs(const std::string& list, std::vector<ArcSpec>* out, std::string* error) {
  for (const std::string& part : SplitString(list, ',')) {
    if (part.empty()) {
      *error = "empty arc entry";
      return false;
    }
    ArcSpec arc;
    const auto colon = part.find(':');
    if (colon == std::string::npos) {
      arc.place = part;
    } else {
      arc.place = part.substr(0, colon);
      int w = 0;
      if (!ParseCount(std::string_view(part).substr(colon + 1), &w) || w < 1) {
        *error = StrFormat("bad arc weight in '%s'", part.c_str());
        return false;
      }
      arc.weight = static_cast<std::size_t>(w);
    }
    out->push_back(std::move(arc));
  }
  return true;
}

}  // namespace

std::shared_ptr<const CompiledExpr> CompileNetExpr(const std::string& source,
                                                   const PetriNet& net,
                                                   const std::map<std::string, double>& consts,
                                                   std::string* error) {
  ExprCompileOptions options;
  options.domain = "net expressions";
  options.unknown_var_hint = " (declare attrs/consts first)";
  return CompiledExpr::CompileSource(
      source,
      [&net, &consts](std::string_view name) -> std::optional<ExprBinding> {
        const auto it = consts.find(std::string(name));
        if (it != consts.end()) {
          return ExprBinding::Const(it->second);
        }
        const std::size_t slot = net.FindAttr(std::string(name));
        if (slot == PetriNet::kNoAttr) {
          return std::nullopt;
        }
        return ExprBinding::Slot(static_cast<std::uint32_t>(slot));
      },
      error, options);
}

LoadedNet LoadPnet(std::string_view text) {
  LoadedNet out;
  out.net = std::make_unique<PetriNet>();
  PetriNet& net = *out.net;
  std::map<std::string, double> consts;
  std::int64_t net_initial = 0;

  int line_no = 0;
  for (const std::string& raw_line : SplitString(text, '\n')) {
    ++line_no;
    const std::string_view line = StripWhitespace(raw_line);
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::string err;
    const std::vector<std::string> words = Tokenize(line, &err);
    if (!err.empty()) {
      out.error = StrFormat("line %d: %s", line_no, err.c_str());
      return out;
    }
    PI_CHECK(!words.empty());
    const std::string& directive = words[0];

    auto fail = [&](const std::string& msg) {
      out.error = StrFormat("line %d: %s", line_no, msg.c_str());
    };

    if (directive == "net") {
      if (words.size() != 2) {
        fail("net takes exactly one name");
        return out;
      }
      out.name = words[1];
    } else if (directive == "const") {
      if (words.size() != 3) {
        fail("const takes a name and a value");
        return out;
      }
      double value = 0;
      if (ParseDecimal(words[2], &value) != std::errc()) {
        fail(StrFormat("bad const value '%s' (expected a decimal number)", words[2].c_str()));
        return out;
      }
      consts[words[1]] = value;
    } else if (directive == "attr") {
      if (words.size() != 2) {
        fail("attr takes exactly one name");
        return out;
      }
      net.RegisterAttr(words[1]);
    } else if (directive == "place") {
      if (words.size() < 2) {
        fail("place needs a name");
        return out;
      }
      Options opts;
      for (std::size_t i = 2; i < words.size(); ++i) {
        if (!ParseOption(words[i], &opts, &err)) {
          fail(err);
          return out;
        }
      }
      int cap = 0;
      int init = 0;
      if (!GetPlaceCounts(opts, &cap, &init, &net_initial, &err)) {
        fail(err);
        return out;
      }
      if (net.HasPlace(words[1])) {
        fail(StrFormat("duplicate place '%s'", words[1].c_str()));
        return out;
      }
      net.AddPlace(words[1], static_cast<std::size_t>(cap), static_cast<std::size_t>(init));
    } else if (directive == "trans") {
      if (words.size() < 2) {
        fail("trans needs a name");
        return out;
      }
      Options opts;
      for (std::size_t i = 2; i < words.size(); ++i) {
        if (!ParseOption(words[i], &opts, &err)) {
          fail(err);
          return out;
        }
      }
      if (!opts.Has("in") || !opts.Has("delay")) {
        fail("trans requires in= and delay=");
        return out;
      }
      std::vector<ArcSpec> in_arcs;
      std::vector<ArcSpec> out_arcs;
      if (!ParseArcs(opts.Get("in"), &in_arcs, &err)) {
        fail(err);
        return out;
      }
      if (opts.Has("out") && !ParseArcs(opts.Get("out"), &out_arcs, &err)) {
        fail(err);
        return out;
      }

      TransitionSpec spec;
      spec.name = words[1];
      for (const ArcSpec& a : in_arcs) {
        if (!net.HasPlace(a.place)) {
          fail(StrFormat("unknown place '%s'", a.place.c_str()));
          return out;
        }
        spec.inputs.push_back(Arc{net.PlaceByName(a.place), a.weight});
      }
      for (const ArcSpec& a : out_arcs) {
        if (!net.HasPlace(a.place)) {
          fail(StrFormat("unknown place '%s'", a.place.c_str()));
          return out;
        }
        spec.outputs.push_back(Arc{net.PlaceByName(a.place), a.weight});
      }
      int servers = 1;
      if (!GetCount(opts, "servers", 1, 1, &servers, &err)) {
        fail(err);
        return out;
      }
      spec.servers = static_cast<std::size_t>(servers);

      spec.delay_compiled = CompileNetExpr(opts.Get("delay"), net, consts, &err);
      if (spec.delay_compiled == nullptr) {
        fail(StrFormat("delay: %s", err.c_str()));
        return out;
      }
      if (opts.Has("guard")) {
        spec.guard_compiled = CompileNetExpr(opts.Get("guard"), net, consts, &err);
        if (spec.guard_compiled == nullptr) {
          fail(StrFormat("guard: %s", err.c_str()));
          return out;
        }
      }
      net.AddTransition(std::move(spec));
    } else {
      fail(StrFormat("unknown directive '%s'", directive.c_str()));
      return out;
    }
  }
  if (out.name.empty()) {
    out.error = "missing 'net' declaration";
  }
  return out;
}

namespace {

// Rewrites one place reference ("name" or "name:weight") for inclusion.
std::string RewritePlaceRef(const std::string& ref, const std::string& prefix,
                            const std::map<std::string, std::string>& bind) {
  std::string name = ref;
  std::string weight;
  const auto colon = ref.find(':');
  if (colon != std::string::npos) {
    name = ref.substr(0, colon);
    weight = ref.substr(colon);
  }
  const auto bound = bind.find(name);
  return (bound != bind.end() ? bound->second : prefix + "_" + name) + weight;
}

}  // namespace

PnetExpansion ExpandPnetIncludes(std::string_view text, const std::string& include_dir,
                                 int depth) {
  PnetExpansion out;
  if (depth > 8) {
    out.error = "use: include depth limit exceeded";
    return out;
  }

  std::string flattened;
  int line_no = 0;
  for (const std::string& raw_line : SplitString(text, '\n')) {
    ++line_no;
    const std::string_view line = StripWhitespace(raw_line);
    if (!StartsWith(line, "use ") && line != "use") {
      flattened += raw_line;
      flattened += '\n';
      continue;
    }

    std::string err;
    const std::vector<std::string> words = Tokenize(line, &err);
    if (!err.empty()) {
      out.error = StrFormat("line %d: %s", line_no, err.c_str());
      return out;
    }
    if (words.size() < 3) {
      out.error = StrFormat("line %d: use \"file\" prefix=<p> [bind=\"a=b,...\"]", line_no);
      return out;
    }
    std::string file = words[1];
    if (file.size() >= 2 && file.front() == '"' && file.back() == '"') {
      file = file.substr(1, file.size() - 2);
    }
    Options opts;
    for (std::size_t i = 2; i < words.size(); ++i) {
      if (!ParseOption(words[i], &opts, &err)) {
        out.error = StrFormat("line %d: %s", line_no, err.c_str());
        return out;
      }
    }
    const std::string prefix = opts.Get("prefix");
    if (prefix.empty()) {
      out.error = StrFormat("line %d: use requires prefix=", line_no);
      return out;
    }
    std::map<std::string, std::string> bind;
    if (opts.Has("bind")) {
      for (const std::string& entry : SplitString(opts.Get("bind"), ',')) {
        const std::string_view trimmed = StripWhitespace(entry);
        const auto eq = trimmed.find('=');
        if (eq == std::string_view::npos || eq == 0 || eq + 1 == trimmed.size()) {
          out.error = StrFormat("line %d: bad bind entry '%s'", line_no,
                                std::string(trimmed).c_str());
          return out;
        }
        bind[std::string(trimmed.substr(0, eq))] = std::string(trimmed.substr(eq + 1));
      }
    }

    // Recursively expand the component, then splice it in, renamed.
    const std::string component_path = include_dir + "/" + file;
    const PnetExpansion component =
        ExpandPnetIncludes(ReadFileOrDie(component_path),
                           component_path.substr(0, component_path.find_last_of('/')),
                           depth + 1);
    if (!component.ok) {
      out.error = component.error;
      return out;
    }

    flattened += StrFormat("# --- begin %s (prefix=%s) ---\n", file.c_str(), prefix.c_str());
    int comp_line = 0;
    for (const std::string& comp_raw : SplitString(component.text, '\n')) {
      ++comp_line;
      const std::string_view comp_line_view = StripWhitespace(comp_raw);
      if (comp_line_view.empty() || comp_line_view[0] == '#') {
        continue;
      }
      std::vector<std::string> comp_words = Tokenize(comp_line_view, &err);
      if (!err.empty() || comp_words.empty()) {
        out.error = StrFormat("%s line %d: %s", file.c_str(), comp_line, err.c_str());
        return out;
      }
      const std::string& directive = comp_words[0];
      if (directive == "net") {
        continue;  // the including document names the net
      }
      if (directive == "attr" || directive == "const") {
        flattened += comp_raw;
        flattened += '\n';
        continue;
      }
      if (directive == "place") {
        if (comp_words.size() >= 2 && bind.count(comp_words[1]) > 0) {
          continue;  // fused with an including-net place
        }
        comp_words[1] = prefix + "_" + comp_words[1];
      } else if (directive == "trans") {
        if (comp_words.size() < 2) {
          out.error = StrFormat("%s line %d: malformed trans", file.c_str(), comp_line);
          return out;
        }
        comp_words[1] = prefix + "_" + comp_words[1];
        for (std::size_t i = 2; i < comp_words.size(); ++i) {
          if (StartsWith(comp_words[i], "in=") || StartsWith(comp_words[i], "out=")) {
            const auto eq = comp_words[i].find('=');
            const std::string key = comp_words[i].substr(0, eq);
            std::string rewritten;
            for (const std::string& ref : SplitString(comp_words[i].substr(eq + 1), ',')) {
              if (!rewritten.empty()) {
                rewritten += ',';
              }
              rewritten += RewritePlaceRef(ref, prefix, bind);
            }
            comp_words[i] = key + "=" + rewritten;
          }
        }
      } else {
        out.error = StrFormat("%s line %d: unsupported directive '%s' in component",
                              file.c_str(), comp_line, directive.c_str());
        return out;
      }
      std::string joined;
      for (const std::string& w : comp_words) {
        if (!joined.empty()) {
          joined += ' ';
        }
        joined += w;
      }
      flattened += joined;
      flattened += '\n';
    }
    flattened += StrFormat("# --- end %s ---\n", file.c_str());
  }
  out.ok = true;
  out.text = flattened;
  return out;
}

namespace {

// %.17g survives a double round-trip exactly; integral values (the common
// case for pnet constants) print without a decimal point or exponent.
std::string CanonicalNumber(double v) { return StrFormat("%.17g", v); }

std::string CanonicalArcList(const std::vector<ArcSpec>& arcs) {
  std::string out;
  for (const ArcSpec& a : arcs) {
    if (!out.empty()) {
      out += ',';
    }
    out += a.place;
    if (a.weight != 1) {
      out += StrFormat(":%zu", a.weight);
    }
  }
  return out;
}

}  // namespace

std::string CanonicalPnetText(std::string_view text, std::string* error) {
  std::string canonical;
  std::int64_t net_initial = 0;
  int line_no = 0;
  for (const std::string& raw_line : SplitString(text, '\n')) {
    ++line_no;
    const std::string_view line = StripWhitespace(raw_line);
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::string err;
    const std::vector<std::string> words = Tokenize(line, &err);
    if (!err.empty()) {
      *error = StrFormat("line %d: %s", line_no, err.c_str());
      return "";
    }
    PI_CHECK(!words.empty());
    const std::string& directive = words[0];

    auto fail = [&](const std::string& msg) {
      *error = StrFormat("line %d: %s", line_no, msg.c_str());
      return std::string();
    };

    if (directive == "net" || directive == "attr") {
      if (words.size() != 2) {
        return fail(directive + " takes exactly one name");
      }
      canonical += directive + " " + words[1] + "\n";
    } else if (directive == "const") {
      if (words.size() != 3) {
        return fail("const takes a name and a value");
      }
      double value = 0;
      if (ParseDecimal(words[2], &value) != std::errc()) {
        return fail(
            StrFormat("bad const value '%s' (expected a decimal number)", words[2].c_str()));
      }
      canonical += "const " + words[1] + " " + CanonicalNumber(value) + "\n";
    } else if (directive == "place") {
      if (words.size() < 2) {
        return fail("place needs a name");
      }
      Options opts;
      for (std::size_t i = 2; i < words.size(); ++i) {
        if (!ParseOption(words[i], &opts, &err)) {
          return fail(err);
        }
      }
      int cap = 0;
      int init = 0;
      if (!GetPlaceCounts(opts, &cap, &init, &net_initial, &err)) {
        return fail(err);
      }
      canonical += "place " + words[1];
      if (cap > 0) {
        canonical += StrFormat(" cap=%d", cap);
      }
      if (init > 0) {
        canonical += StrFormat(" init=%d", init);
      }
      canonical += '\n';
    } else if (directive == "trans") {
      if (words.size() < 2) {
        return fail("trans needs a name");
      }
      Options opts;
      for (std::size_t i = 2; i < words.size(); ++i) {
        if (!ParseOption(words[i], &opts, &err)) {
          return fail(err);
        }
      }
      if (!opts.Has("in") || !opts.Has("delay")) {
        return fail("trans requires in= and delay=");
      }
      std::vector<ArcSpec> in_arcs;
      std::vector<ArcSpec> out_arcs;
      if (!ParseArcs(opts.Get("in"), &in_arcs, &err)) {
        return fail(err);
      }
      if (opts.Has("out") && !ParseArcs(opts.Get("out"), &out_arcs, &err)) {
        return fail(err);
      }
      canonical += "trans " + words[1] + " in=" + CanonicalArcList(in_arcs);
      if (!out_arcs.empty()) {
        canonical += " out=" + CanonicalArcList(out_arcs);
      }
      if (opts.Has("guard")) {
        canonical += " guard=\"" + opts.Get("guard") + "\"";
      }
      canonical += " delay=\"" + opts.Get("delay") + "\"";
      int servers = 1;
      if (!GetCount(opts, "servers", 1, 1, &servers, &err)) {
        return fail(err);
      }
      if (servers > 1) {
        canonical += StrFormat(" servers=%d", servers);
      }
      canonical += '\n';
    } else {
      return fail(StrFormat("unknown directive '%s' (flatten `use` with "
                            "ExpandPnetIncludes first)",
                            directive.c_str()));
    }
  }
  return canonical;
}

LoadedNet LoadPnetFile(const std::string& path) {
  const std::string dir = path.find('/') == std::string::npos
                              ? std::string(".")
                              : path.substr(0, path.find_last_of('/'));
  const PnetExpansion expanded = ExpandPnetIncludes(ReadFileOrDie(path), dir);
  if (!expanded.ok) {
    LoadedNet out;
    out.error = expanded.error;
    return out;
  }
  return LoadPnet(expanded.text);
}

}  // namespace perfiface
